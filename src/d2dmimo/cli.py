"""Command-line interface.

Subcommands:
  run <spec.json>       execute an experiment spec, write CSV + manifest
  trace <spec.json>     write the spec config's power-control convergence traces
  validate <spec.json>  check a spec without running it
  oracle <name|all>     run a brute-force oracle suite
  list                  show experiments, metrics, and oracle names

Exit codes: 0 success, 1 validation error or unreadable spec, 2 runtime error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .harness import EXPERIMENTS, _METRICS, SpecError, convergence_traces, load_spec, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(prog="d2dmimo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec")
    run_p.add_argument("spec", help="path to the experiment spec JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument("--out", default=None, help="override the output CSV path")
    run_p.add_argument("--workers", type=int, default=1, help="parallel trial workers")

    trace_p = sub.add_parser("trace", help="write the convergence traces of a spec's config")
    trace_p.add_argument("spec", help="path to the experiment spec JSON")
    trace_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    trace_p.add_argument("--out", default=None, help="trace JSON path (default: <output stem>.trace.json)")

    val_p = sub.add_parser("validate", help="validate an experiment spec")
    val_p.add_argument("spec")

    orc_p = sub.add_parser("oracle", help="run a brute-force oracle suite")
    orc_p.add_argument("name", help="oracle name or 'all'")
    orc_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list experiments and oracles")
    return parser


def _apply_overrides(spec, args):
    if args.seed is not None:
        try:
            spec.config = replace(spec.config, rng_seed=args.seed)
        except ValueError as exc:
            raise SpecError("seed", str(exc)) from exc
    if getattr(args, "trials", None) is not None:
        spec.trials = args.trials   # run_experiment's validate_spec checks it
    if getattr(args, "workers", 1) < 1:
        raise SpecError("workers", "must be an integer >= 1")
    if args.out is not None:
        spec.output = args.out
    return spec


def _write_trace(spec, path):
    if path is None:
        if not spec.output:
            raise SpecError("output", "the spec names no output path; pass --out")
        path = os.path.splitext(spec.output)[0] + ".trace.json"
    traces = convergence_traces(spec.config)
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(traces, fh, indent=2)
    print(f"wrote {path} (trial {traces['trial']}, feasible={traces['feasible']})")


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from .oracles import ORACLES
        print("experiments:")
        for name, (kind, defaults) in EXPERIMENTS.items():
            print(f"  {name:7s} pipeline={kind:10s} default metrics: {', '.join(defaults)}")
        print("metric families per pipeline:")
        for kind, metrics in _METRICS.items():
            print(f"  {kind:10s} {', '.join(metrics)}")
        print("oracles:")
        for name, (_, desc) in ORACLES.items():
            print(f"  {name:20s} {desc}")
        return 0

    if args.command == "oracle":
        from .oracles import run_oracle
        try:
            ok = run_oracle(args.name, seed=args.seed)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        return 0 if ok else 2

    try:
        spec = load_spec(args.spec)
    except FileNotFoundError:
        print(f"error: spec file not found: {args.spec}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read spec file {args.spec}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.spec}: valid ({spec.experiment}, sweep {spec.sweep_variable} "
              f"over {len(spec.sweep_values)} values, {spec.trials} trials)")
        return 0

    try:
        spec = _apply_overrides(spec, args)
        if args.command == "trace":
            _write_trace(spec, args.out)
            return 0
        rows, manifest = run_experiment(spec, workers=args.workers)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    if spec.output:
        print(f"wrote {spec.output} and manifest ({len(rows)} rows)")
    else:
        print("sweep,metric,mean,ci95,trials")
        for r in rows:
            print(f"{r.sweep},{r.metric},{r.mean:.6g},{r.ci95:.6g},{r.trials}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
