"""d2dmimo benchmark: trial-point throughput of ``run_experiment``.

Run from the repository root:

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 12345   # every workload, one summary

BENCHMARK.json lists mc_small and jdpc_power; analytic_sweep and mc_large
(workloads.py) run by name and in ``all``.

``--trace 0`` times ``d2dmimo.harness.run_experiment(spec, workers=1)`` on
the workload's reps (see workloads.py) for ``--seconds`` and reports the
end-to-end metrics:

* ``trials_per_s`` - trial-points (trials x sweep values) completed per
  second of ``run_experiment`` wall time, at the nominal host speed.  The
  host's speed drifts by up to 2x within seconds while CPU time tracks
  wall time, so a fixed calibration kernel is timed before and after every
  rep and the rep's wall time is scaled by NOMINAL_CALIBRATION_S over the
  mean of the two.  The unscaled figure is in the report as
  ``trials_per_s_wall``.
* ``setup_s`` - median over fresh interpreters of importing d2dmimo and
  loading plus validating the workload's spec (setup_probe.py).  It is
  wall time, not scaled: import time hardly follows the calibration
  kernel, so scaling it would add noise rather than remove it.
* ``peak_rss_mb`` - peak resident memory of this process.

Failed trial-points (a rep that raises, or whose rows fail the checks in
workloads.py) go into ``failed``; rows failing a check also make
``correct`` false and the exit code 1.

``--trace 1`` runs a fixed number of reps, each once untraced and once with
the tracer installed (tracer.py), and reports the per-layer metrics.  The
spans go to .perfbench_out/.  The last stdout line is always the result
JSON; the line before it is the run's report (seed, environment, source
size and everything else not in the metrics).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
# calibration kernel time on an unloaded 2-core x86-64 host (105 MiB LLC)
NOMINAL_CALIBRATION_S = 0.015
# nominal rep time per --seconds second in a traced run, whose reps each run
# twice (untraced and traced)
TRACE_REPS_PER_S = 1 / 4

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_kernel():
    """Return a function timing a fixed mix of the work the simulator does:
    small complex QR factorizations, short numpy reductions and Python loops."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    v = rng.random(20)

    def run():
        t0 = perf_counter()
        s = 0.0
        for i in range(400):
            q, _ = np.linalg.qr(a)
            s += float(np.sum(np.abs(q[:, :2]) ** 2)) + float(v @ v + np.max(v * i))
            s += sum(x * x for x in range(30))
        return perf_counter() - t0

    return run


def measure_setup(workload, seed):
    path = os.path.join(OUT_DIR, f"spec-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(workloads.rep_spec(workload, seed, 0), fh)
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, SRC, path], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Trial-points attempted and failed.  A rep's points fail when it raises
    or its rows fail a check; only rows failing a check make the run
    incorrect, and so does a run in which no rep produced rows."""

    def __init__(self):
        self.attempted = self.failed = self.checked = 0
        self.wrong = False
        self.problems = []

    def add(self, rep, doc, error, problems):
        """Record one rep; returns its trial-points completed."""
        n = workloads.trial_points(doc)
        self.attempted += n
        if error is None:
            self.checked += 1
            self.wrong = self.wrong or bool(problems)
            if not problems:
                return n
        self.failed += n
        self.problems += [f"rep {rep}: {p}" for p in [error, *problems] if p]
        return 0

    @property
    def correct(self):
        return self.checked > 0 and not self.wrong


def check_rep(doc, rows, reference):
    problems = workloads.check_structure(doc, rows)
    if reference is not None:
        problems += workloads.compare_reference(rows, reference)
    return problems


def run_rep(harness, doc):
    """(rows, error, wall seconds) of one run_experiment call.  An error
    raised by the package fails this rep only, and its time still counts."""
    t0 = perf_counter()
    try:
        rows, _ = harness.run_experiment(harness.spec_from_dict(doc), workers=1)
    except Exception as exc:  # any package error: the rep's trial-points failed
        return None, f"{type(exc).__name__}: {exc}", perf_counter() - t0
    return workloads.row_tuples(rows), None, perf_counter() - t0


def timed_run(args, reference, tally):
    from d2dmimo import harness

    setup = measure_setup(args.workload, args.seed)
    calibrate = calibration_kernel()
    calibrate()
    deadline = perf_counter() + args.seconds
    before = calibrate()
    calibrations = [before]
    reps = []   # per rep: trial-points completed, wall s, wall s at nominal speed
    while not reps or perf_counter() < deadline:
        rep = len(reps)
        doc = workloads.rep_spec(args.workload, args.seed, rep)
        rows, error, wall = run_rep(harness, doc)
        after = calibrate()
        calibrations.append(after)
        problems = [] if rows is None else check_rep(doc, rows, reference if rep == 0 else None)
        completed = tally.add(rep, doc, error, problems)
        reps.append((completed, wall, wall * NOMINAL_CALIBRATION_S / (0.5 * (before + after))))
        before = after
    # Failed reps are left out, so a rare draw that makes the package raise
    # after a long solve moves `failed`, not the throughput.  The sums, not a
    # median over reps, because a rep's cost varies widely with its draws.
    completed = sum(c for c, _, _ in reps)
    wall = sum(w for c, w, _ in reps if c)
    scaled = sum(x for c, _, x in reps if c)
    metrics = {
        "trials_per_s": completed / scaled if completed else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    report = {
        "reps": len(reps),
        "trials_per_s_wall": completed / wall if completed else 0.0,
        "calibration_s_median": statistics.median(calibrations),
        "nominal_calibration_s": NOMINAL_CALIBRATION_S,
        "setup_s_samples": setup,
        "failed_wall_s": sum(w for c, w, _ in reps if not c),
        "rep_records": reps,
    }
    return metrics, END_TO_END, report


def traced_run(args, reference, tally):
    from d2dmimo import harness
    from tracer import PER_LAYER_METRICS, Tracer

    n_reps = max(1, round(args.seconds * TRACE_REPS_PER_S / WORKLOADS[args.workload][1]))
    tracer = Tracer()
    calibrate = calibration_kernel()
    calibrate()
    traced = untraced_scaled = traced_scaled = 0.0
    before = calibrate()
    for rep in range(n_reps):
        doc = workloads.rep_spec(args.workload, args.seed, rep)
        rows, error, wall_u = run_rep(harness, doc)
        between = calibrate()
        tracer.rep = rep
        infeasible_before = tracer.infeasible_qos + tracer.infeasible_budget
        with tracer.installed():
            rows_t, error_t, wall_t = run_rep(harness, doc)
        after = calibrate()
        problems = []
        if rows is not None:
            problems = check_rep(doc, rows, reference if rep == 0 else None)
            if rows_t is None:
                problems.append(f"traced run raised {error_t}")
            else:
                problems += [f"traced: {p}" for p in workloads.compare_reference(rows_t, rows, rtol=0.0)]
            seen = tracer.infeasible_qos + tracer.infeasible_budget - infeasible_before
            if seen != workloads.infeasible_count(doc, rows):
                problems.append(f"tracer saw {seen} infeasible trial-points, rows imply "
                                f"{workloads.infeasible_count(doc, rows)}")
        tally.add(rep, doc, error, problems)
        traced += wall_t
        untraced_scaled += wall_u / (before + between)
        traced_scaled += wall_t / (between + after)
        before = after
    metrics = tracer.metrics(traced)
    # both sides scaled by host speed, as trials_per_s is
    metrics["trace.overhead_share"] = traced_scaled / untraced_scaled - 1.0
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "rep", "trial"],
                   "spans": tracer.spans}, fh)
    report = {"reps": n_reps, "traced_wall_s": traced,
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, dict(PER_LAYER_METRICS), report


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
    }


def source_loc():
    """Lines in the package's Python files (informational, not a metric)."""
    total = 0
    for base, _, files in os.walk(os.path.join(SRC, "d2dmimo")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def run_one(args):
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    ref_rows = workloads.load_reference().get(args.workload, {}).get(str(args.seed))
    run = traced_run if args.trace else timed_run
    tally = Tally()
    metrics, units, report = run(args, ref_rows, tally)
    doc = workloads.rep_spec(args.workload, args.seed, 0)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **report,
        "failed_fraction": tally.failed / tally.attempted,
        "reference_checked": ref_rows is not None,
        "problems": tally.problems[:20],
        "environment": environment(),
        "src_loc": source_loc(),
        "fading_working_set_bytes_computed": workloads.fading_working_set(doc),
        "rep0_spec": doc,
    }
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_fraction = {report['failed_fraction']:.6g} "
          f"({tally.failed}/{tally.attempted})")
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.correct else 1


def run_all(args):
    """Every workload in its own process; one summary line each."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        if done.returncode != 0 or not result["correct"]:
            status = 1
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        cells.append(f"failed_fraction={result['failed'] / result['attempted']:.6g}")
        print(f"{workload}: correct={result['correct']} " + " ".join(cells))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "d2dmimo", "__init__.py")):
        print(f"perfbench: no d2dmimo package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # before numpy loads, here and in every child process
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
