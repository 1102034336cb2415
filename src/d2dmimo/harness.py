"""Experiment driver: sweeps, Monte Carlo trials, CSV/JSON outputs.

An experiment is described by an ExperimentSpec (JSON-serializable): a
recipe id, one swept SystemConfig field with its value list, a trial
count, and a base config.  Each trial draws a fresh topology, large-scale
fading and (where the recipe needs it) fast fading, from a per-trial
substream that depends only on the root seed and the trial index, never
on the sweep value.  Sweep points therefore share common random numbers,
which keeps sweep curves smooth at desk-scale trial counts, and results
are independent of sweep order and worker count.

Sweep points whose configs agree on scenario.DRAW_FIELDS (the fields
topology placement and large-scale gains read) form one draw group: a
sweep of bs_antennas, pilot_len, coherence_len or sinr_target is one
group, a sweep of n_d2d or d2d_max_dist a group per point.  A task runs
one chunk of trials at every point of a group; a power-control task runs
one chunk at every point of every group.  A task carries each point's
config, built once (by the spec's validation) and keeping the root seed,
and the chunk's trial seeds, which every draw reads.  Per group it draws
each trial's topology from its own substream and the chunk's large-scale
gains once, then runs the points in sweep order on those gains, pushing
all the chunk's trials through the analytic layers from PSA onward (PSA,
estimation coefficients with the pilot columns' received powers that the
Monte Carlo plan below reads, cancellation sets, rate coefficients and
bounds) as one stack with a leading trial axis.  A power-control task
draws its groups largest first and keeps only each point's rate
coefficients before the next group draws, then solves every point's stack
in one joint solve, in lockstep (see power_control).  Points whose configs agree on
scenario.SCHEDULE_FIELDS (the fields PSA, the power profile, the estimation
coefficients, the cancellation sets and the Monte Carlo plan read) share one
result of those layers, and those that also agree on the antenna counts one
set of rate coefficients: a sweep of bs_antennas schedules once per chunk,
and one of coherence_len or sinr_target also forms its rate coefficients
once.  A Monte Carlo recipe then keeps, of the analytic stacks, only one
MonteCarloPlan per schedule: the terms of the Monte Carlo layers that do not
depend on the fast fading, for the receiver sides the metrics read (the BS
for sum_se_cell, the D2D-Rxs for sum_se_d2d).  The Monte Carlo layers (fast
fading, pilot phase, MMSE, PZF/SINR) run on sub-stacks of the chunk, as many
trials as a peak-byte budget holds of those sides' working set (the normals,
the fading or estimates, the observations and the largest temporary), each
on its rows of the plan, and do only the draw-dependent work of those sides.
A trial's fading and pilot-noise normals depend on its seed, not on the sweep
value, and a point of a smaller size reads a prefix of them, so each sub-stack
draws every trial's normals once, from the trial's own substreams, at the
group's largest counts, and the points read their prefixes in sweep order.
The estimation recipe scores each scheduler's assignments for the whole
chunk in one sum_mse call; random assignments are drawn and exhaustive
searches run per trial, on each trial's slice of the stack.  Every trial gets the bits it
would get alone, so the outputs do not depend on chunking or grouping.
A chunk returns, per point, {metric: values of the trials that report it,
in trial order}; a trial the joint power control finds infeasible reports
only infeasible_fraction, and every other trial every metric.

Recipes:
  fig1   cellular sum SE, Monte Carlo vs lower bound (sweep bs_antennas)
  fig2   D2D sum SE, Monte Carlo vs lower bound (sweep pilot_len)
  fig3   estimation sum MSE per scheduler (sweep pilot_len)
  fig45  power-control convergence statistics
  fig6..fig9   full pipeline with joint power control

CSV schema: sweep,metric,mean,ci95,trials (one file per experiment),
plus a deterministic manifest JSON alongside.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .scenario import (DRAW_FIELDS, SCHEDULE_FIELDS, SystemConfig, Topology, generate_topology,
                       compute_large_scale, substream, trial_seed, _is_int, _is_real, TOPOLOGY, SHADOWING,
                       FADING, NOISE, RANDOM_PILOTS)
from .channel import (SIDES, PilotAssignment, PowerProfile, estimation_coeffs, draw_fast_fading,
                      simulate_pilot_phase, mmse_estimate, fading_normals, noise_normals, normals,
                      pilot_phase_bytes)
from .receivers import (DegenerateSpanError, select_cancellation, pzf_dof, rate_coeffs, rate_lower_bounds,
                        bound_sinrs, cell_sinr_terms, d2d_sinr_terms, monte_carlo_plan, pzf_bytes)
from .pilot_scheduling import SEARCH_GUARD, psa, random_assignment, exhaustive_search, search_space, sum_mse
from .power_control import InfeasibleBudgetError, JdpcPoint, SolverError, jdpc_stack, dpcc, dpcd


class SpecError(ValueError):
    """Experiment-spec validation failure, tagged with the offending field."""

    def __init__(self, spec_field, message):
        super().__init__(f"{spec_field}: {message}")
        self.field = spec_field


_METRICS = {
    "bounds_mc": ("sum_se_cell", "sum_se_cell_lb", "sum_se_d2d", "sum_se_d2d_lb"),
    "mse": ("sum_mse_psa", "sum_mse_rps", "sum_mse_es", "sum_mse_lb"),
    "jdpc": ("sum_se_cell", "sum_se_d2d", "iterations", "infeasible_fraction"),
}

# experiment id -> (pipeline kind, default metrics)
EXPERIMENTS = {
    "fig1": ("bounds_mc", ["sum_se_cell", "sum_se_cell_lb"]),
    "fig2": ("bounds_mc", ["sum_se_d2d", "sum_se_d2d_lb"]),
    "fig3": ("mse", ["sum_mse_psa", "sum_mse_rps", "sum_mse_lb"]),
    "fig45": ("jdpc", ["sum_se_d2d", "sum_se_cell", "iterations", "infeasible_fraction"]),
    "fig6": ("jdpc", ["sum_se_cell", "sum_se_d2d", "infeasible_fraction"]),
    "fig7": ("jdpc", ["sum_se_d2d", "infeasible_fraction"]),
    "fig8": ("jdpc", ["sum_se_d2d", "infeasible_fraction"]),
    "fig9": ("jdpc", ["sum_se_d2d", "infeasible_fraction"]),
}

_ES_GUARD = 250_000   # enumeration budget for the fig3 exhaustive baseline

# Bytes of large-scale gains a bounds_mc or mse chunk holds at once; its
# analytic working set runs to several times that (3.4 MB traced for fig1's
# bounds at 95 trials).  Larger stacks run little faster but raise the
# resident peak.
_STACK_BYTES = 400_000
# Peak bytes of a Monte Carlo sub-stack's working set, _mc_trial_bytes a
# trial.  On top comes what a sub-stack holds whatever its size, numpy's
# index and iteration buffers (at most about 200 kB traced, for the gathers
# of the MMSE estimates), so a sub-stack peaks at 3 MB traced: no more than
# an analytic chunk reaches.
_MC_STACK_BYTES = 2_800_000


@dataclass
class ExperimentSpec:
    experiment: str
    sweep_variable: str
    sweep_values: list
    trials: int
    config: SystemConfig = field(default_factory=SystemConfig)
    output: str | None = None
    metrics: list | None = None

    def resolved_metrics(self, spaces=None):
        """The metrics a run records: the spec's, or its experiment's
        defaults, with fig3's exhaustive-search baseline where every point's
        search space (spaces, or search_spaces() when None) is at most
        _ES_GUARD."""
        if self.metrics is not None:
            return list(self.metrics)
        kind, defaults = EXPERIMENTS[self.experiment]
        metrics = list(defaults)
        if self.experiment == "fig3" and max(self.search_spaces() if spaces is None else spaces) <= _ES_GUARD:
            metrics.insert(1, "sum_mse_es")
        return metrics

    def search_spaces(self):
        """Exhaustive-search assignment count at each sweep point."""
        return [search_space(apply_sweep(self.config, self.sweep_variable, v))
                for v in self.sweep_values]

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "sweep": {"variable": self.sweep_variable, "values": list(self.sweep_values)},
            "trials": self.trials,
            "config": self.config.to_dict(),
            "output": self.output,
            "metrics": self.metrics,
        }


@dataclass
class ResultRow:
    sweep: object
    metric: str
    mean: float
    ci95: float
    trials: int


def spec_from_dict(doc):
    _check_shape(doc)
    sweep = doc["sweep"]
    try:
        config = SystemConfig.from_dict(doc.get("config", {}))
    except (TypeError, ValueError) as exc:
        raise SpecError("config", str(exc)) from exc
    spec = ExperimentSpec(
        experiment=doc["experiment"],
        sweep_variable=sweep["variable"],
        sweep_values=sweep["values"],
        trials=doc["trials"],
        config=config,
        output=doc.get("output"),
        metrics=doc.get("metrics"),
    )
    _check_types(spec)   # a non-list sweep is reported as one, not by its first item
    _check_sweep_numbers(spec.sweep_values)
    return validate_spec(spec)


def _check_shape(doc):
    """What must hold before a spec can be built from a document: a JSON
    object with the required fields and no others, a sweep object with
    exactly 'variable' and 'values', and a config object."""
    if not isinstance(doc, dict):
        raise SpecError("spec", "top-level document must be a JSON object")
    for key in ("experiment", "sweep", "trials"):
        if key not in doc:
            raise SpecError(key, "missing required field")
    unknown = set(doc) - {"experiment", "sweep", "trials", "config", "output", "metrics"}
    if unknown:
        raise SpecError(sorted(unknown)[0], "unknown field")
    sweep = doc["sweep"]
    if not isinstance(sweep, dict) or "variable" not in sweep or "values" not in sweep:
        raise SpecError("sweep", "must be an object with 'variable' and 'values'")
    unknown = set(sweep) - {"variable", "values"}
    if unknown:
        raise SpecError(f"sweep.{sorted(unknown)[0]}", "unknown field")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise SpecError("config", f"must be an object (got {config!r})")


def _check_types(spec):
    """The types of a spec's fields that the other rules assume, checked
    before them, so that a malformed spec fails with a SpecError naming its
    field."""
    if not isinstance(spec.experiment, str):
        raise SpecError("experiment", f"must be a string (got {spec.experiment!r})")
    if not isinstance(spec.sweep_variable, str):
        raise SpecError("sweep.variable", f"must be a string (got {spec.sweep_variable!r})")
    if not isinstance(spec.sweep_values, list) or not spec.sweep_values:
        raise SpecError("sweep.values", "must be a nonempty list")
    if not isinstance(spec.config, SystemConfig):
        raise SpecError("config", f"must be a SystemConfig (got {spec.config!r})")


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError("spec", f"not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def _check_sweep_numbers(values):
    """A run writes or prints one number per point in its sweep column: a
    spec document, and a spec with an output, sweep finite numbers only."""
    for v in values:
        if not _is_real(v):
            raise SpecError("sweep.values", f"value {v!r} is not a finite number")


def validate_spec(spec):
    _validated(spec)
    return spec


def _validated(spec):
    """Check spec as validate_spec does; returns its sweep points' configs,
    each built once, and its resolved metrics."""
    _check_types(spec)
    if spec.experiment not in EXPERIMENTS:
        raise SpecError("experiment", f"unknown experiment {spec.experiment!r}; "
                                      f"known: {', '.join(sorted(EXPERIMENTS))}")
    if spec.sweep_variable not in SystemConfig.__dataclass_fields__:
        raise SpecError("sweep.variable", f"{spec.sweep_variable!r} is not a SystemConfig field")
    if spec.sweep_variable == "rng_seed":
        raise SpecError("sweep.variable", "rng_seed cannot be swept: every trial draws its own "
                                          "seed from the config's root seed")
    if not _is_int(spec.trials) or spec.trials < 1:
        raise SpecError("trials", "must be an integer >= 1")
    if spec.output is not None and not isinstance(spec.output, str):
        raise SpecError("output", f"must be a path string or null (got {spec.output!r})")
    if spec.output:
        _check_sweep_numbers(spec.sweep_values)
    names = spec.metrics   # a name given twice would pool its trials twice into one row
    if names is not None and not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                                  and len(set(names)) == len(names)):
        raise SpecError("metrics", f"must be a list of distinct metric names or null (got {names!r})")
    if names == []:   # a run would solve every point and report nothing
        raise SpecError("metrics", "must be a nonempty list or null")
    kind, _ = EXPERIMENTS[spec.experiment]
    cfgs = []
    for v in spec.sweep_values:
        try:
            cfgs.append(apply_sweep(spec.config, spec.sweep_variable, v))
            if kind != "mse":   # the PZF rate bounds need a positive array gain
                pzf_dof(cfgs[-1])
        except (TypeError, ValueError) as exc:
            raise SpecError("sweep.values", f"value {v!r}: {exc}") from exc
    allowed = set(_METRICS[kind])
    spaces = [search_space(cfg) for cfg in cfgs]
    metrics = spec.resolved_metrics(spaces)
    for m in metrics:
        if m not in allowed:
            raise SpecError("metrics", f"{m!r} is not produced by {spec.experiment!r} "
                                       f"(allowed: {', '.join(sorted(allowed))})")
    if "sum_mse_es" in metrics and max(spaces) > SEARCH_GUARD:
        raise SpecError("metrics", f"sum_mse_es enumerates {max(spaces)} pilot "
                                   f"assignments at some sweep point, above the guard {SEARCH_GUARD}")
    return cfgs, metrics


def apply_sweep(config, variable, value):
    """Config with one field replaced, its PZF budgets clamped to what the
    rate bounds need, the CU budget yielding first: b_d to tau-N and b_c to
    min(N-1, B-2-b_d), m_d to tau-N-1 and m_c to min(N, M-2-m_d), each
    bound at least 0.  The array gains stay positive unless b_d (m_d) alone
    leaves none, which validate_spec rejects for the rate recipes."""
    d = config.to_dict()
    d[variable] = value
    n, tau = d["n_cu"], d["pilot_len"]
    b_c, b_d = d["pzf_bs"]
    b_d = min(b_d, tau - n)
    d["pzf_bs"] = [min(b_c, n - 1, max(0, d["bs_antennas"] - 2 - b_d)), b_d]
    m_c, m_d = d["pzf_d2d"]
    m_d = min(m_d, tau - n - 1)
    d["pzf_d2d"] = [min(m_c, n, max(0, d["d2drx_antennas"] - 2 - m_d)), m_d]
    return SystemConfig.from_dict(d)


def _large_scale(cfg, seeds):
    """Large-scale gains of the trials seeds at config cfg, each trial
    drawing its topology and shadowing from its own substreams.  A topology
    that cannot be placed raises a SolverError naming its row."""
    topos = []
    for r, seed in enumerate(seeds):
        try:
            topos.append(generate_topology(cfg, substream(seed, TOPOLOGY)))
        except RuntimeError as exc:
            raise SolverError(str(exc), [r]) from exc
    return compute_large_scale(Topology.stack(topos), cfg, [substream(seed, SHADOWING) for seed in seeds])


def _fields(cfg, names):
    """cfg's values of the fields names, as a key."""
    return tuple(getattr(cfg, f) for f in names)


def _scenario_pipeline(group, ls):
    """Analytic layers at full power at every config of group on a stack of
    trials' large-scale gains ls: yields, per point in sweep order, (pa,
    pp, coeffs, sets, rc), each with a leading trial axis.  Points that
    agree on SCHEDULE_FIELDS share one (pa, pp, coeffs, sets), formed at the
    first of them and dropped after the last, and a run of consecutive
    points that also agree on the antenna counts shares one rc."""
    keys = [_fields(cfg, SCHEDULE_FIELDS) for cfg in group]
    last = {key: i for i, key in enumerate(keys)}
    schedules, rate_key = {}, None
    for i, (cfg, key) in enumerate(zip(group, keys)):
        if key not in schedules:
            pa = psa(ls, cfg)
            pp = PowerProfile.stack([PowerProfile.max_power(cfg)] * len(ls.u_c))
            schedules[key] = (pa, pp, estimation_coeffs(ls, pa, pp, cfg.noise_power),
                              select_cancellation(ls, pa, cfg))
        pa, pp, coeffs, sets = schedule = schedules.pop(key) if last[key] == i else schedules[key]
        if key + (cfg.bs_antennas, cfg.d2drx_antennas) != rate_key:
            rate_key = key + (cfg.bs_antennas, cfg.d2drx_antennas)
            rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        yield schedule + (rc,)


def _stack_size(cfg, kind, sides=SIDES):
    """Trials per stack, at least one.  kind "analytic" fits a trial's
    large-scale gains in _STACK_BYTES; kind "mc" fits _mc_trial_bytes(cfg,
    sides) a trial in _MC_STACK_BYTES."""
    if kind == "mc":
        return max(1, _MC_STACK_BYTES // _mc_trial_bytes(cfg, sides))
    return max(1, _STACK_BYTES // _trial_gain_bytes(cfg))


def _trial_gain_bytes(cfg):
    """Bytes of one trial's large-scale gains at config cfg."""
    n, k = cfg.n_cu, cfg.n_d2d
    return 8 * (n + k) * (k + 1)


def _mc_trial_bytes(cfg, sides):
    """Peak bytes one trial adds to a Monte Carlo sub-stack forming the
    receiver sides sides: its normals, alive throughout, and a draw's worth
    of complex channels (its fading, then its estimates), 8 (2F + W) bytes
    for F = fading_normals(cfg, sides) and W = noise_normals(cfg, sides),
    plus the larger of the peaks of the pilot phase with the MMSE estimates
    (pilot_phase_bytes) and of the PZF filters, the observations freed
    (pzf_bytes).  Checked with tracemalloc on _mc_rates, one to five trials
    a sub-stack at B = 32 to 256, both sides and each alone, at K=20/tau=10,
    K=20/tau=25, K=100/tau=30 and seven other shapes, among them b_d =
    tau-N and b_c = N-1: every traced peak is at most the trials times this
    plus 200 kB, within 1.5% at K=100/tau=30 with both sides (the pilot
    phase of g_d), and fig1's K=20/tau=10, B=256 point with both sides
    counts 544 kB a trial, 2.74 MB traced at five."""
    fading, noise = fading_normals(cfg, sides), noise_normals(cfg, sides)
    return 8 * (2 * fading + noise) + max(pilot_phase_bytes(cfg, sides), pzf_bytes(cfg, sides))


def _take(stack, rows):
    """stack[rows]; a view when the rows are one contiguous run."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return stack[rows[0]:rows[-1] + 1]
    return stack[rows]


@contextmanager
def _at_point(i):
    """Tag a SolverError raised inside with i, the index among its task's
    points of the sweep point that raised it."""
    try:
        yield
    except SolverError as exc:
        exc.point = i
        raise


# Monte Carlo metric -> (receiver side it reads, its SINR terms)
_MC_TERMS = {"sum_se_cell": ("cu", cell_sinr_terms), "sum_se_d2d": ("d2d", d2d_sinr_terms)}


def _mc_rates(group, seeds, plans, metrics):
    """Monte Carlo sum rates of the trials seeds at every point of a draw
    group, one fast-fading draw per trial and point: per point, {metric: (T,)
    array}.  group[i] is point i's config and plans[i] its MonteCarloPlan on the
    trials, which points may share.  Sub-stacks of as many trials as
    _stack_size(cfg, "mc", sides) allows for the plans' sides at every point
    draw each row's attempt-0 fading and noise normals once, at the group's
    largest counts for those sides, and each point in sweep order reads its own
    prefix of them (see _mc_point).  The sub-stacks are sized by the group's
    largest point, whose working set holds the shared normals; a smaller point
    runs in sub-stacks smaller than its own budget allows.  A point's arrays
    are freed before the next point forms its own, so the pages of each
    sub-stack go back to the system and fault in again at the next (about 6%
    of the time at K=100, one trial a sub-stack); buffers reused across
    sub-stacks would keep them."""
    sides = plans[0].sides
    size = min(_stack_size(cfg, "mc", sides) for cfg in group)
    counts = [max(count(cfg, sides) for cfg in group) for count in (fading_normals, noise_normals)]
    sums = [{m: np.empty(len(seeds)) for m in _MC_TERMS if m in metrics} for _ in group]
    for first in range(0, len(seeds), size):
        rows = np.arange(first, min(first + size, len(seeds)))
        drawn = [normals([substream(seeds[r], purpose, 0) for r in rows], count)
                 for purpose, count in zip((FADING, NOISE), counts)]
        for i, cfg in enumerate(group):
            with _at_point(i):
                _mc_point(cfg, seeds, rows, drawn, plans[i], sums[i])
    return sums


def _mc_point(cfg, seeds, rows, drawn, plan, sums):
    """Monte Carlo sum rates of the trials rows at one sweep point, written
    into sums, from drawn: the rows' attempt-0 (fading, noise) normals, and
    plan, the point's MonteCarloPlan on the chunk's trials.  The rows run
    through pilot phase, MMSE and PZF/SINR as one stack on plan's rows,
    forming only the receiver sides the plan holds.  A row whose draw
    leaves a degenerate PZF span (measure zero) is redrawn, at this point
    alone, from its trial's next substreams while the other rows keep their
    draws; after 5 attempts a SolverError names it."""
    prefactor = 1.0 - cfg.pilot_len / cfg.coherence_len
    todo = rows
    for attempt in range(5):
        if attempt:
            drawn = [[substream(seeds[r], purpose, attempt) for r in todo] for purpose in (FADING, NOISE)]
        plan_t = _take(plan, todo)
        # the fading dies once the pilot phase has read it
        est = mmse_estimate(simulate_pilot_phase(draw_fast_fading(cfg, drawn[0], plan.sides), plan_t, cfg,
                                                 drawn[1]), plan_t, cfg)
        args, ok = (est, plan_t), np.arange(len(todo))   # ok: rows of this draw whose spans are full
        while ok.size:
            try:
                etas = {m: _MC_TERMS[m][1](*args).sinr for m in sums}
                break
            except DegenerateSpanError as exc:
                ok = np.delete(ok, exc.rows)
                args = [x[ok] for x in (est, plan_t)]
        else:
            etas = {}
        for m, eta in etas.items():
            sums[m][todo[ok]] = prefactor * np.sum(np.log2(1.0 + eta), axis=-1)
        todo = np.delete(todo, ok)
        if not todo.size:
            return
    raise SolverError("fast-fading draw kept a degenerate PZF span after 5 attempts", todo)


def _chunk_bounds_mc(group, seeds, metrics, ls):
    """Rate bounds and Monte Carlo sum rates of the trials seeds at every
    point of a draw group (group[i]: point i's config) on the trials'
    large-scale gains ls: per point, {metric: the trials' values}.  The
    group's analytic stacks run once, the points in sweep order, and only a
    MonteCarloPlan of the receiver sides the metrics read is kept, one for
    the points that share a schedule; the Monte Carlo layers then run every
    point on each sub-stack."""
    sides = tuple(side for m, (side, _) in _MC_TERMS.items() if m in metrics)
    sums, plans = [], {}   # one plan per schedule
    for i, (cfg, (pa, pp, coeffs, sets, rc)) in enumerate(zip(group, _scenario_pipeline(group, ls))):
        with _at_point(i):
            point = {}
            if "sum_se_cell_lb" in metrics or "sum_se_d2d_lb" in metrics:
                r_c, r_d = rate_lower_bounds(rc, pp, cfg)
                point = {"sum_se_cell_lb": r_c.sum(axis=-1), "sum_se_d2d_lb": r_d.sum(axis=-1)}
            key = _fields(cfg, SCHEDULE_FIELDS)
            if sides and key not in plans:
                plans[key] = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power, sides)
        sums.append(point)
    del pa, pp, coeffs, sets, rc   # free the analytic stacks before the Monte Carlo layers
    if sides:
        rates = _mc_rates(group, seeds, [plans[_fields(cfg, SCHEDULE_FIELDS)] for cfg in group], metrics)
        for point, point_rates in zip(sums, rates):
            point.update(point_rates)
    return [{m: point[m].tolist() for m in metrics} for point in sums]


def _chunk_mse(group, seeds, metrics, ls):
    """Estimation sum MSE of each scheduler's assignments, like _chunk_bounds_mc."""
    t = len(seeds)
    columns = []
    for i, cfg in enumerate(group):
        k = cfg.n_d2d
        schedulers = {
            # no rate coefficients: a config without PZF degrees of freedom still runs
            "sum_mse_psa": lambda: psa(ls, cfg),
            "sum_mse_rps": lambda: PilotAssignment.stack([random_assignment(cfg, substream(s, RANDOM_PILOTS))
                                                          for s in seeds]),
            "sum_mse_es": lambda: PilotAssignment.stack([exhaustive_search(ls[r], cfg) for r in range(t)]),
            # contamination-free floor: every pair alone on its pilot
            "sum_mse_lb": lambda: PilotAssignment(np.broadcast_to(cfg.n_cu + 1 + np.arange(k), (t, k)),
                                                  n_cu=cfg.n_cu, pilot_len=cfg.n_cu + k),
        }
        with _at_point(i):
            columns.append({m: sum_mse(ls, schedulers[m](), cfg).tolist() for m in metrics})
    return columns


def _solve_jdpc(groups, seeds):
    """Joint power control of the trials seeds at every point of the draw
    groups groups (groups[g][i]: point i's config in group g): per point, in
    order, its stacked rate coefficients, pre-log factor and JdpcResult.  Each
    group in turn draws its trials' large-scale gains and forms its points'
    rate coefficients, keeping only those, the group of the largest gains
    first, so that its analytic peak comes before any coefficients are held;
    then one jdpc_stack solves every point in lockstep.  A failing step
    raises a SolverError naming its rows and its point's index among the
    groups' points (a placement failure: its group's first point)."""
    rcs = [None] * len(groups)
    for g in sorted(range(len(groups)), key=lambda g: -_trial_gain_bytes(groups[g][0])):
        with _at_point(sum(len(group) for group in groups[:g])):
            rcs[g] = _rate_coeffs(groups[g], seeds)
    points = [JdpcPoint(rc, cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                        prefactor=1.0 - cfg.pilot_len / cfg.coherence_len,
                        tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse)
              for group, group_rcs in zip(groups, rcs) for cfg, rc in zip(group, group_rcs)]
    return [(pt.rc, pt.prefactor, res) for pt, res in zip(points, jdpc_stack(points))]


def _rate_coeffs(group, seeds):
    """Rate coefficients at full power of the trials seeds at every point of
    a draw group, each stacked, with the group's large-scale gains and
    schedule stacks freed."""
    return [stacks[-1] for stacks in _scenario_pipeline(group, _large_scale(group[0], seeds))]


def _chunk_jdpc(groups, seeds, metrics):
    """Joint power control of the trials seeds at every point of the draw
    groups groups, solved together: per point, in order, {metric: the
    trials' values}; only the feasible trials report their outer rounds and
    sum SEs at their final powers."""
    columns = []
    for rc, prefactor, res in _solve_jdpc(groups, seeds):
        ok = res.feasible
        eta_c, eta_d = bound_sinrs(rc[ok], res.q_s[ok], res.p_s[ok])
        point = {"infeasible_fraction": (~ok).astype(float),
                 "iterations": res.outer_iterations[ok].astype(float),
                 "sum_se_cell": prefactor * np.log2(1.0 + eta_c).sum(axis=-1),
                 "sum_se_d2d": prefactor * np.log2(1.0 + eta_d).sum(axis=-1)}
        columns.append({m: point[m].tolist() for m in metrics})
    return columns


# pipeline kind -> chunk(group, seeds, metrics, ls) of one draw group: per
# point of the group, {metric: values of the trials that report it, in trial
# order}.  A jdpc chunk (_chunk_jdpc) runs every draw group, to solve all
# points together.
_CHUNKS = {"bounds_mc": _chunk_bounds_mc, "mse": _chunk_mse}


def _run_chunk(task):
    """Results of a contiguous run of trials at every sweep point of the
    task's draw groups (one, but for joint power control): per point, in the
    groups' order, {metric: values of the trials that report it, in trial
    order}.  Each group draws its trials' large-scale gains once and its
    points run on them, in sweep order, from PSA onward, sharing the schedule
    layers with the points that agree on their fields; the bounds recipes
    also share each trial's Monte Carlo draw, and the power-control recipes
    solve all the groups' points in one joint solve.  A runtime failure is
    re-raised naming the sweep value it was raised at (the group's first for
    a shared large-scale draw), trial index and trial seed, so the draw can
    be re-run."""
    groups, kind, metrics, first, seeds, points = task
    try:
        if kind == "jdpc":
            return _chunk_jdpc(groups, seeds, metrics)
        (group,) = groups
        return _CHUNKS[kind](group, seeds, metrics, _large_scale(group[0], seeds))
    except SolverError as exc:
        where = "; ".join(f"trial {first + r} (seed {seeds[r]})" for r in exc.rows)
        raise RuntimeError(f"{points[exc.point]}, {where}: {exc.args[0]}") from exc


def _aggregate(values):
    n = len(values)
    if n == 0:
        return math.nan, math.nan
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def run_experiment(spec, workers=1):
    """Execute the spec; returns (rows, manifest) and writes CSV + manifest
    when spec.output is set."""
    point_cfgs, metrics = _validated(spec)
    kind, _ = EXPERIMENTS[spec.experiment]
    root = spec.config.rng_seed
    seeds = [trial_seed(root, t) for t in range(spec.trials)]

    # sweep points whose configs agree on DRAW_FIELDS share each trial's draw
    groups = {}
    for i, cfg in enumerate(point_cfgs):
        groups.setdefault(_fields(cfg, DRAW_FIELDS), []).append(i)
    # a task runs one draw group, or for power control every group, whose
    # points it solves together
    labels = [f"{spec.sweep_variable}={v!r}" for v in spec.sweep_values]
    tasks, owners = [], []   # owners[j]: the sweep points task j runs
    for task_groups in [list(groups.values())] if kind == "jdpc" else [[g] for g in groups.values()]:
        members = [i for g in task_groups for i in g]
        # one chunk per task, or about four per worker; power control solves
        # a whole chunk in lockstep, other chunks are capped in size, and
        # share the cap among the group's distinct Monte Carlo plans, one
        # per schedule, which stay alive while the Monte Carlo layers run
        size = len(seeds) if workers == 1 else max(1, len(seeds) // (4 * workers))
        if kind != "jdpc":
            share = (len({_fields(point_cfgs[i], SCHEDULE_FIELDS) for i in members})
                     if any(m in _MC_TERMS for m in metrics) else 1)
            size = min(size, max(1, _stack_size(point_cfgs[members[0]], "analytic") // share))
        cfgs = [[point_cfgs[i] for i in g] for g in task_groups]
        for first in range(0, len(seeds), size):
            tasks.append((cfgs, kind, tuple(metrics), first, seeds[first:first + size],
                          [labels[i] for i in members]))
            owners.append(members)

    values = [{m: [] for m in metrics} for _ in point_cfgs]   # per sweep point, in trial order
    # a fork-started pool launches all its workers at the first submit: never more than the tasks
    pool_size = min(workers, len(tasks))
    if pool_size > 1:   # imported here: a one-worker run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else nullcontext() as pool:
        chunks = map(_run_chunk, tasks) if pool is None else pool.map(_run_chunk, tasks)
        for members, chunk in zip(owners, chunks):
            for i, point_values in zip(members, chunk):
                for m in metrics:
                    values[i][m] += point_values[m]
    rows = []
    for value, point_values in zip(spec.sweep_values, values):
        for metric, vals in point_values.items():
            mean, ci = _aggregate(vals)
            rows.append(ResultRow(sweep=value, metric=metric, mean=mean, ci95=ci, trials=len(vals)))

    manifest = {
        "experiment": spec.experiment,
        "sweep_variable": spec.sweep_variable,
        "sweep_values": list(spec.sweep_values),
        "trials": spec.trials,
        "seed": root,
        "metrics": metrics,
        "config": spec.config.to_dict(),
        "spec_hash": hashlib.sha256(
            json.dumps(spec.to_dict(), sort_keys=True).encode()).hexdigest(),
        "version": __version__,
    }
    if spec.output:
        write_outputs(spec.output, rows, manifest)
    return rows, manifest


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def write_outputs(path, rows, manifest):
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("sweep,metric,mean,ci95,trials\n")
        for r in rows:
            fh.write(f"{_fmt(r.sweep)},{r.metric},{_fmt(r.mean)},{_fmt(r.ci95)},{r.trials}\n")
    stem, _ = os.path.splitext(path)
    with open(stem + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def convergence_traces(cfg, max_draws=50):
    """Per-solver iteration traces on one seeded instance (for the
    convergence figures): inner fixed-point and WMMSE passes of the first
    outer round, plus the outer-loop trace.  Draws trial substreams of
    cfg.rng_seed until a QoS-feasible instance appears (deterministic:
    the first feasible trial index wins; with none, trial 0 is traced).  A
    traced trial whose cellular powers leave the D2D pairs no budget gets an
    empty D2D trace: as in the joint loop, no WMMSE pass runs."""
    first = None
    for t in range(max_draws):
        rc, prefactor, joint = _solve_jdpc([[cfg]], [trial_seed(cfg.rng_seed, t)])[0]
        probe = (t, rc[0], prefactor, joint[0])
        first = first or probe
        if probe[-1].feasible:
            break
    else:
        probe = first
    chosen, rc, prefactor, joint = probe
    p0 = np.full(cfg.n_d2d, cfg.max_power_d2d)
    cell = dpcc(rc, p0, cfg.sinr_target, cfg.max_power_cu, tol=cfg.tol_power, record_trace=True)
    cell_trace = [
        {"iteration": i, "objective": prefactor * float(np.sum(np.log2(1.0 + bound_sinrs(rc, q, p0)[1]))),
         "residual": None if i == 0 else float(np.max(np.abs(q - cell.trace[i - 1])))}
        for i, q in enumerate(cell.trace)
    ]
    try:
        d2d = dpcd(rc, cell.q_s, cfg.sinr_target, cfg.max_power_d2d,
                   tol_wmmse=cfg.tol_wmmse, bisect_rtol=cfg.tol_power).objective_trace
    except InfeasibleBudgetError:
        d2d = []
    d2d_trace = [{"iteration": i + 1, "objective": prefactor * obj, "residual": None}
                 for i, obj in enumerate(d2d)]
    joint_trace = [{"iteration": i + 1, "objective": obj, "residual": None}
                   for i, obj in enumerate(joint.trace)]
    return {"cellular": cell_trace, "d2d": d2d_trace, "joint": joint_trace,
            "feasible": bool(joint.feasible), "trial": chosen}
