"""Benchmark workloads: the specs each run hands to ``run_experiment`` and
the checks its result rows must pass.

A run repeats one workload as a sequence of *reps*.  Rep 0 uses the run's
seed as the spec's ``rng_seed``; later reps use seeds derived from it, so a
run covers many random cell draws and the same ``--seed`` always yields the
same inputs.  Rep 0 at a seed listed in ``reference.json`` must reproduce
the stored rows; every rep must pass the structural checks.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (12345, 424242)   # the default seed and one held-out seed

# Desk-scale config shared by specs/fig1.json, fig2.json and fig7.json,
# copied here so that editing specs/ cannot change what the benchmark runs.
_BASE = {
    "bs_antennas": 128, "cell_side": 1000.0, "coherence_len": 50,
    "d2d_max_dist": 100.0, "d2drx_antennas": 8,
    "max_power_cu": 50.11872336272722, "max_power_d2d": 50.11872336272722,
    "min_dist": 1.0, "n_cu": 5, "n_d2d": 20, "noise_power": 1e-10,
    "pathloss_exp": 3.7, "pilot_len": 10, "pzf_bs": [4, 5], "pzf_d2d": [1, 2],
    "shadow_sigma_db": 8.0, "sinr_target": 3.1622776601683795,
    "tol_power": 0.001, "tol_wmmse": 0.001,
}
_MC = ["sum_se_cell", "sum_se_cell_lb", "sum_se_d2d", "sum_se_d2d_lb"]

# name -> (spec of one rep without rng_seed, rep wall time in seconds at the
# nominal host speed).  Reps are kept under a second so that the host-speed
# calibration around each rep follows the host's drift.
WORKLOADS = {
    # Analytic layers only: fig2 bounds over the pilot-length sweep.
    "analytic_sweep": ({
        "experiment": "fig2", "trials": 5, "config": dict(_BASE),
        "sweep": {"variable": "pilot_len", "values": list(range(6, 26))},
        "metrics": ["sum_se_cell_lb", "sum_se_d2d_lb"],
    }, 0.5),
    # Many small Monte Carlo trials of identical shape, over the antenna count.
    "mc_small": ({
        "experiment": "fig1", "trials": 10, "config": dict(_BASE),
        "sweep": {"variable": "bs_antennas", "values": [64, 128, 256]},
        "metrics": _MC,
    }, 0.45),
    # A few large Monte Carlo trials whose per-pair loops grow like K^2.
    "mc_large": ({
        "experiment": "fig1", "trials": 2,
        "config": {**_BASE, "n_d2d": 100, "pilot_len": 30},
        "sweep": {"variable": "bs_antennas", "values": [128]},
        "metrics": _MC,
    }, 0.4),
    # Joint power control on fig7's config; feasible and infeasible exits both run.
    "jdpc_power": ({
        "experiment": "fig7", "trials": 10, "config": {**_BASE, "sinr_target": 0.372},
        "sweep": {"variable": "n_d2d", "values": [10, 15, 20]},
        "metrics": ["sum_se_d2d", "infeasible_fraction"],
    }, 0.9),
}

# jdpc metrics recorded only by QoS-feasible trials
_FEASIBLE_ONLY = {"sum_se_cell", "sum_se_d2d", "iterations"}


def rep_seed(seed, rep):
    """Root seed of one rep; rep 0 runs at the run's own seed."""
    if rep == 0:
        return seed
    digest = hashlib.sha256(f"perfbench:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def rep_spec(workload, seed, rep):
    """JSON spec document of one rep."""
    doc = json.loads(json.dumps(WORKLOADS[workload][0]))
    doc["config"]["rng_seed"] = rep_seed(seed, rep)
    return doc


def trial_points(doc):
    return doc["trials"] * len(doc["sweep"]["values"])


def fading_working_set(doc):
    """Bytes of one complex128 fast-fading draw, 16*(B*(N+K) + K*M*(K+N)),
    per sweep value; computed from the sizes, not measured.  None when the
    workload records no Monte Carlo metric and so draws no fast fading."""
    if not {"sum_se_cell", "sum_se_d2d"} & set(doc["metrics"]):
        return None
    out = {}
    for v in doc["sweep"]["values"]:
        c = {**doc["config"], doc["sweep"]["variable"]: v}
        b, n, k, m = c["bs_antennas"], c["n_cu"], c["n_d2d"], c["d2drx_antennas"]
        out[str(v)] = 16 * (b * (n + k) + k * m * (k + n))
    return out


def row_tuples(rows):
    return [[r.sweep, r.metric, r.mean, r.ci95, r.trials] for r in rows]


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(a, b, rtol=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_reference(rows, ref_rows, rtol=1e-12):
    """Problems found comparing rows with reference rows: same
    sweep/metric/trials columns, mean and ci95 within rtol relative."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for got, ref in zip(rows, ref_rows):
        if got[0] != ref[0] or got[1] != ref[1] or got[4] != ref[4]:
            problems.append(f"row {got[:2]} trials={got[4]} differs from reference {ref[:2]} trials={ref[4]}")
        elif not (_close(got[2], ref[2], rtol) and _close(got[3], ref[3], rtol)):
            problems.append(f"row {got[:2]} mean/ci95 {got[2:4]} differ from reference {ref[2:4]}")
    return problems


def check_structure(doc, rows):
    """Problems found in rows of any seed: one row per (sweep value, metric)
    in order, finite values wherever a trial contributed, trial counts that
    add up, and (power control) feasible plus infeasible equal to attempted."""
    trials, metrics = doc["trials"], doc["metrics"]
    expected = [(v, m) for v in doc["sweep"]["values"] for m in metrics]
    got = [(r[0], r[1]) for r in rows]
    if got != expected:
        return [f"rows {got} do not match the expected (sweep, metric) list {expected}"]
    problems = []
    infeasible = {}
    for v, m, mean, ci95, n in rows:
        if m == "infeasible_fraction":
            infeasible[v] = mean * trials
    for v, m, mean, ci95, n in rows:
        expect_n = trials - infeasible[v] if m in _FEASIBLE_ONLY and v in infeasible else trials
        if abs(n - expect_n) > 1e-6:
            problems.append(f"row {v},{m}: {n} trials, expected {expect_n:g}")
        if n == 0:
            if not (math.isnan(mean) and math.isnan(ci95)):
                problems.append(f"row {v},{m}: no trials but values {mean}, {ci95}")
        elif not (math.isfinite(mean) and math.isfinite(ci95)) or ci95 < 0.0 or mean < 0.0:
            problems.append(f"row {v},{m}: invalid mean/ci95 {mean}, {ci95}")
        elif m == "infeasible_fraction" and mean > 1.0:
            problems.append(f"row {v},{m}: fraction {mean} above 1")
    return problems


def infeasible_count(doc, rows):
    """Infeasible trial-points implied by the infeasible_fraction rows."""
    return sum(round(r[2] * doc["trials"]) for r in rows if r[1] == "infeasible_fraction")
