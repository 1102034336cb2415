"""Per-layer spans recorded from outside the d2dmimo package.

The tracer wraps the package's public functions and, while installed,
rebinds every module-level name in the package that refers to one of
them, so calls made from ``harness``, ``power_control``, ``receivers`` or
any other module go through the wrapper.  Nothing under ``src/`` changes.
A span is open from a wrapped call's entry to its return or raise, and its
parent is whichever wrapped call was open when it started.

Spans live in memory as ``[name, start, end, parent, rep, trial]`` lists
(``parent`` is an index into the span list, -1 for none; ``trial`` counts
``generate_topology`` calls within the current ``run_experiment``, which
every recipe makes once per trial-point).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import pkgutil
from time import perf_counter

# layer (package module) -> wrapped public functions
SPANS = {
    "scenario": ("generate_topology", "compute_large_scale"),
    "pilot_scheduling": ("psa",),
    "channel": ("estimation_coeffs", "draw_fast_fading", "simulate_pilot_phase", "mmse_estimate"),
    "receivers": ("select_cancellation", "rate_coeffs", "rate_lower_bounds", "bound_sinrs",
                  "instantaneous_sinr_cell", "instantaneous_sinr_d2d", "pzf_filter"),
    "power_control": ("jdpc", "dpcc", "dpcd"),
    "harness": ("run_experiment",),
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]

# Counts taken from return values and raised errors; all repeat exactly at
# a fixed seed except the jdpc wall-time percentiles.
COUNT_METRICS = [
    ("power_control.dpcd.iterations_p50", "count"),
    ("power_control.dpcd.iterations_p90", "count"),
    ("power_control.dpcd.iterations_max", "count"),
    ("power_control.dpcd.iterations_total", "count"),
    ("power_control.dpcc.iterations_p50", "count"),
    ("power_control.dpcc.iterations_p90", "count"),
    ("power_control.jdpc.outer_p50", "count"),
    ("power_control.jdpc.outer_max", "count"),
    ("power_control.jdpc.ms_p50", "ms"),
    ("power_control.jdpc.ms_p90", "ms"),
    ("harness.infeasible_qos", "count"),
    ("harness.infeasible_budget", "count"),
    ("channel.fading_redraws", "count"),
    ("trace.overhead_share", "fraction"),
]
SPAN_METRICS = [(f"{s}.{kind}", unit) for s in SPAN_NAMES
                for kind, unit in (("calls", "count"), ("ms_per_call", "ms"), ("self_share", "fraction"))]
PER_LAYER_METRICS = SPAN_METRICS + COUNT_METRICS


def percentile(values, q):
    """Nearest-rank percentile (0 for no values), exact on integer counts."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        import d2dmimo
        from d2dmimo.power_control import InfeasibleBudgetError

        self._infeasible_budget_error = InfeasibleBudgetError
        self.spans = []
        self._stack = []
        self.rep = -1
        self._trial = -1
        self.dpcd_iterations = []
        self.dpcc_iterations = []
        self.jdpc_outer = []
        self.infeasible_qos = 0
        self.infeasible_budget = 0

        self._modules = [d2dmimo] + [importlib.import_module(f"d2dmimo.{info.name}")
                                     for info in pkgutil.iter_modules(d2dmimo.__path__)]
        # (function name, original, wrapper); a function a later version of the
        # package no longer has is skipped, and its span reports zero calls.
        self._wrapped = []
        for layer, fns in SPANS.items():
            home = importlib.import_module(f"d2dmimo.{layer}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is not None:
                    self._wrapped.append((fn, original, self._wrap(f"{layer}.{fn}", original)))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "harness.run_experiment":
                self._trial = -1
            elif name == "scenario.generate_topology":
                self._trial += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, self._trial]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._infeasible_budget_error:
                if name == "power_control.dpcd":
                    self.infeasible_budget += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name, result):
        if name == "power_control.dpcd":
            self.dpcd_iterations.append(result.iterations)
        elif name == "power_control.dpcc":
            self.dpcc_iterations.append(result.iterations)
            if not result.feasible:
                self.infeasible_qos += 1
        elif name == "power_control.jdpc":
            self.jdpc_outer.append(result.outer_iterations)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package-level reference to a wrapped function."""
        patches = []
        try:
            for fn, original, wrapper in self._wrapped:
                for mod in self._modules:
                    if vars(mod).get(fn) is original:
                        setattr(mod, fn, wrapper)
                        patches.append((mod, fn, original))
            yield
        finally:
            for mod, fn, original in reversed(patches):
                setattr(mod, fn, original)

    def metrics(self, traced_wall_s):
        """Every per-layer metric except trace.overhead_share, which the
        caller measures; spans with no calls report zeros."""
        inclusive = {s: 0.0 for s in SPAN_NAMES}
        self_time = dict(inclusive)
        calls = {s: 0 for s in SPAN_NAMES}
        jdpc_ms = []
        fading_trials = set()
        for name, start, end, parent, rep, trial in self.spans:
            dur = end - start
            inclusive[name] += dur
            self_time[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= dur
            if name == "power_control.jdpc":
                jdpc_ms.append(dur * 1e3)
            elif name == "channel.draw_fast_fading":
                fading_trials.add((rep, trial))
        out = {}
        for s in SPAN_NAMES:
            out[f"{s}.calls"] = calls[s]
            out[f"{s}.ms_per_call"] = 1e3 * inclusive[s] / calls[s] if calls[s] else 0.0
            out[f"{s}.self_share"] = self_time[s] / traced_wall_s if calls[s] else 0.0
        out.update({
            "power_control.dpcd.iterations_p50": percentile(self.dpcd_iterations, 50),
            "power_control.dpcd.iterations_p90": percentile(self.dpcd_iterations, 90),
            "power_control.dpcd.iterations_max": max(self.dpcd_iterations, default=0),
            "power_control.dpcd.iterations_total": sum(self.dpcd_iterations),
            "power_control.dpcc.iterations_p50": percentile(self.dpcc_iterations, 50),
            "power_control.dpcc.iterations_p90": percentile(self.dpcc_iterations, 90),
            "power_control.jdpc.outer_p50": percentile(self.jdpc_outer, 50),
            "power_control.jdpc.outer_max": max(self.jdpc_outer, default=0),
            "power_control.jdpc.ms_p50": percentile(jdpc_ms, 50),
            "power_control.jdpc.ms_p90": percentile(jdpc_ms, 90),
            "harness.infeasible_qos": self.infeasible_qos,
            "harness.infeasible_budget": self.infeasible_budget,
            # draws beyond the first of each Monte Carlo trial-point
            "channel.fading_redraws": calls["channel.draw_fast_fading"] - len(fading_trials),
        })
        return out
