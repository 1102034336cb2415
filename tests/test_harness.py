import copy
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo import channel, harness, power_control, receivers
from d2dmimo.cli import main
from d2dmimo.receivers import bound_sinrs, rate_lower_bounds
from d2dmimo.scenario import DRAW_FIELDS, SystemConfig, trial_seed
from d2dmimo.power_control import SolverError, dpcc, dpcd
from d2dmimo.harness import (ExperimentSpec, SpecError, apply_sweep, load_spec, run_experiment,
                             spec_from_dict, validate_spec, convergence_traces, _solve_jdpc)


SPECS = Path(__file__).resolve().parent.parent / "specs"


def desk_config(**kw):
    base = dict(n_cu=3, n_d2d=6, bs_antennas=32, d2drx_antennas=4,
                pilot_len=6, coherence_len=40, pzf_bs=(2, 1), pzf_d2d=(1, 1),
                sinr_target=0.5, rng_seed=99)
    base.update(kw)
    return SystemConfig(**base)


def tiny_spec(**kw):
    base = dict(experiment="fig2", sweep_variable="pilot_len", sweep_values=[5, 6],
                trials=4, config=desk_config(), metrics=["sum_se_d2d_lb"])
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_unknown_experiment(self):
        with pytest.raises(SpecError, match="experiment"):
            validate_spec(tiny_spec(experiment="fig99"))

    def test_unknown_sweep_variable(self):
        with pytest.raises(SpecError, match="sweep.variable"):
            validate_spec(tiny_spec(sweep_variable="bogus_field"))

    def test_bad_trials(self):
        for trials in (0, True):
            with pytest.raises(SpecError, match="trials"):
                validate_spec(tiny_spec(trials=trials))

    def test_written_sweep_values_must_be_numbers(self, tmp_path):
        # the CSV's sweep column holds one number per point; in memory, a PZF sweep runs
        spec = tiny_spec(sweep_variable="pzf_bs", sweep_values=[(2, 1), (1, 1)], trials=2)
        rows, _ = run_experiment(spec)
        assert [r.sweep for r in rows] == [(2, 1), (1, 1)]
        spec.output = str(tmp_path / "pzf.csv")
        with pytest.raises(SpecError, match=r"sweep.values: value \(2, 1\) is not a finite number"):
            run_experiment(spec)
        assert list(tmp_path.iterdir()) == []

    def test_invalid_sweep_value(self):
        with pytest.raises(SpecError, match="sweep.values"):
            validate_spec(tiny_spec(sweep_values=[5, 200]))   # tau > N + K

    @pytest.mark.parametrize("experiment", ["fig2", "fig7"])
    def test_swept_config_needs_positive_array_gain(self, experiment):
        # at M = 3, pilot_len 4 leaves (m_c, m_d) = (0, 0) and pilot_len 6
        # leaves (0, 2), where m_d alone spends every degree of freedom
        config = desk_config(d2drx_antennas=3, pzf_d2d=(0, 2))
        spec = tiny_spec(experiment=experiment, metrics=None, sweep_values=[4, 6], config=config)
        with pytest.raises(SpecError, match=r"sweep.values: value 6: need d2drx_antennas > m_c\+m_d\+1"):
            validate_spec(spec)
        validate_spec(tiny_spec(experiment=experiment, metrics=None, sweep_values=[4], config=config))
        validate_spec(tiny_spec(experiment="fig3", metrics=None, sweep_values=[4, 6], config=config))

    def test_metrics_must_match_pipeline(self):
        with pytest.raises(SpecError, match="metrics"):
            validate_spec(tiny_spec(metrics=["sum_mse_psa"]))

    @pytest.mark.parametrize("metrics", [["sum_se_cell_lb", "sum_se_cell_lb"], "sum_se_cell_lb",
                                         ("sum_se_cell_lb",), ["sum_se_cell_lb", 1]])
    def test_metrics_must_be_a_list_of_distinct_names(self, metrics):
        # a repeated name would pool its trials twice into one row
        with pytest.raises(SpecError, match="metrics"):
            validate_spec(tiny_spec(metrics=metrics))

    def test_metrics_must_not_be_empty(self):
        # an empty list would run every point's pipeline and write no rows
        with pytest.raises(SpecError) as err:
            validate_spec(tiny_spec(metrics=[]))
        assert str(err.value) == "metrics: must be a nonempty list or null"
        with pytest.raises(SpecError, match="metrics: must be a nonempty list"):
            spec_from_dict({**tiny_spec().to_dict(), "metrics": []})

    def test_output_must_be_a_path_string(self):
        with pytest.raises(SpecError, match="output"):
            spec_from_dict({**tiny_spec().to_dict(), "output": 5})

    def test_from_dict_roundtrip_and_field_errors(self):
        doc = tiny_spec().to_dict()
        spec = spec_from_dict(doc)
        assert spec.experiment == "fig2"
        with pytest.raises(SpecError, match="sweep"):
            spec_from_dict({"experiment": "fig2", "trials": 1})
        with pytest.raises(SpecError, match="config"):
            spec_from_dict({"experiment": "fig2", "trials": 1,
                            "sweep": {"variable": "pilot_len", "values": [5]},
                            "config": {"n_cu": -3}})
        with pytest.raises(SpecError, match="bogus"):
            spec_from_dict({**doc, "bogus": 1})


SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))}

# edits of specs/fig1.json: (path of the edited field, its new value, the error)
MALFORMED = {
    "values not a list": (("sweep", "values"), 8, "sweep.values: must be a nonempty list"),
    "values a string": (("sweep", "values"), "64", "sweep.values: must be a nonempty list"),
    "values an object": (("sweep", "values"), {"a": 1}, "sweep.values: must be a nonempty list"),
    "experiment a list": (("experiment",), ["fig1"], "experiment: must be a string (got ['fig1'])"),
    "variable a list": (("sweep", "variable"), ["bs_antennas"],
                        "sweep.variable: must be a string (got ['bs_antennas'])"),
    "three PZF degrees": (("config", "pzf_bs"), [1, 2, 3],
                          "config: pzf_bs must be a list of two integers (got [1, 2, 3])"),
    "PZF degrees not a list": (("config", "pzf_d2d"), 3, "config: pzf_d2d must be a list of two integers (got 3)"),
    "unknown sweep field": (("sweep", "step"), 2, "sweep.step: unknown field"),
    "config not an object": (("config",), [1], "config: must be an object (got [1])"),
}


def edited(doc, path, value):
    """A deep copy of doc with the field at path (keys and list indices) set to value."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def field_paths(doc, prefix=()):
    """The paths of every field of a JSON document, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_document_raises_a_spec_error(case, tmp_path, capsys):
    path, value, message = MALFORMED[case]
    doc = edited(SHIPPED["fig1"], path, value)
    with pytest.raises(SpecError) as err:
        spec_from_dict(doc)
    assert str(err.value) == message
    # the CLI prints one line and exits 1
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(doc))
    assert main(["validate", str(file)]) == 1
    assert capsys.readouterr().err == f"spec error: {message}\n"


# edits of the ExperimentSpec loaded from specs/fig1.json: (field, its new value, the error)
PYTHON_MALFORMED = {
    "experiment a list": ("experiment", ["fig1"], "experiment: must be a string (got ['fig1'])"),
    "variable a list": ("sweep_variable", ["bs_antennas"],
                        "sweep.variable: must be a string (got ['bs_antennas'])"),
    "values a number": ("sweep_values", 64, "sweep.values: must be a nonempty list"),
    "values a string": ("sweep_values", "64", "sweep.values: must be a nonempty list"),
    "values a dict": ("sweep_values", {"a": 64}, "sweep.values: must be a nonempty list"),
    "config a dict": ("config", {"n_cu": 5}, "config: must be a SystemConfig (got {'n_cu': 5})"),
}


@pytest.mark.parametrize("case", sorted(PYTHON_MALFORMED))
def test_malformed_python_spec_raises_a_spec_error(case):
    name, value, message = PYTHON_MALFORMED[case]
    spec = load_spec(SPECS / "fig1.json")
    setattr(spec, name, value)
    spec.output = None
    for check in (validate_spec, run_experiment):
        with pytest.raises(SpecError) as err:
            check(spec)
        assert str(err.value) == message


@pytest.mark.parametrize("pair", [5, (1, 2, 3), (1,), [1, 2, 3]], ids=repr)
@pytest.mark.parametrize("name", ["pzf_bs", "pzf_d2d"])
def test_pzf_degrees_must_be_a_pair(name, pair):
    with pytest.raises(ValueError) as err:
        SystemConfig(**{name: pair})
    assert str(err.value) == f"{name} must be a list of two integers (got {pair!r})"


JSON = st.recursive(st.none() | st.booleans() | st.integers(-10, 10_000) | st.floats() | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                                max_size=3),
                    max_leaves=6)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_edit_of_a_shipped_spec_loads_or_raises_a_spec_error(data):
    doc = SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]
    doc = edited(doc, data.draw(st.sampled_from(list(field_paths(doc)))), data.draw(JSON))
    try:
        spec_from_dict(doc)
    except SpecError:
        pass


class TestApplySweep:
    def test_plain_field_replacement(self):
        cfg = apply_sweep(desk_config(), "coherence_len", 60)
        assert cfg.coherence_len == 60

    def test_pzf_clamped_when_pilot_len_shrinks(self):
        cfg = apply_sweep(desk_config(pzf_bs=(2, 3), pzf_d2d=(1, 2), pilot_len=9,
                                      d2drx_antennas=8),
                          "pilot_len", 4)
        assert cfg.pzf_bs == (2, 1)
        assert cfg.pzf_d2d == (1, 0)


class TestRunExperiment:
    def test_deterministic_csv_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows1, man1 = run_experiment(tiny_spec(trials=1, output=str(out1)))
        rows2, man2 = run_experiment(tiny_spec(trials=1, output=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()
        assert man1["spec_hash"] != ""
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["trials"] == 1

    def test_sweep_order_invariance(self):
        rows_fwd, _ = run_experiment(tiny_spec(sweep_values=[5, 6]))
        rows_rev, _ = run_experiment(tiny_spec(sweep_values=[6, 5]))
        fwd = {(r.sweep, r.metric): r.mean for r in rows_fwd}
        rev = {(r.sweep, r.metric): r.mean for r in rows_rev}
        assert fwd == rev

    def test_workers_value_identical(self):
        spec = tiny_spec(trials=6)
        rows1, _ = run_experiment(spec, workers=1)
        rows2, _ = run_experiment(spec, workers=2)
        for a, b in zip(rows1, rows2):
            assert a.metric == b.metric and a.sweep == b.sweep
            assert abs(a.mean - b.mean) <= 1e-12 * max(1.0, abs(a.mean))
            assert abs(a.ci95 - b.ci95) <= 1e-12 * max(1.0, abs(a.ci95))

    @pytest.mark.parametrize("trials,pools", [(2, [2]), (1, [])])
    def test_a_pool_never_forks_more_workers_than_tasks(self, monkeypatch, tmp_path, trials, pools):
        # a fork-started pool launches all its workers at the first submit;
        # an in-process stand-in records the sizes asked for, so no process starts
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = tiny_spec(trials=trials)
        for workers in (1, 64):
            spec.output = str(tmp_path / f"w{workers}" / "fig2.csv")
            run_experiment(spec, workers=workers)
        assert sizes == pools
        assert (tmp_path / "w1" / "fig2.csv").read_bytes() == (tmp_path / "w64" / "fig2.csv").read_bytes()

    def test_import_loads_no_process_pool(self):
        # a one-worker run never starts processes, so the package leaves the
        # process-pool modules unloaded until a run asks for workers
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        modules = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
        probe = f"import sys, d2dmimo; print([m for m in {modules!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        assert done.stdout.strip() == "[]"

    def test_ci_shrinks_with_sqrt_trials(self):
        spec_small = tiny_spec(sweep_values=[6], trials=64)
        spec_big = tiny_spec(sweep_values=[6], trials=256)
        r_small, _ = run_experiment(spec_small)
        r_big, _ = run_experiment(spec_big)
        ratio = r_small[0].ci95 / r_big[0].ci95
        assert 1.3 <= ratio <= 3.0   # nominal 2.0, wide statistical slack

    def test_mse_recipe_scheduler_ordering(self):
        spec = ExperimentSpec(
            experiment="fig3", sweep_variable="pilot_len", sweep_values=[4, 5, 6],
            trials=30, config=desk_config(pzf_bs=(1, 1), pzf_d2d=(1, 0)),
            metrics=["sum_mse_es", "sum_mse_psa", "sum_mse_rps", "sum_mse_lb"],
        )
        rows, _ = run_experiment(spec)
        table = {(r.sweep, r.metric): r.mean for r in rows}
        for tau in (4, 5, 6):
            assert table[(tau, "sum_mse_lb")] <= table[(tau, "sum_mse_es")] + 1e-12
            assert table[(tau, "sum_mse_es")] <= table[(tau, "sum_mse_psa")] + 1e-12
            assert table[(tau, "sum_mse_psa")] <= table[(tau, "sum_mse_rps")] + 1e-9

    def test_fig3_default_metrics_include_es_when_small(self):
        spec = tiny_spec(experiment="fig3", sweep_values=[5, 6], metrics=None)
        assert "sum_mse_es" in spec.resolved_metrics()
        big = tiny_spec(experiment="fig3", config=desk_config(n_d2d=6),
                        sweep_values=[9], metrics=None)
        # 6^6 = 46656 is within the guard; force it beyond via many pilots
        huge = ExperimentSpec(experiment="fig3", sweep_variable="pilot_len",
                              sweep_values=[23], trials=1,
                              config=desk_config(n_d2d=20, pilot_len=10))
        assert "sum_mse_es" not in huge.resolved_metrics()

    def test_fig3_search_space_follows_each_swept_config(self):
        doc = json.loads((SPECS / "fig3.json").read_text())
        assert spec_from_dict(doc).resolved_metrics() == [
            "sum_mse_psa", "sum_mse_es", "sum_mse_rps", "sum_mse_lb"]
        # 3^6 = 729 assignments at every antenna count
        antennas = spec_from_dict({**doc, "sweep": {"variable": "bs_antennas", "values": [64, 128]}})
        assert antennas.search_spaces() == [729, 729]
        assert "sum_mse_es" in antennas.resolved_metrics()
        # 5^12 = 244M assignments at K = 12, tau = 10: dropped by default, rejected when asked for
        pairs = {**doc, "config": {**doc["config"], "pilot_len": 10},
                 "sweep": {"variable": "n_d2d", "values": [6, 12]}}
        assert "sum_mse_es" not in spec_from_dict(pairs).resolved_metrics()
        with pytest.raises(SpecError, match="sum_mse_es"):
            spec_from_dict({**pairs, "metrics": ["sum_mse_psa", "sum_mse_es"]})

    def test_jdpc_recipe_reports_infeasible_fraction(self):
        spec = ExperimentSpec(
            experiment="fig9", sweep_variable="sinr_target", sweep_values=[0.2, 1e9],
            trials=5, config=desk_config(),
        )
        rows, _ = run_experiment(spec)
        frac = {r.sweep: r.mean for r in rows if r.metric == "infeasible_fraction"}
        assert frac[1e9] == 1.0
        assert 0.0 <= frac[0.2] <= 1.0
        d2d = [r for r in rows if r.metric == "sum_se_d2d" and r.sweep == 1e9]
        assert d2d[0].trials == 0   # no feasible draws contribute

    @pytest.mark.parametrize("name,variable,values", [
        ("fig7", "n_d2d", [10, 15]),                        # a draw per sweep point
        ("fig9", "sinr_target", [0.1, 0.2, 0.372, 0.7, 1.3]),   # one draw for all points
        ("fig6", "d2d_max_dist", [25.0, 100.0, 200.0]),     # a draw per point, all of equal K
    ], ids=["fig7-n_d2d", "fig9-sinr_target", "fig6-d2d_max_dist"])
    def test_jdpc_csv_bytes_independent_of_workers(self, tmp_path, name, variable, values):
        # 16 trials: one joint solve of 16 trials at every point, or chunks of 2 with two workers
        spec = ExperimentSpec(experiment=name, sweep_variable=variable, sweep_values=values,
                              trials=16, config=SystemConfig(sinr_target=0.372, rng_seed=5))
        for workers in (1, 2):
            spec.output = str(tmp_path / f"w{workers}" / f"{name}.csv")
            run_experiment(spec, workers=workers)
        assert (tmp_path / "w1" / f"{name}.csv").read_bytes() == (tmp_path / "w2" / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("name,trials,sweep", [("fig1", 16, None), ("fig2", 16, None),
                                                   ("fig3", 12, [7, 8, 9, 10, 11])])
    def test_csv_bytes_independent_of_workers(self, tmp_path, name, trials, sweep):
        # one stack per sweep point, or chunks of 2 (fig3: 1) with two workers
        spec = load_spec(SPECS / f"{name}.json")
        spec.trials = trials
        if sweep is not None:
            spec.sweep_values = sweep   # fig3's full sweep: exhaustive search over up to 6^6 assignments
        for workers in (1, 2):
            spec.output = str(tmp_path / f"w{workers}" / f"{name}.csv")
            run_experiment(spec, workers=workers)
        assert (tmp_path / "w1" / f"{name}.csv").read_bytes() == (tmp_path / "w2" / f"{name}.csv").read_bytes()

    def test_solver_failure_names_the_trial(self, monkeypatch):
        # first-round WMMSE iterations of trials 0-3: 442, QoS-infeasible, 5376, 9
        monkeypatch.setattr(power_control, "dpcd_stack",
                            functools.partial(power_control.dpcd_stack, max_iter=1000))
        spec = ExperimentSpec(experiment="fig7", sweep_variable="n_d2d", sweep_values=[10],
                              trials=4, config=SystemConfig(sinr_target=0.372, rng_seed=777))
        with pytest.raises(RuntimeError) as err:
            run_experiment(spec)
        assert str(err.value) == (f"n_d2d=10, trial 2 (seed {trial_seed(777, 2)}): "
                                  "dpcd did not converge in 1000 iterations")
        # solved in one joint solve with the first point's draw group, whose
        # trials need at most 518 iterations a round, the failing row at the
        # later sweep value is named by that value
        spec.sweep_values = [15, 10]
        with pytest.raises(RuntimeError) as later:
            run_experiment(spec)
        assert str(later.value) == str(err.value)

    def test_failing_shared_draw_names_the_first_point_of_its_group(self):
        # no D2D-Rx fits 100 m from its Tx inside a 10 m cell
        spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128],
                              trials=3, config=SystemConfig(cell_side=10.0, min_dist=100.0,
                                                            d2d_max_dist=100.0, rng_seed=11))
        with pytest.raises(RuntimeError) as err:
            run_experiment(spec)
        assert str(err.value) == (f"bs_antennas=64, trial 0 (seed {trial_seed(11, 0)}): "
                                  "could not place D2D-Rx 0 inside the cell after 10000 draws")

    def test_failure_at_one_point_of_a_shared_draw_names_that_point(self, monkeypatch):
        def bounds(rc, pp, cfg):
            if cfg.bs_antennas == 128:
                raise SolverError("bound failed", [1])
            return rate_lower_bounds(rc, pp, cfg)

        monkeypatch.setattr(harness, "rate_lower_bounds", bounds)
        spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128, 256],
                              trials=3, config=SystemConfig(rng_seed=11), metrics=["sum_se_cell_lb"])
        with pytest.raises(RuntimeError) as err:
            run_experiment(spec)
        assert str(err.value) == f"bs_antennas=128, trial 1 (seed {trial_seed(11, 1)}): bound failed"

    def test_bounds_recipe_with_monte_carlo(self):
        spec = ExperimentSpec(
            experiment="fig1", sweep_variable="bs_antennas", sweep_values=[16, 32],
            trials=8, config=desk_config(),
        )
        rows, _ = run_experiment(spec)
        table = {(r.sweep, r.metric): r.mean for r in rows}
        for b in (16, 32):
            assert table[(b, "sum_se_cell")] > 0
            assert table[(b, "sum_se_cell_lb")] > 0
        # array gain: both simulated and bound grow with antennas
        assert table[(32, "sum_se_cell_lb")] > table[(16, "sum_se_cell_lb")]
        assert table[(32, "sum_se_cell")] > table[(16, "sum_se_cell")]


def test_no_config_is_built_per_trial(monkeypatch):
    # a task carries its points' configs, and chunks read the trial seeds
    built = []
    init = SystemConfig.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    specs = [ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[16, 32, 64],
                            trials=3, config=desk_config()),
             ExperimentSpec(experiment="fig7", sweep_variable="n_d2d", sweep_values=[4, 6],
                            trials=3, config=desk_config())]
    monkeypatch.setattr(SystemConfig, "__init__", spy)
    counts = []
    for trials in (3, 12):
        for spec in specs:
            spec.trials = trials
            built.clear()
            run_experiment(spec)
            counts.append(len(built))
    assert counts[:2] == counts[2:]


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig7"])
def test_a_validation_builds_each_point_config_once(monkeypatch, name):
    # validate_spec builds each sweep point's config once, checks it and
    # reads the search spaces from it, and run_experiment runs on those
    built = []
    init = SystemConfig.__post_init__

    def spy(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", spy)
    spec = load_spec(SPECS / f"{name}.json")
    assert len(built) == 1 + len(spec.sweep_values)   # the base config, then each point's
    spec.trials, spec.output = 1, None
    for check in (validate_spec, run_experiment):
        built.clear()
        check(spec)
        assert len(built) == len(spec.sweep_values), check.__name__


# valid values of every SystemConfig field but rng_seed on fig2's config;
# pilot_len 8 clamps pzf_bs, and 12 clamps neither PZF pair
FIELD_VALUES = {
    "n_cu": [5, 4], "n_d2d": [20, 15], "bs_antennas": [128, 64], "d2drx_antennas": [8, 6],
    "pilot_len": [10, 8, 12], "coherence_len": [50, 100], "noise_power": [1e-10, 1e-9],
    "max_power_cu": [50.0, 20.0], "max_power_d2d": [50.0, 20.0], "sinr_target": [3.2, 1.0],
    "pzf_bs": [[4, 5], [2, 3]], "pzf_d2d": [[1, 2], [1, 1]], "cell_side": [1000.0, 500.0],
    "d2d_max_dist": [100.0, 50.0], "pathloss_exp": [3.7, 3.0], "shadow_sigma_db": [8.0, 4.0],
    "min_dist": [1.0, 5.0], "tol_power": [1e-3, 1e-4], "tol_wmmse": [1e-3, 1e-4],
}


def test_field_values_cover_every_sweepable_field():
    assert set(FIELD_VALUES) == set(SystemConfig.__dataclass_fields__) - {"rng_seed"}


def row_bits(rows):
    """The rows with their means and CIs in hex, so that NaN rows compare."""
    return [(r.sweep, r.metric, float(r.mean).hex(), float(r.ci95).hex(), r.trials) for r in rows]


# (recipe, metrics, trials, config changes): the rate bounds, the Monte Carlo
# rates of both receiver sides, and joint power control at fig7's target,
# where some of the two trials are feasible at every point but pilot_len=8
# and sinr_target=3.2
SWEEP_RECIPES = [("fig2", ["sum_se_cell_lb", "sum_se_d2d_lb"], 3, {}),
                 ("fig1", list(harness._METRICS["bounds_mc"]), 2, {}),
                 ("fig9", ["sum_se_d2d", "infeasible_fraction"], 2, {"sinr_target": 0.372})]


@pytest.mark.parametrize("variable", sorted(FIELD_VALUES))
def test_sweep_gives_the_rows_of_its_points_run_alone(variable):
    # points that share a draw must draw the same gains alone, and points
    # that share a schedule the same schedule: a field missing from
    # DRAW_FIELDS or SCHEDULE_FIELDS would hand the second point the first's
    base = load_spec(SPECS / "fig2.json")
    for experiment, metrics, trials, changes in SWEEP_RECIPES:
        spec = ExperimentSpec(experiment=experiment, sweep_variable=variable, sweep_values=[], trials=trials,
                              config=replace(base.config, **changes), metrics=metrics)
        alone = []
        for value in FIELD_VALUES[variable]:
            spec.sweep_values = [value]
            alone.append(run_experiment(spec)[0])
        spec.sweep_values = FIELD_VALUES[variable]
        assert row_bits(run_experiment(spec)[0]) == row_bits(sum(alone, [])), experiment
        if variable in DRAW_FIELDS and experiment == "fig2":
            assert [r.mean for r in alone[0]] != [r.mean for r in alone[1]]


def count_calls(monkeypatch, names):
    """{name: 0} for harness functions names, each counting the calls made
    through the harness's module-level name."""
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    return calls


@pytest.mark.parametrize("budget", [harness._STACK_BYTES, 12_600], ids=["one chunk", "chunks of 3 at K=20"])
@pytest.mark.parametrize("variable,values,groups", [("bs_antennas", [64, 128, 256], 1),
                                                    ("n_d2d", [10, 15, 20], 3)])
def test_each_trial_is_drawn_once_per_draw_group(monkeypatch, budget, variable, values, groups):
    monkeypatch.setattr(harness, "_STACK_BYTES", budget)
    calls = count_calls(monkeypatch, ["generate_topology", "compute_large_scale"])
    spec = ExperimentSpec(experiment="fig1", sweep_variable=variable, sweep_values=values, trials=7,
                          config=SystemConfig(rng_seed=3), metrics=["sum_se_cell_lb"])
    run_experiment(spec)
    sizes = [harness._stack_size(apply_sweep(spec.config, variable, v), "analytic") for v in values[:groups]]
    assert calls == {"generate_topology": 7 * groups,
                     "compute_large_scale": sum(-(-7 // size) for size in sizes)}
    assert budget == harness._STACK_BYTES or calls["compute_large_scale"] > groups


SCHEDULE_LAYERS = ["psa", "estimation_coeffs", "select_cancellation", "monte_carlo_plan", "rate_coeffs"]


@pytest.mark.parametrize("budget", [harness._STACK_BYTES, 12_600], ids=["one chunk", "chunks of 3 at K=20"])
@pytest.mark.parametrize("experiment,variable,values,per_chunk", [
    ("fig1", "bs_antennas", [64, 128, 256], [1, 1, 1, 1, 3]),
    ("fig9", "sinr_target", [0.5, 1.0, 2.0], [1, 1, 1, 0, 1]),
    ("fig1", "pilot_len", [8, 10, 12], [3, 3, 3, 3, 3]),
], ids=["bs_antennas", "sinr_target", "pilot_len"])
def test_points_that_share_a_schedule_run_its_layers_once_per_chunk(
        monkeypatch, budget, experiment, variable, values, per_chunk):
    # per_chunk: calls of SCHEDULE_LAYERS in each chunk, which draws its
    # trials' large-scale gains once
    monkeypatch.setattr(harness, "_STACK_BYTES", budget)
    calls = count_calls(monkeypatch, SCHEDULE_LAYERS + ["compute_large_scale"])
    spec = ExperimentSpec(experiment=experiment, sweep_variable=variable, sweep_values=values, trials=7,
                          config=SystemConfig(rng_seed=3), metrics=harness.EXPERIMENTS[experiment][1])
    run_experiment(spec)
    chunks = calls.pop("compute_large_scale")
    assert calls == {name: n * chunks for name, n in zip(SCHEDULE_LAYERS, per_chunk)}
    assert budget == harness._STACK_BYTES or chunks > 1


def test_group_powers_run_twice_per_schedule(monkeypatch):
    # once for the pilot column powers (estimation_coeffs), once for the
    # cancellation ranking (select_cancellation); the Monte Carlo plan reads
    # the former
    calls, original = [], channel.group_powers
    for module in (channel, receivers):
        monkeypatch.setattr(module, "group_powers", lambda *args: calls.append(1) or original(*args))
    chunks = count_calls(monkeypatch, ["compute_large_scale"])
    spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128, 256],
                          trials=7, config=SystemConfig(rng_seed=3))
    run_experiment(spec)
    assert len(calls) == 2 * chunks["compute_large_scale"]


def test_a_pzf_clamp_splits_the_schedule(monkeypatch):
    # at B = 8 apply_sweep clamps pzf_bs from (4, 5) to (1, 5), which leaves
    # the BS one degree of freedom
    calls = count_calls(monkeypatch, SCHEDULE_LAYERS[:3])
    points = [apply_sweep(SystemConfig(rng_seed=3), "bs_antennas", b) for b in (64, 8, 128)]
    assert [cfg.pzf_bs for cfg in points] == [(4, 5), (1, 5), (4, 5)]
    ls = harness._large_scale(points[0], [trial_seed(3, t) for t in range(4)])
    stacks = list(harness._scenario_pipeline(points, ls))
    assert calls == dict.fromkeys(SCHEDULE_LAYERS[:3], 2)
    assert all(a is b for a, b in zip(stacks[0][:4], stacks[2][:4]))
    assert [sets.bs_cancel_cu.shape[-1] for _, _, _, sets, _ in stacks] == [4, 1, 4]


def test_a_clamped_point_gives_the_rows_it_gives_alone():
    # fig1's B = 8 point runs at pzf_bs (1, 5), as above
    spec = load_spec(SPECS / "fig1.json")
    spec.trials, spec.output = 2, None
    spec.sweep_values = [64, 8]
    rows = run_experiment(spec)[0]
    spec.sweep_values = [8]
    alone = run_experiment(spec)[0]
    assert row_bits([r for r in rows if r.sweep == 8]) == row_bits(alone)


# configs at the limits a SystemConfig accepts, as changes to desk_config
VALIDATE_LIMITS = {
    "K=1, tau=N+1, m_d=0": dict(n_d2d=1, pilot_len=4, pzf_d2d=(1, 0)),
    "B=b_c+b_d+2, M=m_c+m_d+2": dict(bs_antennas=5, d2drx_antennas=4),
    "min_dist=d2d_max_dist": dict(min_dist=100.0, d2d_max_dist=100.0),
    "0 dB shadowing": dict(shadow_sigma_db=0.0),
    "20 dB shadowing": dict(shadow_sigma_db=20.0),
}
# recipe -> (swept field, run at the config's own value; metrics)
LIMIT_RECIPES = {"fig1": ("bs_antennas", list(harness._METRICS["bounds_mc"])),
                 "fig3": ("pilot_len", None), "fig7": ("n_d2d", None)}


@pytest.mark.parametrize("recipe", sorted(LIMIT_RECIPES))
@pytest.mark.parametrize("limit", sorted(VALIDATE_LIMITS))
def test_recipes_at_the_validate_limits(limit, recipe):
    # every row is finite, or NaN where no trial was feasible; a failure
    # must be one of the documented ones (exit 1 or 2 from the CLI)
    cfg = desk_config(**VALIDATE_LIMITS[limit])
    variable, metrics = LIMIT_RECIPES[recipe]
    spec = ExperimentSpec(experiment=recipe, sweep_variable=variable,
                          sweep_values=[getattr(cfg, variable)], trials=6, config=cfg, metrics=metrics)
    try:
        rows, _ = run_experiment(spec)
    except (SpecError, RuntimeError) as exc:
        assert isinstance(exc, SpecError) or isinstance(exc.__cause__, SolverError)
        return
    assert rows
    for r in rows:
        if r.trials == 0:
            assert math.isnan(r.mean) and math.isnan(r.ci95)
        else:
            assert math.isfinite(r.mean) and math.isfinite(r.ci95), r


@pytest.mark.parametrize("n_d2d, gamma", [(10, 0.372), (20, 0.372), (20, 1.3)])
def test_joint_power_control_runs_one_single_trial_dpcc_per_running_trial_and_round(
        monkeypatch, n_d2d, gamma):
    # perfbench's traced run counts QoS-infeasible trials from dpcc's scalar
    # feasible flag and checks that count against the infeasible rows
    calls = []
    solo_dpcc = power_control.dpcc

    def spy(rc, *args, **kwargs):
        res = solo_dpcc(rc, *args, **kwargs)
        calls.append((rc.phi_c.ndim, res.feasible))
        return res

    monkeypatch.setattr(power_control, "dpcc", spy)
    cfg = SystemConfig(n_d2d=n_d2d, sinr_target=gamma, rng_seed=12345)
    _, _, solved = _solve_jdpc([[cfg]], [trial_seed(12345, t) for t in range(30)])[0]
    infeasible = np.count_nonzero(~solved.feasible)
    assert 0 < infeasible < len(solved.feasible)
    assert all(ndim == 1 and type(feasible) is bool for ndim, feasible in calls)
    assert len(calls) == solved.outer_iterations.sum() > len(solved.feasible)
    assert sum(not feasible for _, feasible in calls) == infeasible


def per_trial_jdpc_columns(rc, prefactor, res, metrics):
    """A point's columns formed trial by trial: a QoS-infeasible trial
    reports only infeasible_fraction, a feasible one also its outer rounds
    and the sum SEs of its own bound SINRs at its final powers."""
    trials = []
    for r in range(len(res.feasible)):
        row = res[r]
        if not row.feasible:
            trials.append({"infeasible_fraction": 1.0})
            continue
        eta_c, eta_d = bound_sinrs(rc[r], row.q_s, row.p_s)
        trials.append({"infeasible_fraction": 0.0, "iterations": float(row.outer_iterations),
                       "sum_se_cell": prefactor * float(np.sum(np.log2(1.0 + eta_c))),
                       "sum_se_d2d": prefactor * float(np.sum(np.log2(1.0 + eta_d)))})
    return {m: [t[m] for t in trials if m in t] for m in metrics}


@pytest.mark.parametrize("group,feasible", [
    ([SystemConfig(n_d2d=10, sinr_target=0.372, rng_seed=777)], [6]),   # fig7 draws
    ([desk_config(), desk_config(sinr_target=50.0)], [4, 0]),           # no feasible trial at 50
], ids=["fig7", "feasible and none"])
def test_chunk_jdpc_columns_are_the_per_trial_metrics(group, feasible):
    seeds = [trial_seed(group[0].rng_seed, t) for t in range(8)]
    metrics = harness._METRICS["jdpc"]
    columns = harness._chunk_jdpc([group], seeds, metrics)
    assert [len(point["iterations"]) for point in columns] == feasible
    for cfg, point in zip(group, columns):
        want = per_trial_jdpc_columns(*_solve_jdpc([[cfg]], seeds)[0], metrics)
        assert all(type(v) is float for m in metrics for v in point[m])
        assert {m: [v.hex() for v in point[m]] for m in metrics} == {
            m: [v.hex() for v in want[m]] for m in metrics}


def test_convergence_traces_exportable(tmp_path):
    cfg = desk_config(rng_seed=4)   # QoS-feasible draw
    traces = convergence_traces(cfg)
    assert traces["feasible"]
    assert [t["iteration"] for t in traces["joint"]] == list(range(1, len(traces["joint"]) + 1))
    objs = [t["objective"] for t in traces["d2d"]]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    path = tmp_path / "traces.json"
    path.write_text(json.dumps(traces))
    assert json.loads(path.read_text())["feasible"] is True


def test_convergence_traces_fallback_traces_trial_0():
    cfg = desk_config(sinr_target=50.0)   # no QoS-feasible draw
    traces = convergence_traces(cfg, max_draws=2)
    assert not traces["feasible"] and traces["trial"] == 0
    (rc,), prefactor, (joint,) = _solve_jdpc([[cfg]], [trial_seed(cfg.rng_seed, 0)])[0]
    assert [t["objective"] for t in traces["joint"]] == joint.trace
    p0 = np.full(cfg.n_d2d, cfg.max_power_d2d)
    q = dpcc(rc, p0, cfg.sinr_target, cfg.max_power_cu, tol=cfg.tol_power).q_s
    d2d = dpcd(rc, q, cfg.sinr_target, cfg.max_power_d2d, tol_wmmse=cfg.tol_wmmse, bisect_rtol=cfg.tol_power)
    assert [t["objective"] for t in traces["d2d"]] == [prefactor * obj for obj in d2d.objective_trace]
