import functools
import json
import re
from pathlib import Path

import pytest

from d2dmimo import power_control
from d2dmimo.cli import main
from d2dmimo.harness import EXPERIMENTS, convergence_traces
from d2dmimo.oracles import ORACLES
from d2dmimo.scenario import SystemConfig, trial_seed

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_spec_doc(**kw):
    cfg = SystemConfig(n_cu=3, n_d2d=6, bs_antennas=16, d2drx_antennas=4,
                       pilot_len=6, coherence_len=40, pzf_bs=(1, 2), pzf_d2d=(1, 1),
                       rng_seed=5)
    doc = {
        "experiment": "fig2",
        "sweep": {"variable": "pilot_len", "values": [5, 6]},
        "trials": 2,
        "config": cfg.to_dict(),
        "metrics": ["sum_se_d2d_lb"],
    }
    doc.update(kw)
    return doc


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def test_validate_shipped_specs():
    paths = sorted((REPO_ROOT / "specs").glob("*.json"))
    for path in paths:
        assert main(["validate", str(path)]) == 0
        assert json.loads(path.read_text())["experiment"] == path.stem
    assert set(EXPERIMENTS) == {path.stem for path in paths}


def test_validate_good_spec(spec_file, capsys):
    assert main(["validate", spec_file(small_spec_doc())]) == 0
    assert "valid" in capsys.readouterr().out


def test_run_writes_csv_and_manifest(spec_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main(["run", spec_file(small_spec_doc()), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sweep,metric,mean,ci95,trials"
    assert len(lines) == 3   # two sweep values x one metric
    manifest = json.loads((tmp_path / "res.manifest.json").read_text())
    assert manifest["experiment"] == "fig2"


def test_seed_override_changes_results(spec_file, tmp_path):
    doc = small_spec_doc()
    out1, out2, out3 = (tmp_path / f"{n}.csv" for n in "abc")
    main(["run", spec_file(doc), "--out", str(out1), "--seed", "1"])
    main(["run", spec_file(doc), "--out", str(out2), "--seed", "2"])
    main(["run", spec_file(doc), "--out", str(out3), "--seed", "1"])
    assert out1.read_text() != out2.read_text()
    assert out1.read_text() == out3.read_text()


def test_trials_override(spec_file, tmp_path):
    out = tmp_path / "t.csv"
    main(["run", spec_file(small_spec_doc()), "--out", str(out), "--trials", "3"])
    assert out.read_text().splitlines()[1].endswith(",3")


def test_unknown_sweep_variable_exits_1(spec_file, capsys):
    doc = small_spec_doc()
    doc["sweep"]["variable"] = "bogus"
    assert main(["run", spec_file(doc)]) == 1
    assert "sweep.variable" in capsys.readouterr().err


@pytest.mark.parametrize("command,seed,extra", [
    ("validate", -3, []), ("run", -3, []),
    ("validate", 1.5, []), ("run", 1.5, []),
    ("run", 5, ["--seed", "-1"]),
])
def test_bad_seed_exits_1(spec_file, capsys, command, seed, extra):
    doc = small_spec_doc()
    doc["config"]["rng_seed"] = seed
    assert main([command, spec_file(doc), *extra]) == 1
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweep_value_that_is_not_a_number_exits_1(spec_file, capsys, command):
    doc = small_spec_doc(sweep={"variable": "pzf_bs", "values": [[1, 2], [2, 1]]})
    assert main([command, spec_file(doc)]) == 1
    assert capsys.readouterr().err == "spec error: sweep.values: value [1, 2] is not a finite number\n"


def test_seed_sweep_exits_1(spec_file, capsys):
    doc = small_spec_doc(sweep={"variable": "rng_seed", "values": [1, 2]})
    assert main(["validate", spec_file(doc)]) == 1
    assert "sweep.variable" in capsys.readouterr().err


def test_trace_writes_convergence_traces(spec_file, tmp_path):
    doc = small_spec_doc(output=str(tmp_path / "res" / "small.csv"))
    assert main(["trace", spec_file(doc), "--seed", "4"]) == 0
    cfg = SystemConfig.from_dict({**doc["config"], "rng_seed": 4})
    written = (tmp_path / "res" / "small.trace.json").read_text()
    assert written == json.dumps(convergence_traces(cfg), indent=2)
    assert main(["trace", spec_file(doc), "--seed", "4", "--out", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t.json").read_text() == written


def test_trace_bad_spec_exits_1(spec_file, tmp_path):
    assert main(["trace", str(tmp_path / "missing.json")]) == 1
    assert main(["trace", spec_file(small_spec_doc(trials=0))]) == 1
    assert main(["trace", spec_file(small_spec_doc())]) == 1   # no output path, no --out


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "spec" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["validate", "/nonexistent/spec.json"]) == 1


@pytest.mark.parametrize("command", ["validate", "run", "trace"])
def test_spec_path_that_is_a_directory_exits_1(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read spec file {tmp_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run", "trace"])
def test_spec_file_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spec error: spec: not valid JSON: ") and err.count("\n") == 1


def test_trace_at_an_unreachable_target_writes_an_empty_d2d_trace(spec_file, tmp_path, capsys):
    # no draw meets gamma = 1000, and trial 0's cellular powers leave the
    # pairs no budget: the joint loop ends that row without a WMMSE pass
    doc = json.loads((REPO_ROOT / "specs" / "fig45.json").read_text())
    doc["config"]["sinr_target"] = 1000.0
    doc["sweep"]["values"] = [1000.0]
    out = tmp_path / "t.json"
    assert main(["trace", spec_file(doc), "--out", str(out)]) == 0
    traces = json.loads(out.read_text())
    assert traces["feasible"] is False and traces["trial"] == 0
    assert traces["d2d"] == [] and traces["cellular"]
    assert "feasible=False" in capsys.readouterr().out


def test_bad_config_field_message(spec_file, capsys):
    doc = small_spec_doc()
    doc["config"]["pilot_len"] = 99
    assert main(["validate", spec_file(doc)]) == 1
    err = capsys.readouterr().err
    assert "config" in err and "pilot_len" in err


@pytest.mark.parametrize("config,sweep,fragment", [
    ({"n_d2d": 6.5}, None, "n_d2d"),
    ({"pzf_bs": [1.9, 1]}, None, "pzf_bs"),
    ({}, {"variable": "bs_antennas", "values": [16, 64.5]}, "bs_antennas"),
])
def test_non_integer_count_exits_1(spec_file, capsys, config, sweep, fragment):
    doc = small_spec_doc()
    doc["config"].update(config)
    if sweep is not None:
        doc["sweep"] = sweep
    for command in ("validate", "run"):
        assert main([command, spec_file(doc)]) == 1
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"sinr_target": float("nan")}, {"shadow_sigma_db": -3.0},
                                    {"min_dist": 150.0, "d2d_max_dist": 100.0}])
def test_ill_formed_float_exits_1(spec_file, capsys, config):
    doc = small_spec_doc()
    doc["config"].update(config)
    for command in ("validate", "run"):
        assert main([command, spec_file(doc)]) == 1
        assert next(iter(config)) in capsys.readouterr().err


def test_trials_below_one_exits_1(spec_file, capsys):
    assert main(["run", spec_file(small_spec_doc()), "--trials", "0"]) == 1
    assert capsys.readouterr().err == "spec error: trials: must be an integer >= 1\n"


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exits_1(spec_file, capsys, workers):
    assert main(["run", spec_file(small_spec_doc()), "--workers", workers]) == 1
    assert capsys.readouterr().err == "spec error: workers: must be an integer >= 1\n"


def test_exhaustive_search_beyond_guard_exits_1(spec_file, capsys):
    doc = small_spec_doc(experiment="fig3", metrics=["sum_mse_es"],
                         sweep={"variable": "n_d2d", "values": [6, 24]})   # 3^24 assignments
    assert main(["validate", spec_file(doc)]) == 1
    assert "sum_mse_es" in capsys.readouterr().err


# points where b_d (or m_d) alone leaves no array gain: the sweep clamps
# b_c (m_c) to 0, and B-b_d-1 (M-m_d-1) is still 0
@pytest.mark.parametrize("name,config,values,bad,need", [
    ("fig1", {"pilot_len": 14, "pzf_bs": [4, 9]}, [10], 10, "bs_antennas > b_c+b_d+1"),
    ("fig1", {"pilot_len": 12, "pzf_bs": [4, 7]}, [64, 8], 8, "bs_antennas > b_c+b_d+1"),
    ("fig7", {"d2drx_antennas": 3, "pzf_d2d": [0, 2]}, [10, 15], 10, "d2drx_antennas > m_c+m_d+1"),
    ("fig1", {}, [64, 6], 6, "bs_antennas > b_c+b_d+1"),   # (4, 5) is clamped to (0, 5) at B = 6
])
def test_sweep_value_without_array_gain_exits_1(spec_file, capsys, name, config, values, bad, need):
    doc = json.loads((REPO_ROOT / "specs" / f"{name}.json").read_text())
    doc["config"].update(config)
    doc["sweep"]["values"] = values
    for command in ("validate", "run"):
        assert main([command, spec_file(doc)]) == 1
        err = capsys.readouterr().err
        assert f"sweep.values: value {bad}: need {need}" in err


def test_estimation_recipe_needs_no_array_gain(spec_file):
    doc = json.loads((REPO_ROOT / "specs" / "fig3.json").read_text())
    doc["config"].update(bs_antennas=8, pzf_bs=[4, 3])   # b_c+b_d = B-1: no PZF in fig3
    assert main(["validate", spec_file(doc)]) == 0


def test_solver_failure_exits_2_naming_the_trial(spec_file, capsys, monkeypatch):
    monkeypatch.setattr(power_control, "dpcd_stack",
                        functools.partial(power_control.dpcd_stack, max_iter=1))
    doc = small_spec_doc(experiment="fig7", metrics=None, trials=3,
                         sweep={"variable": "n_d2d", "values": [6]})
    doc["config"]["sinr_target"] = 0.5
    assert main(["run", spec_file(doc)]) == 2
    m = re.fullmatch(r"runtime error: n_d2d=6, trial (\d) \(seed (\d+)\): "
                     r"dpcd did not converge in 1 iterations\n", capsys.readouterr().err)
    assert m and int(m.group(2)) == trial_seed(5, int(m.group(1)))


def test_failing_shared_draw_exits_2_naming_the_trial(spec_file, capsys):
    # no D2D-Rx fits 100 m from its Tx inside a 10 m cell
    doc = small_spec_doc(experiment="fig1", metrics=None, sweep={"variable": "bs_antennas", "values": [64, 128]})
    doc["config"].update(cell_side=10.0, min_dist=100.0, d2d_max_dist=100.0)
    assert main(["run", spec_file(doc)]) == 2
    assert capsys.readouterr().err == (f"runtime error: bs_antennas=64, trial 0 (seed {trial_seed(5, 0)}): "
                                       "could not place D2D-Rx 0 inside the cell after 10000 draws\n")


def test_oracle_dpcc_linear_solve(capsys):
    assert main(["oracle", "dpcc-linear-solve"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    m = re.search(r"max relative error (\S+)", out)
    assert m and float(m.group(1)) <= 1e-6


@pytest.mark.parametrize("name", list(ORACLES))
def test_every_oracle_passes(capsys, name):
    assert main(["oracle", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"[oracle] {name}: PASS - ")


def test_oracle_unknown_name(capsys):
    assert main(["oracle", "not-an-oracle"]) == 1


def test_list_shows_experiments_and_oracles(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for token in ("fig1", "fig45", "fig9", "dpcc-linear-solve", "sum_mse"):
        assert token in out
