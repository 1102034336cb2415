"""The benchmark's reference gate: rep 0 of every workload in
perfbench/reference.json, at each seed it records, passes the structural
checks and reproduces the stored rows.  perfbench/workloads.py is loaded by
path and nothing is written under perfbench/."""
import importlib.util
import sys
from pathlib import Path

import pytest

from d2dmimo.harness import run_experiment, spec_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no __pycache__ under perfbench/
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def perfbench_files():
    return sorted((str(p), p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


def test_reference_covers_every_workload_at_both_seeds(workloads):
    ref = workloads.load_reference()
    assert sorted(ref) == sorted(workloads.WORKLOADS)
    assert all(sorted(ref[name]) == sorted(str(s) for s in workloads.REFERENCE_SEEDS) for name in ref)


@pytest.mark.parametrize("seed", [12345, 424242])
@pytest.mark.parametrize("workload", ["analytic_sweep", "jdpc_power", "mc_large", "mc_small"])
def test_rep_0_passes_the_reference_gate(workloads, workload, seed):
    before = perfbench_files()
    doc = workloads.rep_spec(workload, seed, 0)
    rows = workloads.row_tuples(run_experiment(spec_from_dict(doc), workers=1)[0])
    assert workloads.check_structure(doc, rows) == []
    assert workloads.compare_reference(rows, workloads.load_reference()[workload][str(seed)]) == []
    assert perfbench_files() == before
