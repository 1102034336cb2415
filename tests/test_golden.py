"""Every shipped spec, run at 8 trials and one worker, writes the CSV bytes in
tests/golden/<spec>.csv.

The files were written by the commit before the joint solve over sweep
points, with `load_spec`, `trials = 8` and `run_experiment(spec, workers=1)`
on numpy 2.4.6 with single-threaded BLAS (as in CI).  A change that keeps
every bit keeps them; a change that moves bits on purpose (ROADMAP item 16's
epochs) re-records them and says which rows moved in CHANGES.md.
"""
from pathlib import Path

import pytest

from d2dmimo.harness import load_spec, run_experiment

ROOT = Path(__file__).resolve().parent
SPECS = ROOT.parent / "specs"


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
def test_shipped_spec_writes_its_golden_csv(tmp_path, name):
    spec = load_spec(SPECS / f"{name}.json")
    spec.trials, spec.output = 8, str(tmp_path / f"{name}.csv")
    run_experiment(spec)
    assert (tmp_path / f"{name}.csv").read_bytes() == (ROOT / "golden" / f"{name}.csv").read_bytes()
