"""Write reference.json: the result rows of every workload's rep 0 at the
reference seeds, which a benchmark run at one of those seeds must reproduce.

    python3 perfbench/make_reference.py

Regenerate only when the workload definitions change, never to absorb a
change in the package's output.
"""
import json
import os
import sys

import workloads

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(workloads.HERE), "src"))
    from d2dmimo import harness

    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for seed in workloads.REFERENCE_SEEDS:
            doc = workloads.rep_spec(name, seed, 0)
            rows, _ = harness.run_experiment(harness.spec_from_dict(doc), workers=1)
            rows = workloads.row_tuples(rows)
            problems = workloads.check_structure(doc, rows)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}")
            reference[name][str(seed)] = rows
    with open(workloads.REFERENCE_PATH, "w") as fh:   # one row per line
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f" {json.dumps(seed)}: [\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n ]"
                for seed, rows in seeds.items()) + "\n}"
            for name, seeds in reference.items()) + "\n}\n")
