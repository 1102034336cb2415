"""Time, in a fresh interpreter, importing d2dmimo and loading plus
validating one spec file; prints the seconds.

    python3 perfbench/setup_probe.py SRC_DIR SPEC_PATH
"""
import sys
from time import perf_counter

if __name__ == "__main__":
    src, spec_path = sys.argv[1], sys.argv[2]
    t0 = perf_counter()
    sys.path.insert(0, src)
    import d2dmimo

    d2dmimo.validate_spec(d2dmimo.load_spec(spec_path))
    print(repr(perf_counter() - t0))
