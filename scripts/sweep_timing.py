#!/usr/bin/env python3
"""In-process timing of the product engine on the instances in tests/data.

Times four library calls, each ``--repeat`` times in this one process:
``sandwich`` on sparse-chain and on dense-spectral at n 13,
``full_verification`` on sparse-chain at n 9 and
``radius_equivalence_check`` on kstep-order2 at n 11.  Prints one JSON
line mapping each call to the min and median of its times, in seconds.
BLAS is held to one thread, as the engine is single-threaded by design.

usage: python3 scripts/sweep_timing.py [--repeat N]
"""

import os

# must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from markovjsr import full_verification, radius_equivalence_check, sandwich
from markovjsr.instancefile import load_instance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")

    def instance(name):
        return load_instance(ROOT / "tests" / "data" / f"{name}.json")

    sparse, dense, kstep = instance("sparse-chain"), instance("dense-spectral"), instance("kstep-order2")
    calls = {
        "sandwich sparse-chain n 13": lambda: sandwich(sparse.matrices, sparse.omega, 13),
        "sandwich dense-spectral n 13": lambda: sandwich(dense.matrices, dense.omega, 13),
        "full_verification sparse-chain n 9": lambda: full_verification(sparse.matrices, sparse.omega, 9),
        "radius_equivalence_check kstep-order2 n 11":
            lambda: radius_equivalence_check(kstep.kstep, kstep.matrices, 11),
    }
    times = {name: [] for name in calls}
    for _ in range(args.repeat):  # interleaved, so drift reaches every call alike
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    print(json.dumps({
        name: {"min_s": min(t), "median_s": statistics.median(t), "repeat": len(t)}
        for name, t in times.items()
    }))


if __name__ == "__main__":
    main()
