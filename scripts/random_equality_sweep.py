#!/usr/bin/env python3
"""Randomized sweep of the lift equalities over seeded instances.

Draws families with a cyclic transition digraph, checks the norm and
spectral equalities at every length up to --n-max, and reports the worst
relative differences seen.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from markovjsr import (
    MatrixSet,
    TransitionMatrix,
    has_arbitrarily_long_words,
    verify_lift_equalities,
)


def draw_instance(rng, max_letters, max_dim):
    while True:
        size = int(rng.integers(1, max_letters + 1))
        dim = int(rng.integers(1, max_dim + 1))
        omega = TransitionMatrix.from_rows(rng.integers(0, 2, (size, size)))
        if not has_arbitrarily_long_words(omega):
            continue
        members = [rng.uniform(-1, 1, (dim, dim)) for _ in range(size)]
        return MatrixSet.from_members(members), omega


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--letters", type=int, default=4)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_norm = worst_spec = 0.0
    failures = 0
    start = time.perf_counter()
    for count in range(1, args.instances + 1):
        mats, omega = draw_instance(rng, args.letters, args.dim)
        for n in range(1, args.n_max + 1):
            check = verify_lift_equalities(mats, omega, n)
            # the relative differences the checks bound (both sides 0 -> diff 0)
            scale_norm = max(check.norm_lifted, check.norm_constrained) or 1.0
            scale_spec = max(check.spectral_lifted, check.spectral_periodic) or 1.0
            worst_norm = max(worst_norm, check.norm_diff / scale_norm)
            worst_spec = max(worst_spec, check.spectral_diff / scale_spec)
            if not check.passed:
                failures += 1
                print(
                    f"MISMATCH instance {count} n={n}: "
                    f"norm diff {check.norm_diff:.3e}, spectral diff {check.spectral_diff:.3e}"
                )
    elapsed = time.perf_counter() - start
    print(
        f"{args.instances} instances x n=1..{args.n_max} in {elapsed:.1f}s: "
        f"worst norm diff {worst_norm:.3e}, worst spectral diff {worst_spec:.3e}, "
        f"{failures} failures"
    )
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
