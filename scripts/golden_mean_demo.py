#!/usr/bin/env python3
"""Worked example: the golden-mean constraint on the scalar pair {2, 3}.

Prints the per-length sandwich table, shows the bounds closing at sqrt(6),
shows the classical (unconstrained) sandwich of the lift closing at the
same value, and checks the lift equalities end to end for a few lengths.
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from markovjsr import MatrixSet, TransitionMatrix, full_verification, lift_set, sandwich


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    omega = TransitionMatrix.from_rows([[1, 1], [1, 0]])

    report = sandwich(mats, omega, args.n_max)
    print("golden-mean constraint, members {2, 3}; target rate sqrt(6) =", math.sqrt(6))
    print(f"{'n':>3} {'upper (markov norm)':>22} {'lower (periodic spectral)':>27}")
    for upper, lower in zip(report.upper, report.lower):
        print(f"{upper.n:>3} {upper.value:>22.12f} {lower.value:>27.12f}")
    print(f"best_upper = {report.best_upper:.12f} at n = {report.best_upper_n}")
    print(f"best_lower = {report.best_lower:.12f} at n = {report.best_lower_n}")
    print(f"gap = {report.gap:.3e}")

    lifted = lift_set(mats, omega)
    classical = sandwich(lifted, TransitionMatrix.complete(lifted.size), args.n_max)
    print(f"\nclassical sandwich of the {lifted.dim}x{lifted.dim} lift, all transitions allowed:")
    print(f"best_upper = {classical.best_upper:.12f} (constrained {report.best_upper:.12f})")
    print(f"best_lower = {classical.best_lower:.12f} (constrained {report.best_lower:.12f})")

    print("\nlift equalities (dense block products vs constrained enumeration):")
    for check in full_verification(mats, omega, 6).equality_checks:
        print(
            f"  n={check.n}: norm {check.norm_lifted:.12f} == {check.norm_constrained:.12f}, "
            f"spectral {check.spectral_lifted:.12f} == {check.spectral_periodic:.12f} "
            f"-> {'ok' if check.passed else 'MISMATCH'}"
        )


if __name__ == "__main__":
    main()
