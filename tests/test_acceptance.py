"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Oracles here are deliberately independent of the
library paths they check: factor products are rebuilt from raw 0/1 rows,
words are enumerated with itertools, and class membership is decided
straight from the definitions.
"""

import itertools
import math
import time

import numpy as np
import pytest

from markovjsr import (
    KStepConstraint,
    MatrixSet,
    TransitionMatrix,
    WordClass,
    alternative_class_chain,
    audit_factor_structure,
    count_words,
    enumerate_words,
    full_verification,
    lift_set,
    omega_factor,
    operator_norm,
    radius_equivalence_check,
    recode,
    sandwich,
    surviving_nodes,
)
from markovjsr.radius import NORM_TOL, SPECTRAL_TOL
from tests.conftest import FOUR_LETTER_ROWS, random_binary_rows, window_class_words

SQRT6 = math.sqrt(6.0)
FAMILY_SEED = 20260808


def _report(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.2f}s) {detail}")


def _random_cyclic_instance(rng, max_letters=4, max_dim=3):
    while True:
        size = int(rng.integers(1, max_letters + 1))
        dim = int(rng.integers(1, max_dim + 1))
        om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
        if surviving_nodes(om):
            mats = MatrixSet.from_members(
                [rng.uniform(-1, 1, (dim, dim)) for _ in range(size)]
            )
            return mats, om


def _criterion2_family(count=200):
    rng = np.random.default_rng(FAMILY_SEED)
    return [_random_cyclic_instance(rng) for _ in range(count)]


def test_criterion_1_golden_structural():
    start = time.perf_counter()
    om = TransitionMatrix.from_rows(FOUR_LETTER_ROWS)

    expected_factors = {
        1: [(1, 1), (3, 1)],
        2: [(3, 2), (4, 2)],
        3: [(2, 3), (4, 3)],
        4: [(1, 4), (2, 4), (3, 4)],
    }
    ok = True
    for index, positions in expected_factors.items():
        want = np.zeros((4, 4), dtype=np.int64)
        for r, c in positions:
            want[r - 1, c - 1] = 1
        ok &= np.array_equal(omega_factor(om, index), want)

    rng = np.random.default_rng(41)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    lifted = lift_set(MatrixSet.from_members(members), om)
    for index, positions in expected_factors.items():
        got = lifted.members[index - 1]
        want = np.zeros((8, 8))
        for r, c in positions:
            want[2 * (r - 1): 2 * r, 2 * (c - 1): 2 * c] = members[index - 1]
        ok &= np.array_equal(got, want)

    chain_134 = omega_factor(om, 4) @ omega_factor(om, 3) @ omega_factor(om, 1)
    want_134 = np.zeros((4, 4), dtype=np.int64)
    want_134[:3, 0] = 1
    ok &= np.array_equal(chain_134, want_134)
    chain_124 = omega_factor(om, 4) @ omega_factor(om, 2) @ omega_factor(om, 1)
    ok &= not chain_124.any()

    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, elapsed, "reference factor and lift layouts, integer products")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_randomized_lift_equalities():
    start = time.perf_counter()
    worst_norm = worst_spec = 0.0
    ok = True
    for mats, om in _criterion2_family(200):
        for check in full_verification(mats, om, 5).equality_checks:
            ok &= check.norm_ok and check.spectral_ok
            worst_norm = max(
                worst_norm,
                check.norm_diff / (max(check.norm_lifted, check.norm_constrained) or 1.0),
            )
            worst_spec = max(
                worst_spec,
                check.spectral_diff
                / (max(check.spectral_lifted, check.spectral_periodic) or 1.0),
            )
    elapsed = time.perf_counter() - start
    _report(
        2, ok and elapsed < 60.0, elapsed,
        f"200 instances, n=1..5; worst norm diff {worst_norm:.2e} (tol {NORM_TOL:g}), "
        f"worst spectral diff {worst_spec:.2e} (tol {SPECTRAL_TOL:g})",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_3_factor_product_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(FAMILY_SEED + 3)
    ok = True
    words_checked = 0
    for _ in range(50):
        size = int(rng.integers(1, 5))
        rows = random_binary_rows(rng, size)
        om = TransitionMatrix.from_rows(rows)
        cols = np.array(rows, dtype=np.int64)
        chain_words = 0
        for n in range(1, 7):
            for word in itertools.product(range(1, size + 1), repeat=n):
                if not all(rows[b - 1][a - 1] for a, b in zip(word, word[1:])):
                    continue  # chain words only
                chain_words += 1
                first, last = word[0], word[-1]
                # dense product folded from raw columns, independent of the library
                dense = np.zeros((size, size), dtype=np.int64)
                dense[:, first - 1] = cols[:, first - 1]
                for letter in word[1:]:
                    factor = np.zeros((size, size), dtype=np.int64)
                    factor[:, letter - 1] = cols[:, letter - 1]
                    dense = factor @ dense
                # (i) rank-one representation, exactly
                expected = np.zeros((size, size), dtype=np.int64)
                expected[:, first - 1] = cols[:, last - 1]
                ok &= np.array_equal(dense, expected)
                # (ii) nonzero iff a continuation of the last letter exists
                ok &= bool(dense.any()) == bool(cols[:, last - 1].any())
                # (iii) diagonal element at (first, first) iff the word closes up
                closes = cols[first - 1, last - 1] == 1 and bool(cols[:, last - 1].any())
                ok &= bool(dense[first - 1, first - 1]) == bool(closes)
                ok &= not np.any(np.delete(np.diag(dense), first - 1))
        # the library's audit must pass on the same chain words
        audit = audit_factor_structure(om, 6)
        ok &= audit.passed and audit.words_checked == chain_words
        words_checked += chain_words
    elapsed = time.perf_counter() - start
    _report(
        3, ok and elapsed < 30.0, elapsed,
        f"{words_checked} chain words over 50 transition matrices, exact integer checks",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_4_golden_mean_convergence():
    start = time.perf_counter()
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[1, 1], [1, 0]])
    report = sandwich(mats, om, 10)
    lower_by_n = {p.n: p.value for p in report.lower}
    ok = abs(report.best_lower - SQRT6) <= 1e-9
    ok &= abs(lower_by_n[2] - report.best_lower) <= 1e-12  # attained at n = 2
    ok &= report.best_upper - SQRT6 <= 0.2
    running = []
    best = float("inf")
    for p in report.upper:
        best = min(best, p.value)
        running.append(best)
    ok &= all(a >= b - 1e-15 for a, b in zip(running, running[1:]))
    elapsed = time.perf_counter() - start
    _report(
        4, ok and elapsed < 5.0, elapsed,
        f"best_lower {report.best_lower:.12f} (n={report.best_lower_n}), "
        f"best_upper {report.best_upper:.12f}",
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_5_inequality_suites():
    start = time.perf_counter()
    ok = True
    ordered = (
        WordClass.PERIODICALLY_EXTENDABLE,
        WordClass.INFINITELY_EXTENDABLE,
        WordClass.MARKOV,
        WordClass.CHAIN,
    )
    for mats, om in _criterion2_family(200):
        values = {}
        for n, points in enumerate(alternative_class_chain(mats, om, 5), 1):
            vals = [p.value for p in points]
            ok &= all(
                vals[i] <= vals[i + 1] * (1 + 1e-12) + 1e-15 for i in range(3)
            )
            values[n] = {cls: p.value for cls, p in zip(ordered, points)}
        alpha = max(operator_norm(m) for m in mats.members)
        for n in range(2, 6):
            chain_val = values[n][WordClass.CHAIN]
            cap = alpha ** (1.0 / n) * values[n - 1][WordClass.MARKOV] ** ((n - 1.0) / n)
            ok &= chain_val <= cap * (1 + 1e-12) + 1e-15
    # a strict gap between the chain and admissible bounds
    gap_mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    gap_om = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    _, _, markov_point, chain_point = alternative_class_chain(gap_mats, gap_om, 2)[1]
    ok &= chain_point.value == pytest.approx(SQRT6, rel=1e-12)
    ok &= markov_point.value == 0.0 and markov_point.empty_word_set
    elapsed = time.perf_counter() - start
    _report(
        5, ok and elapsed < 30.0, elapsed,
        "four-class chain and short-word cap on the criterion-2 family, "
        f"strict gap instance chain={chain_point.value:.6f} vs admissible=0",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_6_power_submultiplicativity():
    start = time.perf_counter()
    ok = True
    for mats, om in _criterion2_family(200):
        rows = alternative_class_chain(mats, om, 7)
        values = {n: markov.value for n, (_, _, markov, _) in enumerate(rows, 1)}
        for m in range(1, 7):
            for n in range(1, 8 - m):
                lhs = values[m + n] ** (m + n)
                rhs = values[m] ** m * values[n] ** n
                ok &= lhs <= rhs * (1 + 1e-12) + 1e-15
    elapsed = time.perf_counter() - start
    _report(6, ok, elapsed, "power sub-multiplicativity for m+n <= 8 on the criterion-2 family")
    assert ok


def test_criterion_7_order_two_recoding():
    start = time.perf_counter()
    scalars = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    allowed = frozenset(
        t for t in itertools.product((1, 2), repeat=3) if (2, 2) not in zip(t, t[1:])
    )
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=allowed)
    rec = recode(constraint, scalars)
    recoded_report = sandwich(rec.matrices, rec.omega, 10)
    one_step = sandwich(scalars, TransitionMatrix.from_rows([[1, 1], [1, 0]]), 10)
    ok = abs(recoded_report.best_lower - one_step.best_lower) <= 1e-9

    equivalence = radius_equivalence_check(constraint, scalars, 10)
    ok &= equivalence.agrees
    ok &= abs(equivalence.best_lower_direct - SQRT6) <= 1e-9

    index_of = {state: pos + 1 for pos, state in enumerate(rec.states)}
    for n in range(2, 9):
        direct = window_class_words(constraint, n, WordClass.MARKOV)
        mapped = {tuple(index_of[w[j : j + 2]] for j in range(n - 1)) for w in direct}
        recoded_words = set(enumerate_words(rec.omega, n - 1, WordClass.MARKOV))
        ok &= len(direct) == len(mapped) == len(recoded_words)
        ok &= mapped == recoded_words
        ok &= count_words(rec.omega, n - 1, WordClass.MARKOV) == len(direct)
    elapsed = time.perf_counter() - start
    _report(
        7, ok, elapsed,
        f"order-2 and order-1 best_lower agree at {recoded_report.best_lower:.12f}; "
        "window-word bijection exhaustive for n <= 8",
    )
    assert ok


def test_criterion_8_coverage_note():
    # property-based and golden-example acceptance covers the checkable
    # content; the limit equality itself is evidenced by the shrinking gap
    # of criterion 4, not claimed as a computed value
    _report(8, True, 0.0, "suite is property- and golden-example-based by design")
    assert True
