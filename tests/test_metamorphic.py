"""Metamorphic tests of sandwich: transformed instances, predicted reports.

The engine sends one word per rotation class to the spectral kernel and
chooses it by letter order, so relabeling and transposing the instance
change which products reach the kernel; every per-length value must
still agree to rounding.  Scaling by a power of two is exact, and so is
recoding an order-1 rule, which keeps the letters and their order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovjsr import (
    KStepConstraint,
    MatrixSet,
    NormKind,
    TransitionMatrix,
    WordClass,
    recode,
    sandwich,
)
from tests.conftest import random_binary_rows, scaled

REL = 1e-12


def random_instance(seed: int, size: int, dim: int, complex_field: bool):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    members = rng.standard_normal((size, dim, dim))
    if complex_field:
        members = members + 1j * rng.standard_normal((size, dim, dim))
    field = "complex" if complex_field else "real"
    return MatrixSet.from_members(list(members), field_tag=field), om


def assert_points_match(report, other, factor=1.0):
    """Same per-length points, with values multiplied by ``factor``."""
    points, others = report.upper + report.lower, other.upper + other.lower
    assert len(points) == len(others)
    for p, q in zip(points, others):
        assert (p.n, p.empty_word_set) == (q.n, q.empty_word_set)
        assert q.value == pytest.approx(factor * p.value, rel=REL, abs=0)


instances = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans()
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances, st.integers(1, 6), st.randoms(use_true_random=False))
def test_relabeling_the_letters_keeps_every_value(instance, n_max, random):
    mats, om = random_instance(*instance)
    perm = list(range(om.size))
    random.shuffle(perm)
    # new letter a is old letter perm[a]
    relabeled = MatrixSet.from_members(
        [mats.members[i] for i in perm], field_tag=mats.field_tag
    )
    relabeled_om = TransitionMatrix(size=om.size, entries=om.entries[np.ix_(perm, perm)])
    assert_points_match(sandwich(mats, om, n_max), sandwich(relabeled, relabeled_om, n_max))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances, st.integers(1, 6))
def test_transposing_keeps_spectral_values_and_swaps_row_and_column_sums(instance, n_max):
    # a word under omega is its reversal under omega^T, with the transposed
    # product; the chain class is the one that reversal maps onto itself
    mats, om = random_instance(*instance)
    transposed = MatrixSet.from_members(
        [m.T for m in mats.members], field_tag=mats.field_tag
    )
    transposed_om = TransitionMatrix(size=om.size, entries=om.entries.T)
    colsum = sandwich(mats, om, n_max, norm=NormKind.COLSUM, upper_class=WordClass.CHAIN)
    rowsum_of_transposed = sandwich(
        transposed, transposed_om, n_max, norm=NormKind.ROWSUM, upper_class=WordClass.CHAIN
    )
    assert_points_match(colsum, rowsum_of_transposed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances, st.integers(1, 6), st.integers(-900, 900), st.sampled_from(NormKind))
def test_scaling_by_a_power_of_two_scales_every_value(instance, n_max, k, norm):
    mats, om = random_instance(*instance)
    c = 2.0 ** (k // n_max)  # c**n_max stays within 2**±900, so products stay in range
    assert_points_match(
        sandwich(mats, om, n_max, norm=norm), sandwich(scaled(mats, c), om, n_max, norm=norm), c
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.booleans()),
    st.integers(1, 6),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_recoding_an_order_one_rule_keeps_every_value(instance, n_max, dead, isolated):
    # bit b of ``dead`` leaves letter b + 2 (0-based b + 1) without a
    # successor; bit b of ``isolated`` takes it out of every allowed pair,
    # so recode drops it, which changes alpha and the cross bounds but no
    # word of the Markov or periodic class
    mats, om = random_instance(*instance)
    entries = om.entries.copy()
    for letter in range(1, om.size):
        if (dead | isolated) >> (letter - 1) & 1:
            entries[:, letter] = 0
        if isolated >> (letter - 1) & 1:
            entries[letter, :] = 0
    allowed = {(j + 1, i + 1) for i, j in zip(*np.nonzero(entries))}
    assume(allowed)
    om = TransitionMatrix(size=om.size, entries=entries)
    rec = recode(KStepConstraint(base_alphabet=om.size, k=1, allowed=allowed), mats)
    base, recoded = sandwich(mats, om, n_max), sandwich(rec.matrices, rec.omega, n_max)
    assert recoded.upper + recoded.lower == base.upper + base.lower
    assert (recoded.best_lower, recoded.best_lower_n, recoded.best_upper, recoded.best_upper_n) == (
        base.best_lower, base.best_lower_n, base.best_upper, base.best_upper_n
    )
