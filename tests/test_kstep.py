import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from markovjsr import (
    KStepConstraint,
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
    count_words,
    enumerate_words,
    radius_equivalence_check,
    recode,
    sandwich,
)
from markovjsr.instancefile import load_instance
from tests.conftest import scaled, window_class_words

DATA = Path(__file__).resolve().parent / "data"
SQRT6 = math.sqrt(6.0)

GOLDEN_ALLOWED_K1 = frozenset({(1, 1), (1, 2), (2, 1)})
# no two consecutive 2s, phrased as an order-2 rule
GOLDEN_ALLOWED_K2 = frozenset(
    t for t in itertools.product((1, 2), repeat=3) if (2, 2) not in zip(t, t[1:])
)


@pytest.fixture
def scalar_pair():
    return MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])


def test_order_two_allowed_set_is_expected():
    assert GOLDEN_ALLOWED_K2 == {
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2),
    }


def test_recode_order_one_is_identity(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=1, allowed=GOLDEN_ALLOWED_K1)
    rec = recode(constraint, scalar_pair)
    assert rec.states == ((1,), (2,))
    assert np.array_equal(rec.omega.entries, np.array([[1, 1], [1, 0]]))
    assert np.array_equal(rec.matrices.members[0], scalar_pair.members[0])
    assert np.array_equal(rec.matrices.members[1], scalar_pair.members[1])


def test_recode_singleton_tuple(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=frozenset({(1, 1, 1)}))
    rec = recode(constraint, scalar_pair)
    assert rec.states == ((1, 1),)
    assert np.array_equal(rec.omega.entries, np.array([[1]]))
    assert np.array_equal(rec.matrices.members[0], scalar_pair.members[0])


def test_recode_order_two_golden_mean_states(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    rec = recode(constraint, scalar_pair)
    assert rec.states == ((1, 1), (1, 2), (2, 1))
    # state (1,2) carries the matrix of its final letter
    assert rec.matrices.members[1][0, 0] == 3.0


def test_recode_word_counts_shift_by_one_length_unit(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    rec = recode(constraint, scalar_pair)
    one_step = TransitionMatrix.from_rows([[1, 1], [1, 0]])
    for m in range(1, 8):
        recoded_count = count_words(rec.omega, m, WordClass.MARKOV)
        original_count = count_words(one_step, m + 1, WordClass.MARKOV)
        assert recoded_count == original_count


def test_recode_rejects_empty_allowed_set(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=1, allowed=frozenset())
    with pytest.raises(ValidationError, match="nonempty"):
        recode(constraint, scalar_pair)


def test_constraint_rejects_out_of_range_entries():
    with pytest.raises(ValidationError, match="outside 1..2"):
        KStepConstraint(base_alphabet=2, k=1, allowed=frozenset({(1, 3)}))


def test_constraint_rejects_wrong_tuple_length():
    with pytest.raises(ValidationError, match="length"):
        KStepConstraint(base_alphabet=2, k=2, allowed=frozenset({(1, 1)}))


@pytest.mark.parametrize(
    "alphabet, order, message",
    [
        (0, 1, "alphabet size must be positive, got 0"),
        (2, 0, "constraint order must be at least 1, got 0"),
    ],
)
def test_constraint_rejects_non_positive_sizes(alphabet, order, message):
    with pytest.raises(ValidationError, match=message):
        KStepConstraint(base_alphabet=alphabet, k=order, allowed=frozenset({(1, 1)}))


def test_window_words_minimum_length_is_k():
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    assert window_class_words(constraint, 2, WordClass.MARKOV) == [(1, 1), (1, 2), (2, 1)]


def test_cyclic_words_respect_wraparound_windows():
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    # (2,1,2) repeats as ...212|212... whose window (1,2,2) is forbidden
    periodic = WordClass.PERIODICALLY_EXTENDABLE
    assert (2, 1, 2) not in set(window_class_words(constraint, 3, periodic))
    assert set(window_class_words(constraint, 2, periodic)) == {(1, 1), (1, 2), (2, 1)}
    assert set(window_class_words(constraint, 1, periodic)) == {(1,)}


def test_word_correspondence_maps_are_inverse():
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    word = (1, 2, 1, 1, 2)
    states = tuple(word[j : j + 2] for j in range(len(word) - 1))
    assert states == ((1, 2), (2, 1), (1, 1), (1, 2))
    assert states[0] + tuple(s[-1] for s in states[1:]) == word


@pytest.mark.parametrize("alphabet,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_window_word_bijection_exhaustive(alphabet, k):
    rng = np.random.default_rng(1000 + 10 * alphabet + k)
    # random order-k rule over the alphabet, kept nonempty and cyclic
    while True:
        tuples = [
            t
            for t in itertools.product(range(1, alphabet + 1), repeat=k + 1)
            if rng.random() < 0.6
        ]
        if not tuples:
            continue
        constraint = KStepConstraint(base_alphabet=alphabet, k=k, allowed=frozenset(tuples))
        mats = MatrixSet.from_members(
            [rng.uniform(-1, 1, (2, 2)) for _ in range(alphabet)]
        )
        rec = recode(constraint, mats)
        break
    index_of = {state: pos + 1 for pos, state in enumerate(rec.states)}
    max_n = 8 if alphabet == 2 else 6
    for n in range(k, max_n + 1):
        m = n - k + 1
        direct = window_class_words(constraint, n, WordClass.MARKOV)
        recoded = set(enumerate_words(rec.omega, m, WordClass.MARKOV))
        mapped = []
        for word in direct:
            states = tuple(word[j : j + k] for j in range(m))
            assert states[0] + tuple(s[-1] for s in states[1:]) == word
            mapped.append(tuple(index_of[s] for s in states))
        assert len(mapped) == len(set(mapped))  # injective
        assert set(mapped) == recoded          # and onto
        # products differ by exactly the k-1 leading factors
        for word, state_word in zip(direct[:8], mapped[:8]):
            full = _fold(mats.members, word)
            tail = _fold([rec.matrices.members[i - 1] for i in range(1, len(rec.states) + 1)], state_word)
            if k == 1:
                assert np.allclose(full, tail, atol=1e-12)
            else:
                prefix = _fold(mats.members, word[: k - 1])
                assert np.allclose(full, tail @ prefix, atol=1e-10)


def _fold(members, word):
    out = np.array(members[word[0] - 1])
    for letter in word[1:]:
        out = np.array(members[letter - 1]) @ out
    return out


def test_equivalence_check_order_one_identity(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=1, allowed=GOLDEN_ALLOWED_K1)
    report = radius_equivalence_check(constraint, scalar_pair, 8)
    for row in report.rows:
        assert row.recoded_upper == pytest.approx(row.direct_upper, abs=1e-12)
        assert row.recoded_lower == pytest.approx(row.direct_lower, abs=1e-12)
    assert report.agrees


def test_equivalence_check_order_two_golden_mean(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    report = radius_equivalence_check(constraint, scalar_pair, 10)
    assert report.best_lower_recoded == pytest.approx(SQRT6, abs=1e-9)
    assert report.best_lower_direct == pytest.approx(SQRT6, abs=1e-9)
    assert report.agrees
    # and the recoded sandwich agrees with the plain order-1 instance
    one_step = sandwich(scalar_pair, TransitionMatrix.from_rows([[1, 1], [1, 0]]), 10)
    assert report.best_lower_recoded == pytest.approx(one_step.best_lower, abs=1e-9)


def test_equivalence_check_single_periodic_orbit(scalar_pair):
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=frozenset({(1, 1, 1)}))
    report = radius_equivalence_check(constraint, scalar_pair, 6)
    # the only orbit repeats letter 1, so every bound is rho(A_1) = 2
    assert report.best_lower_recoded == pytest.approx(2.0, rel=1e-9)
    assert report.best_lower_direct == pytest.approx(2.0, rel=1e-9)
    assert report.best_upper_recoded == pytest.approx(2.0, rel=1e-12)
    assert report.best_upper_direct == pytest.approx(2.0, rel=1e-12)
    assert report.agrees


def test_equivalence_check_matrix_valued_members():
    rng = np.random.default_rng(4096)
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (2, 2)) for _ in range(2)])
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    report = radius_equivalence_check(constraint, mats, 10)
    # periodic products coincide word for word, so the lower sides match exactly
    assert report.lower_diff <= 1e-12
    assert report.agrees


def test_equivalence_check_agrees_on_random_constraints():
    # the lower sides coincide exactly and both upper sides stay inside the
    # certified envelope, whatever the member norms
    rng = np.random.default_rng(2718)
    trials = 0
    while trials < 40:
        alphabet = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        dim = int(rng.integers(1, 3))
        tuples = [
            t
            for t in itertools.product(range(1, alphabet + 1), repeat=k + 1)
            if rng.random() < 0.55
        ]
        if not tuples:
            continue
        constraint = KStepConstraint(base_alphabet=alphabet, k=k, allowed=frozenset(tuples))
        mats = MatrixSet.from_members(
            [rng.uniform(-1, 1, (dim, dim)) for _ in range(alphabet)]
        )
        report = radius_equivalence_check(constraint, mats, 8)
        trials += 1
        assert report.lower_diff <= report.lower_tol
        assert report.direct_upper_within_cap
        assert report.agrees


def test_equivalence_tolerances_scale_with_the_rate():
    # at a rate near 1e-60 an absolute 1e-9 floor would accept any disagreement
    mats = MatrixSet.from_members([np.array([[2e-60]]), np.array([[3e-60]])])
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    report = radius_equivalence_check(constraint, mats, 3)
    assert report.agrees
    assert not replace(report, best_lower_direct=1.01 * report.best_lower_direct).agrees
    assert report.upper_tol < report.best_upper_recoded


def test_direct_upper_cap_check_is_relative():
    # at a rate near 1e-60 an absolute floor accepts a direct upper value
    # a hundred times the certified cap
    mats = MatrixSet.from_members([np.array([[2e-60]]), np.array([[3e-60]])])
    constraint = KStepConstraint(base_alphabet=2, k=2, allowed=GOLDEN_ALLOWED_K2)
    report = radius_equivalence_check(constraint, mats, 3)
    assert report.direct_upper_within_cap
    inflated = replace(report, best_upper_direct=100 * report.direct_upper_cap)
    assert not inflated.direct_upper_within_cap
    assert not inflated.agrees


def test_equivalence_check_agrees_at_a_tiny_scale():
    # a power-of-two scaling is exact, so the relative checks see the same
    # instance; n_max 5 keeps every product (length <= 6) above the subnormals
    instance = load_instance(DATA / "kstep-order2.json")
    for mats in (instance.matrices, scaled(instance.matrices, 2.0**-150)):
        assert radius_equivalence_check(instance.kstep, mats, 5).agrees


def test_recode_checks_alphabet_size(scalar_pair):
    constraint = KStepConstraint(base_alphabet=3, k=1, allowed=frozenset({(1, 1)}))
    with pytest.raises(ValidationError, match="3 letters"):
        recode(constraint, scalar_pair)
