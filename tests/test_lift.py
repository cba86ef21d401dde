import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
    classify,
    enumerate_words,
    lift_set,
    omega_factor,
    spectral_radii,
)
from tests.conftest import chain_ok, fold_product, random_binary_rows


def test_omega_factor_reference_layouts(four_letter_omega):
    f1 = omega_factor(four_letter_omega, 1)
    want1 = np.zeros((4, 4), dtype=np.int64)
    want1[0, 0] = want1[2, 0] = 1
    assert np.array_equal(f1, want1)

    f4 = omega_factor(four_letter_omega, 4)
    want4 = np.zeros((4, 4), dtype=np.int64)
    want4[0, 3] = want4[1, 3] = want4[2, 3] = 1
    assert np.array_equal(f4, want4)


def test_omega_factor_zero_column_gives_zero_matrix():
    om = TransitionMatrix.from_rows([[1, 0], [1, 0]])
    assert not omega_factor(om, 2).any()


def test_omega_factor_rejects_out_of_range(four_letter_omega):
    with pytest.raises(ValidationError, match="outside 1..4"):
        omega_factor(four_letter_omega, 5)


def test_lift_set_reference_block_positions(four_letter_omega):
    rng = np.random.default_rng(3)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    mats = MatrixSet.from_members(members)
    lifted = lift_set(mats, four_letter_omega)
    # second member occupies block rows 3 and 4 of block column 2 only
    a2 = members[1]
    m2 = lifted.members[1]
    assert np.array_equal(m2[4:6, 2:4], a2)
    assert np.array_equal(m2[6:8, 2:4], a2)
    mask = np.ones((8, 8), dtype=bool)
    mask[4:8, 2:4] = False
    assert not m2[mask].any()


def test_lift_set_single_letter_self_loop_is_identity_construction():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    lifted = lift_set(MatrixSet.from_members([m]), TransitionMatrix.from_rows([[1]]))
    assert np.array_equal(lifted.members[0], m)


def test_lift_set_zero_transitions_gives_zero_members():
    m = np.array([[1.0]])
    lifted = lift_set(
        MatrixSet.from_members([m, m]), TransitionMatrix.from_rows([[0, 0], [0, 0]])
    )
    assert all(not member.any() for member in lifted.members)


def test_lift_set_members_match_kronecker(four_letter_omega):
    rng = np.random.default_rng(5)
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (3, 3)) for _ in range(4)])
    lifted = lift_set(mats, four_letter_omega)
    for i in range(4):
        assert np.array_equal(
            lifted.members[i], np.kron(omega_factor(four_letter_omega, i + 1), mats.members[i])
        )


def test_lift_set_is_a_matrix_set_over_the_base_field(golden_mean_omega):
    base = MatrixSet.from_members([[[2j, 1.0], [0.0, 1.0]], [[3.0, 0.0], [1j, 1.0]]], "complex")
    lifted = lift_set(base, golden_mean_omega)
    assert isinstance(lifted, MatrixSet)
    assert (lifted.size, lifted.dim, lifted.field_tag) == (2, 4, "complex")
    for i, (have, member) in enumerate(zip(lifted.members, base.members), start=1):
        assert np.array_equal(have, np.kron(omega_factor(golden_mean_omega, i), member))


def _factors(omega: TransitionMatrix) -> list[np.ndarray]:
    return [omega_factor(omega, i) for i in range(1, omega.size + 1)]


def test_factor_product_structure_reference_words(four_letter_omega):
    factors = _factors(four_letter_omega)
    assert not fold_product(factors, (1, 2, 4)).any()

    good = fold_product(factors, (1, 3, 4))
    want = np.zeros((4, 4), dtype=np.int64)
    want[[0, 1, 2], 0] = 1  # rows {1, 2, 3} in column 1
    assert np.array_equal(good, want)
    assert np.flatnonzero(np.diag(good)).tolist() == [0]  # diagonal at 1 only


def test_factor_product_structure_single_letter(four_letter_omega):
    single = fold_product(_factors(four_letter_omega), (3,))
    want = np.zeros((4, 4), dtype=np.int64)
    want[[1, 3], 2] = 1  # letters 2 and 4 may follow 3, in column 3
    assert np.array_equal(single, want)
    assert not np.diag(single).any()  # no self-loop at 3


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**25 - 1))
def test_structure_matches_dense_product_on_random_words(size, n, seed):
    rng = np.random.default_rng(seed)
    rows = random_binary_rows(rng, size)
    om = TransitionMatrix.from_rows(rows)
    word = tuple(int(v) for v in rng.integers(1, size + 1, n))
    dense = fold_product(_factors(om), word)
    # rank one: the continuations of the last letter, in the first letter's column
    expected = np.zeros((size, size), dtype=np.int64)
    if chain_ok(rows, word):
        expected[:, word[0] - 1] = [row[word[-1] - 1] for row in rows]
    assert np.array_equal(dense, expected)
    classes = classify(word, om)
    assert bool(dense.any()) == (WordClass.MARKOV in classes)
    if WordClass.PERIODICALLY_EXTENDABLE in classes:
        assert dense[word[0] - 1, word[0] - 1] == 1
    else:
        assert not np.diag(dense).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**25 - 1))
def test_lifted_product_factorizes(size, dim, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (dim, dim)) for _ in range(size)])
    lifted = lift_set(mats, om)
    word = tuple(int(v) for v in rng.integers(1, size + 1, n))
    block_product = fold_product(lifted.members, word)
    expected = np.kron(
        fold_product(_factors(om), word), fold_product(mats.members, word)
    )
    assert np.max(np.abs(block_product - expected)) <= 1e-10


def test_spectral_radius_transfers_on_periodic_words():
    rng = np.random.default_rng(20260807)
    checked = 0
    while checked < 40:
        size = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
        mats = MatrixSet.from_members(
            [rng.uniform(-1, 1, (dim, dim)) for _ in range(size)]
        )
        lifted = lift_set(mats, om)
        n = int(rng.integers(1, 6))
        words = list(enumerate_words(om, n, WordClass.PERIODICALLY_EXTENDABLE))
        if not words:
            continue
        word = words[int(rng.integers(0, len(words)))]
        lifted_radius, base_radius = (
            spectral_radii(fold_product(family.members, word)[None])[0]
            for family in (lifted, mats)
        )
        assert lifted_radius == pytest.approx(base_radius, rel=1e-7, abs=1e-10)
        checked += 1
