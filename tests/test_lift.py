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
    factor_product_dense,
    factor_product_structure,
    lift_set,
    omega_factor,
    spectral_radius,
)
from tests.conftest import fold_product, random_binary_rows


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
            lifted.members[i], np.kron(lifted.factors[i], mats.members[i])
        )


def test_factor_product_structure_reference_words(four_letter_omega):
    om = four_letter_omega
    zero = factor_product_structure(om, (1, 2, 4))
    assert zero.is_zero and zero.scalar == 0

    good = factor_product_structure(om, (1, 3, 4))
    assert not good.is_zero
    assert good.col == 1
    assert good.nonzero_rows == frozenset({1, 2, 3})
    assert good.diag_nonzero_at == 1


def test_factor_product_structure_single_letter(four_letter_omega):
    s = factor_product_structure(four_letter_omega, (3,))
    assert s.col == 3
    assert s.nonzero_rows == frozenset({2, 4})  # letters allowed to follow 3
    assert s.diag_nonzero_at is None  # no self-loop at 3


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**25 - 1))
def test_structure_matches_dense_product_on_random_words(size, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    word = tuple(int(v) for v in rng.integers(1, size + 1, n))
    structure = factor_product_structure(om, word)
    dense = factor_product_dense(om, word)
    assert np.array_equal(dense, structure.to_matrix(size))
    classes = classify(word, om)
    assert (not structure.is_zero) == (WordClass.MARKOV in classes)
    if WordClass.PERIODICALLY_EXTENDABLE in classes:
        assert structure.diag_nonzero_at == word[0]
        assert dense[word[0] - 1, word[0] - 1] == 1
    else:
        assert structure.diag_nonzero_at is None
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
        factor_product_dense(om, word), fold_product(mats.members, word)
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
        lifted_radius = spectral_radius(fold_product(lifted.members, word))
        base_radius = spectral_radius(fold_product(mats.members, word))
        assert lifted_radius == pytest.approx(base_radius, rel=1e-7, abs=1e-10)
        checked += 1


def test_lifted_set_rejects_tampered_factors(four_letter_omega):
    from markovjsr.lift import LiftedSet

    mats = MatrixSet.from_members([np.eye(2)] * 4)
    lifted = lift_set(mats, four_letter_omega)
    bad_factor = lifted.factors[0].copy()
    bad_factor[0, 1] = 1  # support outside its own column
    with pytest.raises(ValidationError, match="support outside column"):
        LiftedSet(
            base=lifted.base,
            omega=lifted.omega,
            factors=(bad_factor,) + lifted.factors[1:],
            members=lifted.members,
            blocks=lifted.blocks,
            block_dim=lifted.block_dim,
        )
