import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    MatrixSet,
    NormKind,
    TransitionMatrix,
    ValidationError,
    block_norm,
    lift_set,
    omega_factor,
    operator_norm,
    spectral_radii,
    spectral_radius,
)
from tests.conftest import FOUR_LETTER_ROWS


def _rowsum(m):
    return float(np.abs(m).sum(axis=1).max())


# ------------------------------------------------------- factor products


def test_factor_chain_product_matches_reference_layout():
    om = TransitionMatrix.from_rows(FOUR_LETTER_ROWS)
    product = omega_factor(om, 4) @ (omega_factor(om, 3) @ omega_factor(om, 1))
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[:3, 0] = 1  # first column (1,1,1,0), zeros elsewhere
    assert np.array_equal(product, expected)


# ------------------------------------------------- Kronecker block layout


def test_kronecker_with_scalar_one_is_identity():
    # a one-letter family under the one-entry transition matrix lifts to itself
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    lifted = lift_set(MatrixSet.from_members([m]), TransitionMatrix.from_rows([[1]]))
    assert np.array_equal(lifted.members[0], m)


def test_kronecker_reference_block_layout():
    om = TransitionMatrix.from_rows(FOUR_LETTER_ROWS)
    a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    lifted = np.kron(omega_factor(om, 1), a1)
    assert lifted.shape == (8, 8)
    expected = np.zeros((8, 8))
    expected[0:2, 0:2] = a1  # block (1,1)
    expected[4:6, 0:2] = a1  # block (3,1)
    assert np.array_equal(lifted, expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kronecker_mixed_product_identity(seed):
    rng = np.random.default_rng(seed)
    p, q, r, s = (rng.uniform(-1, 1, (2, 2)) for _ in range(4))
    lhs = np.kron(p, q) @ np.kron(r, s)
    rhs = np.kron(p @ r, q @ s)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ----------------------------------------------------------- operator_norm


def test_operator_norm_identity_is_one():
    for kind in (NormKind.ROWSUM, NormKind.COLSUM):
        assert operator_norm(np.eye(5), kind) == 1.0


def test_operator_norm_one_by_one():
    for kind in NormKind:
        assert operator_norm(np.array([[2.0]]), kind) == 2.0
        assert operator_norm(np.array([[-2.0]]), kind) == 2.0


def test_operator_norm_rowsum_example():
    assert operator_norm(np.array([[1.0, 1.0], [0.0, 1.0]]), NormKind.ROWSUM) == 2.0
    assert operator_norm(np.array([[1.0, 1.0], [0.0, 1.0]]), NormKind.COLSUM) == 2.0


def test_operator_norm_uses_complex_modulus():
    m = np.array([[3 + 4j]])
    for kind in NormKind:
        assert operator_norm(m, kind) == pytest.approx(5.0)


# -------------------------------------------------------------- block_norm


def test_block_norm_identity_is_one():
    assert block_norm(np.eye(6), blocks=3, block_dim=2) == 1.0


def test_block_norm_single_column_structure():
    # copies of B stacked in one block column: every nonzero block row sums to ||B||
    b = np.array([[1.0, -2.0], [0.5, 1.0]])
    m = np.zeros((6, 6))
    m[0:2, 2:4] = b
    m[4:6, 2:4] = b
    assert block_norm(m, 3, 2) == pytest.approx(operator_norm(b))


def test_block_norm_of_lifted_member(four_letter_omega):
    rng = np.random.default_rng(7)
    a1 = rng.uniform(-1, 1, (2, 2))
    lifted = np.kron(omega_factor(four_letter_omega, 1), a1)
    assert block_norm(lifted, 4, 2) == pytest.approx(operator_norm(a1))


def test_block_norm_rejects_indivisible_shape():
    with pytest.raises(ValidationError, match="does not split"):
        block_norm(np.zeros((5, 5)), blocks=2, block_dim=2)


@pytest.mark.parametrize("kind", list(NormKind))
def test_norms_of_a_stack_equal_norms_of_each_matrix(kind):
    # the product engine norms whole stacks; each value must be bitwise the
    # single-matrix one, or its reports would drift from per-word output
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((50, 6, 6)) + 1j * rng.standard_normal((50, 6, 6))
    assert np.array_equal(operator_norm(stack, kind), [operator_norm(m, kind) for m in stack])
    assert np.array_equal(
        block_norm(stack, 3, 2, kind), [block_norm(m, 3, 2, kind) for m in stack]
    )


# --------------------------------------------------------- spectral radius


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_radius_nilpotent_is_exactly_zero():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_zero_matrix_is_exactly_zero():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_two_by_two_golden():
    # roots of x^2 - 3x + 1: largest is (3 + sqrt(5)) / 2
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert spectral_radius(m) == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-9)


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValidationError, match="square"):
        spectral_radius(np.zeros((2, 3)))


def test_spectral_radius_matches_eigvals_oracle():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(150):
        d = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (d, d))
        want = float(max(abs(np.linalg.eigvals(m))))
        got = spectral_radius(m)
        worst = max(worst, abs(got - want) / (1.0 + want))
    assert worst <= 1e-8


def test_spectral_radius_complex_matches_eigvals_oracle():
    rng = np.random.default_rng(99)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        want = float(max(abs(np.linalg.eigvals(m))))
        assert spectral_radius(m) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_repeated_squaring_path_consistent_with_eigvals():
    # independent path: raw scaled squaring implemented inline, no extrapolation
    def raw_estimate(m, squarings):
        scale = _rowsum(m)
        b = m / scale
        log_scale = math.log(scale)
        for k in range(1, squarings + 1):
            sq = b @ b
            c = _rowsum(sq)
            if c == 0.0:
                return 0.0
            b = sq / c
            log_scale = 2.0 * log_scale + math.log(c)
        return math.exp(log_scale / 2.0**squarings)

    rng = np.random.default_rng(4242)
    for _ in range(20):
        m = rng.uniform(-1, 1, (4, 4))
        want = float(max(abs(np.linalg.eigvals(m))))
        # raw norm estimates close slowly (O(1/2^k)); extrapolated library value is tight
        assert abs(raw_estimate(m, 20) - want) <= 1e-5
        assert abs(spectral_radius(m) - want) <= 1e-6


def test_spectral_radii_batch_agrees_with_scalar_calls():
    rng = np.random.default_rng(11)
    stack = rng.uniform(-1, 1, (40, 4, 4))
    batch = spectral_radii(stack)
    singles = np.array([spectral_radius(m) for m in stack])
    assert np.allclose(batch, singles, rtol=1e-9, atol=1e-12)


def test_spectral_radii_empty_stack():
    assert spectral_radii(np.zeros((0, 3, 3))).shape == (0,)


def test_spectral_radius_survives_extreme_scales():
    assert spectral_radius(1e150 * np.eye(3)) == pytest.approx(1e150, rel=1e-9)
    assert spectral_radius(1e-150 * np.eye(3)) == pytest.approx(1e-150, rel=1e-9)
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, (4, 4))
    want = float(max(abs(np.linalg.eigvals(m))))
    for scale in (1e120, 1e-120):
        assert spectral_radius(scale * m) == pytest.approx(scale * want, rel=1e-8)


# ------------------------------------------------------ shared properties


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_norms_are_submultiplicative(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (dim, dim))
    b = rng.uniform(-1, 1, (dim, dim))
    for kind in NormKind:
        assert operator_norm(a @ b, kind) <= operator_norm(a, kind) * operator_norm(b, kind) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_block_norm_is_submultiplicative(blocks, block_dim, seed):
    rng = np.random.default_rng(seed)
    n = blocks * block_dim
    a = rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n))
    for inner in NormKind:
        lhs = block_norm(a @ b, blocks, block_dim, inner)
        rhs = block_norm(a, blocks, block_dim, inner) * block_norm(b, blocks, block_dim, inner)
        assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.floats(-4, 4, allow_nan=False).filter(lambda c: abs(c) > 1e-3))
def test_scaling_homogeneity(dim, seed, c):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (dim, dim))
    for kind in NormKind:
        assert operator_norm(c * m, kind) == pytest.approx(abs(c) * operator_norm(m, kind), rel=1e-12)
    assert spectral_radius(c * m) == pytest.approx(
        abs(c) * spectral_radius(m), rel=1e-9, abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_spectral_radius_permutation_similarity(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (dim, dim))
    perm = rng.permutation(dim)
    p = np.eye(dim)[perm]
    similar = p.T @ m @ p
    assert spectral_radius(similar) == pytest.approx(spectral_radius(m), rel=1e-9, abs=1e-12)
