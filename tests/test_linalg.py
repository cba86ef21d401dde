import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    MatrixSet,
    NormKind,
    TransitionMatrix,
    ValidationError,
    WordClass,
    block_norm,
    classify,
    lift_set,
    omega_factor,
    operator_norm,
    spectral_radii,
)
from markovjsr.linalg import REL_TOL, norm_caps, spectral_caps
from tests.conftest import FOUR_LETTER_ROWS, fold_product


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


def test_frobenius_norms_scale_exactly_by_powers_of_two():
    # unscaled, the squares of these entries underflow (-600, -1000) or
    # overflow (600, 1000); at scale 0 the norm is the plain sum of squares
    rng = np.random.default_rng(12)
    stack = rng.uniform(0.5, 1, (20, 6, 6)) * rng.choice([-1, 1], (20, 6, 6))
    frobenius = NormKind.FROBENIUS
    plain = np.sqrt((stack * stack).sum(axis=(1, 2)))
    assert np.array_equal(operator_norm(stack, frobenius), plain)
    blocks = block_norm(stack, 3, 2, frobenius)
    for k in (-1000, -600, 600, 1000):
        scaled = np.ldexp(stack, k)
        assert np.array_equal(operator_norm(scaled, frobenius), np.ldexp(plain, k))
        assert np.array_equal(block_norm(scaled, 3, 2, frobenius), np.ldexp(blocks, k))
    assert operator_norm(1e-170 * np.eye(2), frobenius) == math.sqrt(2) * 1e-170
    assert block_norm(np.zeros((4, 4)), 2, 2, frobenius) == 0.0


@pytest.mark.parametrize("kind", list(NormKind))
def test_operator_norm_edge_inputs_agree_across_kinds(kind):
    # an empty stack has no norms, a 0x0 matrix has norm 0, a vector is no matrix
    assert operator_norm(np.zeros((0, 3, 3)), kind).shape == (0,)
    assert operator_norm(np.zeros((0, 0)), kind) == 0.0
    assert np.array_equal(operator_norm(np.zeros((2, 0, 0)), kind), [0.0, 0.0])
    with pytest.raises(ValidationError, match="shape"):
        operator_norm(np.array([1.0, -2.0]), kind)


def _kernel_values(stack) -> list:
    values = [spectral_caps(stack), spectral_radii(stack)]
    for kind in NormKind:
        values += [operator_norm(stack, kind), block_norm(stack, 3, 2, kind)]
    return values


def test_kernels_give_the_same_bits_on_any_dtype_and_layout():
    rng = np.random.default_rng(13)
    ints = rng.integers(-9, 10, (30, 6, 6))
    ints[::4] = np.triu(ints[::4], 1)  # nilpotent, so the radius is exactly 0
    wide = rng.standard_normal((30, 6, 6)) + 1j * rng.standard_normal((30, 6, 6))
    transposed = wide.transpose(0, 2, 1)
    for stack, double in ((ints, ints.astype(float)), (transposed, transposed.copy())):
        for got, want in zip(_kernel_values(stack), _kernel_values(double)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # single-precision input is normed in double precision
    frobenius = NormKind.FROBENIUS
    for single in (wide.real.astype(np.float32), wide.astype(np.complex64)):
        double = single.astype(np.result_type(single, np.float64))
        assert np.array_equal(operator_norm(single, frobenius), operator_norm(double, frobenius))
        assert np.array_equal(
            block_norm(single, 3, 2, frobenius), block_norm(double, 3, 2, frobenius)
        )


# --------------------------------------------------------- spectral radius


def _rho(m) -> float:
    return float(spectral_radii(np.asarray(m)[None])[0])


def _mp_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus from mpmath at 30 significant digits."""
    if m.shape == (1, 1):
        return float(abs(mpmath.mpmathify(m[0, 0])))
    with mpmath.workdps(30):
        eigenvalues = mpmath.eig(mpmath.matrix(m.tolist()), left=False, right=False)
        return float(max(abs(e) for e in eigenvalues))


def test_spectral_radius_identity():
    assert _rho(np.eye(4)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_radius_nilpotent_is_exactly_zero():
    assert _rho(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_zero_matrix_is_exactly_zero():
    assert _rho(np.zeros((3, 3))) == 0.0


def test_spectral_radii_square_zero_is_exactly_zero_without_warnings():
    # eigvals would return noise of about sqrt(eps) * ||M|| for these
    stack = np.stack([
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 1.0], [-1.0, -1.0]]),
        1e300 * np.array([[0.0, 1.0], [0.0, 0.0]]),
        2.0**-1000 * np.array([[1.0, 1.0], [-1.0, -1.0]]),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(spectral_radii(stack), np.zeros(4))


def test_spectral_radii_lifted_non_periodic_product_is_exactly_zero(four_letter_omega):
    # an admissible word that is not periodically extendable lifts to a
    # product with one off-diagonal block column, so its square is zero
    rng = np.random.default_rng(5)
    mats = MatrixSet.from_members(list(rng.standard_normal((4, 3, 3))))
    lifted = lift_set(mats, four_letter_omega)
    word = (1, 3, 2)
    assert WordClass.MARKOV in classify(word, four_letter_omega)
    assert WordClass.PERIODICALLY_EXTENDABLE not in classify(word, four_letter_omega)
    product = fold_product(lifted.members, word)
    assert np.abs(product).max() > 0
    assert not (product @ product).any()
    assert _rho(product) == 0.0


def test_spectral_radius_two_by_two_golden():
    # roots of x^2 - 3x + 1: largest is (3 + sqrt(5)) / 2
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert _rho(m) == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-9)


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValidationError, match="square"):
        spectral_radii(np.zeros((1, 2, 3)))
    with pytest.raises(ValidationError, match="square"):
        spectral_radii(np.eye(3))


def test_spectral_radius_matches_eigvals_oracle():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(150):
        d = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (d, d))
        want = float(max(abs(np.linalg.eigvals(m))))
        got = _rho(m)
        worst = max(worst, abs(got - want) / (1.0 + want))
    assert worst <= 1e-8


def test_spectral_radius_complex_matches_eigvals_oracle():
    rng = np.random.default_rng(99)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        want = float(max(abs(np.linalg.eigvals(m))))
        assert _rho(m) == pytest.approx(want, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize(
    "dim, count, complex_field",
    [(2, 40, False), (4, 30, False), (8, 12, False), (3, 12, True), (16, 3, True)],
)
def test_spectral_radii_within_rel_tol_of_mpmath(dim, count, complex_field):
    rng = np.random.default_rng([dim, count, complex_field])
    stack = rng.standard_normal((count, dim, dim))
    if complex_field:
        stack = stack + 1j * rng.standard_normal((count, dim, dim))
    got = spectral_radii(stack)
    want = np.array([_mp_radius(m) for m in stack])
    assert np.all(np.abs(got - want) <= REL_TOL * want)


def test_spectral_radii_batch_agrees_with_scalar_calls():
    rng = np.random.default_rng(11)
    stack = rng.uniform(-1, 1, (40, 4, 4))
    stack[::7] = np.triu(stack[::7], 1)  # some strictly triangular, hence nilpotent
    batch = spectral_radii(stack)
    singles = np.array([_rho(m) for m in stack])
    assert np.array_equal(batch, singles)


def test_spectral_radii_empty_stack():
    assert spectral_radii(np.zeros((0, 3, 3))).shape == (0,)


def test_spectral_radius_survives_extreme_scales():
    assert _rho(1e150 * np.eye(3)) == pytest.approx(1e150, rel=1e-9)
    assert _rho(1e-150 * np.eye(3)) == pytest.approx(1e-150, rel=1e-9)
    # the square of this one underflows to zero unless it is scaled first
    assert _rho(1e-300 * np.eye(3)) == pytest.approx(1e-300, rel=1e-9)
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, (4, 4))
    want = float(max(abs(np.linalg.eigvals(m))))
    for scale in (1e120, 1e-120):
        assert _rho(scale * m) == pytest.approx(scale * want, rel=1e-8)


# ------------------------------------------------------ spectral caps


def _cap_stack(rng, dim: int, complex_field: bool) -> tuple[np.ndarray, list]:
    """One matrix of each kind the caps must bound, with its spectral
    radius from mpmath at 30 significant digits."""

    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_field else out

    basis = draw(dim, dim) + dim * np.eye(dim)
    square_zero = np.zeros((dim, dim), dtype=basis.dtype)
    half = dim // 2
    square_zero[:half, half:] = draw(half, dim - half)
    left, right, factor = draw(dim), draw(dim), draw()
    stack = np.stack([
        draw() * np.eye(dim) + np.eye(dim, k=1),                    # Jordan block
        np.triu(draw(dim, dim), 1),                                 # strictly triangular
        basis @ np.triu(draw(dim, dim), 1) @ np.linalg.inv(basis),  # dense, nearly nilpotent
        np.outer(left, right),                                      # rank one
        factor * np.eye(dim)[rng.permutation(dim)],                 # permutation
        np.zeros((dim, dim)),
        square_zero,
    ])
    scales = rng.choice([0, 1000, -1000, -1060], len(stack))  # -1060: subnormal entries
    stack = stack * np.ldexp(1.0, scales)[:, None, None]
    with mpmath.workdps(30):
        # rho(x y^T) = |y^T x| and rho(c P) = |c|, taken of the scaled entries
        rank_one = abs(mpmath.fsum(
            mpmath.mpmathify(x) * mpmath.mpmathify(y) for x, y in zip(stack[3][:, 0], right)
        ) / mpmath.mpmathify(right[0]))
        radii = [_mp_radius(m) for m in stack[:3]] + [
            float(rank_one), abs(stack[4]).max(), 0.0, 0.0,
        ]
    return stack, radii


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("dim", range(1, 17))
def test_spectral_caps_bound_the_radius(dim, complex_field):
    stack, radii = _cap_stack(np.random.default_rng([dim, complex_field]), dim, complex_field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caps = spectral_caps(stack)
        kernel = spectral_radii(stack)
    assert not np.isnan(caps).any()
    assert np.all(caps >= radii)
    assert np.all(caps >= kernel)
    assert caps[5] == 0.0
    # on c * P, P a permutation, ||(cP)^4||_F^(1/4) = |c| * dim^(1/8)
    tiny = np.finfo(float).smallest_subnormal
    assert caps[4] <= radii[4] * dim**0.125 * (1 + 1e-9) + 2 * tiny


def test_spectral_caps_bound_the_kernel_where_it_strays_from_rho():
    # trace 0 and determinant -2**-60, so rho = 2**-30; LAPACK's eigenvalues
    # are those of a nearby matrix, and their moduli are about 13 times rho
    a = 1 + 2.0**-30
    m = np.array([[a, 1.0], [-(1 + 2.0**-29), -a]])
    assert _mp_radius(m) == 2.0**-30
    kernel = _rho(m)
    assert kernel > 2.0**-30 * (1 + REL_TOL)
    assert spectral_caps(m[None])[0] >= kernel


def test_spectral_caps_overflow_to_inf_not_nan():
    stack = np.stack([np.full((16, 16), 2.0**1023), np.zeros((16, 16))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caps = spectral_caps(stack)
    assert caps[0] == np.inf and caps[1] == 0.0
    assert spectral_caps(np.zeros((0, 3, 3))).shape == (0,)


def test_norm_caps_bound_the_radius():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((30, 6, 6))
    stack[::3] = np.triu(stack[::3], 1)
    radii = spectral_radii(stack)
    for kind in NormKind:
        assert np.all(norm_caps(operator_norm(stack, kind), 6) >= radii)
    assert np.all(norm_caps(block_norm(stack, 3, 2), 6) >= radii)


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
    assert _rho(c * m) == pytest.approx(abs(c) * _rho(m), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_spectral_radius_permutation_similarity(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (dim, dim))
    perm = rng.permutation(dim)
    p = np.eye(dim)[perm]
    similar = p.T @ m @ p
    assert _rho(similar) == pytest.approx(_rho(m), rel=1e-9, abs=1e-12)
