"""Dense matrix kernels: norms of one matrix or a stack, spectral radii of a stack.

Every norm offered here is sub-multiplicative, so each one is a legal
choice for the norm-based growth bounds; ROWSUM is the default throughout
the package because it is cheap, exact on integer data, and invariant
under the block structure produced by transition lifts.  One routine,
``block_norm``, computes them all: the norm of an N x N grid of blocks
is the largest block row's sum of block norms, and ``operator_norm`` is
its case of one block.

Spectral radii come from LAPACK's eigenvalues, except that a matrix whose
square is exactly zero gets the exact radius 0.  ``spectral_caps`` and
``norm_caps`` bound what that kernel returns, rigorously in floating
point, so the product engine can skip the matrices that cannot set a
supremum.

One exact power-of-two scaling, ``_scaled``, in double precision for any
dtype, serves the Frobenius norms, the caps and the kernel's zero test;
empty and 0 x 0 stacks need no special case.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from markovjsr.core import ValidationError

__all__ = [
    "NormKind",
    "REL_TOL",
    "operator_norm",
    "block_norm",
    "spectral_radii",
]

# The relative accuracy that a seeded test against mpmath holds
# spectral_radii to; reports print it as rel_tol.
REL_TOL = 1e-9


class NormKind(Enum):
    """Sub-multiplicative matrix norms."""

    ROWSUM = "rowsum"        # max over rows of the sum of entry moduli
    COLSUM = "colsum"        # max over columns of the sum of entry moduli
    FROBENIUS = "frobenius"  # Euclidean norm of the entries


def operator_norm(m: np.ndarray, kind: NormKind = NormKind.ROWSUM) -> float | np.ndarray:
    """Matrix norm of the requested kind; entry moduli are used throughout.

    A single matrix gives a float; a stack of shape (..., d, d) gives an
    array with one norm per matrix, each computed exactly as for a single
    matrix.  This is ``block_norm`` with one block of dimension d.
    """
    shape = np.shape(m)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {shape}")
    return block_norm(m, 1, shape[-1], kind)


def block_norm(
    m: np.ndarray,
    blocks: int,
    block_dim: int,
    inner: NormKind = NormKind.ROWSUM,
) -> float | np.ndarray:
    """Max over block rows of the summed inner norms of the blocks.

    For an (N*d) x (N*d) matrix viewed as N x N blocks of size d, this is
    max_i sum_j ||m_ij||; it is sub-multiplicative whenever the inner norm
    is, by the triangle inequality applied blockwise.  A stack of matrices
    gives an array of norms, in double precision whatever the dtype.
    FROBENIUS squares the entries of each matrix after the exact scaling of
    ``_scaled``, so that it neither underflows nor overflows where the norm
    itself is representable.
    """
    a = np.abs(_double(m))
    n = blocks * block_dim
    if a.ndim < 2 or a.shape[-2:] != (n, n):
        raise ValidationError(
            f"matrix of shape {np.shape(m)} does not split into {blocks}x{blocks} "
            f"blocks of dimension {block_dim}"
        )
    if inner is NormKind.FROBENIUS:  # one exponent per matrix
        a, exponent = _scaled(a)
    quads = a.reshape(*a.shape[:-2], blocks, block_dim, blocks, block_dim)
    if inner is NormKind.ROWSUM:
        per_block = quads.sum(axis=-1).max(axis=-2, initial=0.0)
    elif inner is NormKind.COLSUM:
        per_block = quads.sum(axis=-3).max(axis=-1, initial=0.0)
    else:
        per_block = np.sqrt((quads * quads).sum(axis=(-3, -1)))
        per_block = _unscaled(per_block, exponent[..., None, None])
    out = per_block.sum(axis=-1).max(axis=-1, initial=0.0)
    return float(out) if a.ndim == 2 else out


def _double(a: np.ndarray) -> np.ndarray:
    """``a`` as a contiguous float64 or complex128 array, the precision in
    which ``MatrixSet`` stores every family; no copy if it is one already."""
    return np.ascontiguousarray(a, np.complex128 if np.iscomplexobj(a) else np.float64)


def _scaled(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack (..., d, d), in double precision, times 2**-e,
    and the exponents e, of shape (...), where e brings the largest entry
    modulus of the matrix into [1/2, 1); e is 0 for a zero or empty matrix.

    One ``ldexp`` on the float view scales real and imaginary parts alike.
    The scaling is exact in binary floating point, save for entries that
    it takes below the normal range, so the scaled matrices neither
    overflow nor lose their zero pattern when multiplied.
    """
    mats = _double(mats)
    _, exponent = np.frexp(np.abs(mats).max(axis=(-2, -1), initial=0.0))
    scaled = np.ldexp(mats.view(np.float64), -exponent[..., None, None])
    return scaled.view(mats.dtype), exponent


def _unscaled(values: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Values computed from ``_scaled`` matrices, times 2**e."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, exponent)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), u the unit roundoff: k rounded
    operations change a value by at most this relative amount (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, §3.1).
    """
    unit = np.finfo(float).eps / 2
    return k * unit / (1 - k * unit)


def _square_stack(stack: np.ndarray) -> np.ndarray:
    mats = np.asarray(stack)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got shape {mats.shape}")
    return mats


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of square matrices: the largest eigenvalue
    modulus from LAPACK (``np.linalg.eigvals``), one matrix at a time.

    A matrix whose square is exactly zero has radius exactly 0, and
    ``eigvals`` is not asked: for such a matrix it returns noise of about
    sqrt(eps)*||M||, not 0.  Every lifted product of an admissible word
    that is not periodically extendable is of this kind.  The square is
    taken of the matrix scaled by ``_scaled``, so the zero pattern is that
    of M @ M at any scale of M.  The test cannot overflow, and an entry of
    the square underflows only when it is below about 1e-308 times
    max|m_ij|**2.
    """
    mats = _square_stack(stack)
    out = np.zeros(mats.shape[0])
    scaled, _ = _scaled(mats)
    live = np.flatnonzero(np.matmul(scaled, scaled).any(axis=(1, 2)))
    if live.size:
        out[live] = np.abs(np.linalg.eigvals(mats[live])).max(axis=1)
    return out


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """The computed Frobenius norms of a stack of d x d matrices, raised by
    the rounding of their sums of squared moduli."""
    a = np.abs(mats)
    return np.sqrt((a * a).sum(axis=(1, 2))) * (1 + _gamma(2 * a.shape[-1] ** 2 + 4))


def spectral_caps(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on what ``spectral_radii`` returns for a stack of
    square matrices: ||(S^2)^2||_F^(1/4) * 2**e, where S = 2**-e * M is
    the scaling of ``_scaled``, so that no product overflows.

    rho(M)^4 = rho(M^4) <= ||M^4||_F.  The cap is rigorous in floating
    point: Higham's gamma_k terms for both squarings and for the Frobenius
    sums are added before the root.  It also bounds the radius of every
    matrix within the backward error of LAPACK's eigenvalues, taken as
    ||E||_F <= d^2 * u * ||M||_F: for a defective or nearly defective M
    those computed moduli can exceed rho(M) by far more than REL_TOL, but
    never the cap.  As
    ||S||_F >= 1/2 for M != 0, that term also outweighs all that underflow
    can lose.  A cap may be +inf when 2**e is near the top of the float
    range; it is never NaN for finite input.
    """
    mats = _square_stack(stack)
    dim = mats.shape[1]
    scaled, exponent = _scaled(mats)
    product = _gamma(2 * dim + 4)  # one entry of a real or complex matrix product
    square = np.matmul(scaled, scaled)
    s, t = _frobenius(scaled), _frobenius(square)
    s2 = s * s
    e1 = product * s2  # ||fl(S^2) - S^2||_F
    e2 = product * t * t  # ||fl(T^2) - T^2||_F for T = fl(S^2)
    # S^4 - fl(T^2) = (T^2 - fl(T^2)) + (S^2 - T) S^2 + T (S^2 - T), ||S^2||_F <= t + e1
    quartic = _frobenius(np.matmul(square, square)) + e2 + e1 * (2 * t + e1)
    # ||(S + E)^4 - S^4||_F <= ((1 + d^2 u)^4 - 1) ||S||_F^4
    quartic += _gamma(4 * dim * dim) * (s2 * s2)
    # the dozen roundings of this bound and the two of its root
    root = np.sqrt(np.sqrt(quartic * (1 + _gamma(32))))
    out = _unscaled(root, exponent)
    # a subnormal result was rounded to nearest, perhaps down (even to 0)
    rounded = (root > 0) & (out < np.finfo(float).tiny)
    return np.where(rounded, np.nextafter(out, np.inf), out)


def norm_caps(norms: np.ndarray, dim: int) -> np.ndarray:
    """Upper bounds on what ``spectral_radii`` returns for dim x dim
    matrices, from their computed sub-multiplicative norms (``operator_norm``
    or ``block_norm``): rho(M) <= ||M||.

    The bound adds the rounding of the norm's sums, what underflow can
    lose from a Frobenius sum, and LAPACK's backward error as in
    ``spectral_caps``: in each of these norms ||E|| <= d^(1/2) ||E||_F
    and ||M||_F <= d^(1/2) ||M||, so ||E||_F <= d^2 u ||M||_F gives
    ||E|| <= d^3 u ||M||.
    """
    underflow = dim * np.sqrt(np.finfo(float).smallest_subnormal)
    return norms * (1 + _gamma(dim**3 + dim * dim + 2)) + underflow
