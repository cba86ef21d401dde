"""Dense matrix kernels: norms of one matrix or a stack, spectral radii of a stack.

Every norm offered here is sub-multiplicative, so each one is a legal
choice for the norm-based growth bounds; ROWSUM is the default throughout
the package because it is cheap, exact on integer data, and invariant
under the block structure produced by transition lifts.

Spectral radii come from LAPACK's eigenvalues, except that a matrix whose
square is exactly zero gets the exact radius 0.
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
    matrix.
    """
    a = np.abs(np.asarray(m))
    if kind is NormKind.ROWSUM:
        out = a.sum(axis=-1).max(axis=-1)
    elif kind is NormKind.COLSUM:
        out = a.sum(axis=-2).max(axis=-1)
    else:
        out = np.sqrt((a * a).reshape(*a.shape[:-2], -1).sum(axis=-1))
    return float(out) if a.ndim == 2 else out


def block_norm(
    m: np.ndarray,
    blocks: int,
    block_dim: int,
    inner: NormKind = NormKind.ROWSUM,
) -> float | np.ndarray:
    """Max over block rows of the summed inner norms of the blocks.

    For an (N*d) x (N*d) matrix viewed as N x N blocks of size d, this is
    max_i sum_j ||m_ij||; it is sub-multiplicative whenever the inner norm
    is, by the triangle inequality applied blockwise.  Like operator_norm,
    a stack of matrices gives an array of norms.
    """
    arr = np.asarray(m)
    n = blocks * block_dim
    if arr.ndim < 2 or arr.shape[-2:] != (n, n):
        raise ValidationError(
            f"matrix of shape {arr.shape} does not split into {blocks}x{blocks} "
            f"blocks of dimension {block_dim}"
        )
    quads = np.abs(arr.reshape(*arr.shape[:-2], blocks, block_dim, blocks, block_dim))
    if inner is NormKind.ROWSUM:
        per_block = quads.sum(axis=-1).max(axis=-2)
    elif inner is NormKind.COLSUM:
        per_block = quads.sum(axis=-3).max(axis=-1)
    else:
        per_block = np.sqrt((quads * quads).sum(axis=(-3, -1)))
    out = per_block.sum(axis=-1).max(axis=-1)
    return float(out) if arr.ndim == 2 else out


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of square matrices: the largest eigenvalue
    modulus from LAPACK (``np.linalg.eigvals``), one matrix at a time.

    A matrix whose square is exactly zero has radius exactly 0, and
    ``eigvals`` is not asked: for such a matrix it returns noise of about
    sqrt(eps)*||M||, not 0.  Every lifted product of an admissible word
    that is not periodically extendable is of this kind.  The square is
    taken after scaling each matrix by a power of two that brings its
    largest entry modulus into [1/2, 1): that scaling is exact in binary
    floating point, so the zero pattern is that of M @ M at any scale of
    M.  The test cannot overflow, and an entry of the square underflows
    only when it is below about 1e-308 times max|m_ij|**2.
    """
    mats = np.asarray(stack)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got shape {mats.shape}")
    out = np.zeros(mats.shape[0])
    if out.size == 0 or mats.shape[1] == 0:
        return out
    _, exponent = np.frexp(np.abs(mats).max(axis=(1, 2)))
    # two factors, so that neither power of two leaves the float range
    half = exponent // 2
    scaled = mats * np.ldexp(1.0, -half)[:, None, None]
    scaled *= np.ldexp(1.0, half - exponent)[:, None, None]
    live = np.flatnonzero(np.matmul(scaled, scaled).any(axis=(1, 2)))
    if live.size:
        out[live] = np.abs(np.linalg.eigvals(mats[live])).max(axis=1)
    return out
