"""Dense matrix kernels: norms and spectral radii, one matrix or a stack at a time.

Every norm offered here is sub-multiplicative, so each one is a legal
choice for the norm-based growth bounds; ROWSUM is the default throughout
the package because it is cheap, exact on integer data, and invariant
under the block structure produced by transition lifts.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from markovjsr.core import ValidationError

__all__ = [
    "NormKind",
    "REL_TOL",
    "ZERO_SNAP",
    "MAX_SQUARINGS",
    "operator_norm",
    "block_norm",
    "spectral_radius",
    "spectral_radii",
]

# The settling threshold of the spectral iteration (see spectral_radii for
# the accuracy it actually reaches); reports print it as rel_tol.
REL_TOL = 1e-9
# Spectral-radius estimates below ZERO_SNAP * ||M|| are reported as exactly 0,
# which makes nilpotent detection deterministic.
ZERO_SNAP = 1e-12
MAX_SQUARINGS = 64


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


def _stack_norms(stack: np.ndarray) -> np.ndarray:
    # row-sum norms of a (W, d, d) stack; any sub-multiplicative norm works here
    return np.abs(stack).sum(axis=2).max(axis=1)


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of square matrices, computed in one sweep.

    Scaled repeated squaring: after k squarings the scaled norm
    ||M^(2^k)||^(1/2^k) approaches the spectral radius from above, and
    extrapolating consecutive estimates in 1/2^k removes the leading error
    term.  A slice stops once its extrapolated estimate settles to within
    REL_TOL/16 three times in a row, or after MAX_SQUARINGS squarings; a
    power that becomes exactly zero short-circuits to radius 0 (nilpotent
    inputs keep exact zero patterns under floating-point products);
    estimates falling below ZERO_SNAP * ||M|| snap to 0.

    Settling is not accuracy: against np.linalg.eigvals on 20,000 seeded
    standard Gaussian matrices at each of d = 2, 4 and 8, about 0.05% of
    the estimates miss REL_TOL, and the worst relative errors are +4.3e-9
    and -1.2e-8, so an estimate may lie above or below the true radius.
    """
    mats = np.asarray(stack)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got shape {mats.shape}")
    count = mats.shape[0]
    out = np.zeros(count, dtype=np.float64)
    if count == 0 or mats.shape[1] == 0:
        return out
    if not np.iscomplexobj(mats):
        mats = mats.astype(np.float64, copy=False)
    norm0 = _stack_norms(mats)
    live = np.flatnonzero(norm0 > 0.0)
    if live.size == 0:
        return out
    b = mats[live] / norm0[live, None, None]
    log_scale = np.log(norm0[live])
    log_floor = np.log(ZERO_SNAP) + log_scale
    level_prev = log_scale.copy()
    extrap_prev = np.full(live.size, np.inf)
    settled = np.zeros(live.size, dtype=np.int64)
    thresh = REL_TOL / 16.0
    k = 0
    while live.size and k < MAX_SQUARINGS:
        sq = np.matmul(b, b)
        scale = _stack_norms(sq)
        k += 1
        dead = scale == 0.0
        safe = np.where(dead, 1.0, scale)
        log_scale = 2.0 * log_scale + np.log(safe)
        level = log_scale / 2.0**k
        extrap = 2.0 * level - level_prev
        snap = ~dead & (level < log_floor)
        settled = np.where(np.abs(extrap - extrap_prev) < thresh, settled + 1, 0)
        done = ~dead & ~snap & (settled >= 3) & (k >= 4)
        finished = dead | snap | done
        if np.any(finished):
            if np.any(done):
                idx = live[done]
                vals = np.exp(extrap[done])
                vals[vals < ZERO_SNAP * norm0[idx]] = 0.0
                out[idx] = vals
            keep = ~finished
            live = live[keep]
            b = sq[keep] / safe[keep, None, None]
            log_scale = log_scale[keep]
            level_prev = level[keep]
            extrap_prev = extrap[keep]
            settled = settled[keep]
            log_floor = log_floor[keep]
        else:
            b = sq / scale[:, None, None]
            level_prev = level
            extrap_prev = extrap
    if live.size:
        # squaring cap reached; report the current extrapolated estimates
        vals = np.exp(extrap_prev)
        vals[vals < ZERO_SNAP * norm0[live]] = 0.0
        out[live] = vals
    return out


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Exactly 0 for the zero matrix and for structurally nilpotent inputs;
    see spectral_radii for the iteration and stopping rules.
    """
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"spectral radius needs a square matrix, got shape {arr.shape}")
    return float(spectral_radii(arr[None, :, :])[0])
