"""Transition lifts: block families that encode the admissibility constraint.

Each member A_i of a family is replaced by factor_i (x) A_i, where
factor_i is the N x N rank-one 0/1 matrix carrying column i of the
transition matrix in its own column i and zeros elsewhere.  Products of
lifted members then vanish exactly on forbidden words, carry the base
product down a single block column on admissible words, and have a
nonzero diagonal block exactly on periodically extendable words, which is
what reduces constrained growth questions to unconstrained ones.

Factor matrices and their products are kept in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    validate_instance,
    validate_word,
)

__all__ = [
    "LiftedSet",
    "omega_factor",
    "lift_set",
    "FactorProductStructure",
    "factor_product_structure",
    "factor_product_dense",
]


def omega_factor(omega: TransitionMatrix, index: int) -> np.ndarray:
    """The N x N matrix whose column ``index`` is that column of the
    transition matrix, with every other column zero."""
    if not 1 <= index <= omega.size:
        raise ValidationError(f"factor index {index} outside 1..{omega.size}")
    out = np.zeros((omega.size, omega.size), dtype=np.int64)
    out[:, index - 1] = omega.entries[:, index - 1]
    return out


@dataclass(frozen=True, eq=False)
class LiftedSet:
    """A matrix family together with its transition lift.

    members[i] = factors[i] (x) base.members[i]; each factor is rank at
    most one with support confined to its own column.
    """

    base: MatrixSet
    omega: TransitionMatrix
    factors: tuple[np.ndarray, ...]
    members: tuple[np.ndarray, ...]
    blocks: int
    block_dim: int

    def __post_init__(self):
        n, d = self.blocks, self.block_dim
        if len(self.factors) != n or len(self.members) != n:
            raise ValidationError("lift needs one factor and one member per base matrix")
        for pos, factor in enumerate(self.factors, start=1):
            if factor.shape != (n, n):
                raise ValidationError(f"factor {pos} has shape {factor.shape}, expected ({n}, {n})")
            off_column = np.delete(factor, pos - 1, axis=1)
            if off_column.any():
                raise ValidationError(f"factor {pos} has support outside column {pos}")
            if not np.array_equal(factor[:, pos - 1], self.omega.entries[:, pos - 1]):
                raise ValidationError(
                    f"factor {pos} column differs from transition matrix column {pos}"
                )
        for pos, member in enumerate(self.members, start=1):
            if member.shape != (n * d, n * d):
                raise ValidationError(
                    f"lifted member {pos} has shape {member.shape}, expected ({n * d}, {n * d})"
                )


def lift_set(matrices: MatrixSet, omega: TransitionMatrix) -> LiftedSet:
    """Construct the transition lift of a validated (family, transitions) pair."""
    validate_instance(matrices, omega)
    factors = tuple(omega_factor(omega, i) for i in range(1, matrices.size + 1))
    members = tuple(
        np.kron(factor, base)
        for factor, base in zip(factors, matrices.members)
    )
    return LiftedSet(
        base=matrices,
        omega=omega,
        factors=factors,
        members=members,
        blocks=matrices.size,
        block_dim=matrices.dim,
    )


@dataclass(frozen=True)
class FactorProductStructure:
    """Rank-one shape of a product of factors along a word.

    The product of factors taken along (i_1, ..., i_n) equals
    scalar * (continuations of i_n placed in column i_1): ``scalar`` is 1
    exactly when the word satisfies the chain condition, ``col`` is always
    the first letter (the only column that can be nonzero),
    ``nonzero_rows`` lists the letters allowed to follow the last one, and
    ``diag_nonzero_at`` is the first letter when the wrap transition
    closes (periodic extendability) and None otherwise.
    """

    is_zero: bool
    scalar: int
    col: int
    nonzero_rows: frozenset[int]
    diag_nonzero_at: int | None

    def to_matrix(self, size: int) -> np.ndarray:
        """Dense integer reconstruction of the product this describes."""
        out = np.zeros((size, size), dtype=np.int64)
        if not self.is_zero:
            for row in self.nonzero_rows:
                out[row - 1, self.col - 1] = 1
        return out


def factor_product_structure(
    omega: TransitionMatrix, word: Sequence[int]
) -> FactorProductStructure:
    """Structure of the factor product along a word, without forming it.

    Agrees entrywise with factor_product_dense; the dense path is kept as
    the slow cross-check.
    """
    w = validate_word(word, omega.size)
    scalar = 1
    for a, b in zip(w, w[1:]):
        if not omega.allows(a, b):
            scalar = 0
            break
    first, last = w[0], w[-1]
    if scalar:
        rows = frozenset(
            int(i) + 1 for i in np.flatnonzero(omega.entries[:, last - 1])
        )
    else:
        rows = frozenset()
    is_zero = scalar == 0 or not rows
    diag = first if (not is_zero and omega.allows(last, first)) else None
    return FactorProductStructure(
        is_zero=is_zero,
        scalar=scalar,
        col=first,
        nonzero_rows=rows,
        diag_nonzero_at=diag,
    )


def factor_product_dense(omega: TransitionMatrix, word: Sequence[int]) -> np.ndarray:
    """Explicit integer product of the factors along a word.

    New letters multiply on the left: the first letter's factor is applied
    first.
    """
    w = validate_word(word, omega.size)
    out = omega_factor(omega, w[0])
    for letter in w[1:]:
        out = omega_factor(omega, letter) @ out
    return out
