"""Transition lifts: block families that encode the admissibility constraint.

Each member A_i of a family is replaced by factor_i (x) A_i, where
factor_i is the N x N rank-one 0/1 matrix carrying column i of the
transition matrix in its own column i and zeros elsewhere.  Products of
lifted members then vanish exactly on forbidden words, carry the base
product down a single block column on admissible words, and have a
nonzero diagonal block exactly on periodically extendable words, which is
what reduces constrained growth questions to unconstrained ones
(``radius.audit_factor_structure`` checks those three facts).

Factor matrices are exact integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    validate_instance,
)

__all__ = [
    "LiftedSet",
    "omega_factor",
    "lift_set",
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
