"""The transition lift: a plain matrix family that encodes the constraint.

Each member A_i of a family is replaced by factor_i (x) A_i, where
factor_i is the N x N rank-one 0/1 matrix carrying column i of the
transition matrix in its own column i and zeros elsewhere.  Products of
lifted members then vanish exactly on forbidden words, carry the base
product down a single block column on admissible words, and have a
nonzero diagonal block exactly on periodically extendable words, which is
what reduces constrained growth questions to unconstrained ones
(``radius.audit_factor_structure`` checks those three facts).  The lift
is an ordinary ``MatrixSet`` of dimension N*d, so every classical tool
applies to it under the complete transition matrix.

Factor matrices are exact integer arrays.
"""

from __future__ import annotations

import numpy as np

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    validate_instance,
)

__all__ = [
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


def lift_set(matrices: MatrixSet, omega: TransitionMatrix) -> MatrixSet:
    """The transition lift of a validated (family, transitions) pair: the
    N members ``omega_factor(omega, i) (x) A_i``, of dimension N*d, over the
    field of ``matrices``."""
    validate_instance(matrices, omega)
    return MatrixSet(
        dim=matrices.size * matrices.dim,
        members=tuple(
            np.kron(omega_factor(omega, i), base)
            for i, base in enumerate(matrices.members, start=1)
        ),
        field_tag=matrices.field_tag,
    )
