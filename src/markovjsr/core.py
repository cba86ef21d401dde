"""Matrix families, transition matrices, and the word-class taxonomy.

Letters of words and nodes of the transition digraph are 1-based, matching
the usual indexing of matrix families; array storage is ordinary 0-based
numpy underneath.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "WordClass",
    "MatrixSet",
    "TransitionMatrix",
    "validate_instance",
    "validate_word",
    "surviving_nodes",
]


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, range, finiteness)."""


class WordClass(Enum):
    """Admissibility classes of index words, ordered by containment.

    Membership in a class implies membership in every weaker one:

        PERIODICALLY_EXTENDABLE -> INFINITELY_EXTENDABLE -> MARKOV -> CHAIN

    CHAIN only requires consecutive transitions to be allowed; MARKOV
    additionally requires a continuation out of the last letter;
    INFINITELY_EXTENDABLE requires an infinite continuation; and
    PERIODICALLY_EXTENDABLE requires the wrap transition from the last
    letter back to the first.
    """

    CHAIN = "chain"
    MARKOV = "markov"
    INFINITELY_EXTENDABLE = "infinite"
    PERIODICALLY_EXTENDABLE = "periodic"

    @property
    def strictness(self) -> int:
        """Position in the containment chain (definition order); larger is stricter."""
        return _STRICTNESS[self]


_STRICTNESS = {cls: position for position, cls in enumerate(WordClass)}


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """An ordered family of square matrices over the real or complex field.

    Real families are stored as float64, complex ones as complex128; all
    entries must be finite.  Instances are immutable and safe to share.
    """

    dim: int
    members: tuple[np.ndarray, ...]
    field_tag: str = "real"

    def __post_init__(self):
        if self.field_tag not in ("real", "complex"):
            raise ValidationError(
                f"field must be 'real' or 'complex', got {self.field_tag!r}"
            )
        if self.dim < 1:
            raise ValidationError(f"matrix dimension must be positive, got {self.dim}")
        if not self.members:
            raise ValidationError("a matrix family needs at least one member")
        dtype = np.complex128 if self.field_tag == "complex" else np.float64
        frozen = []
        for pos, raw in enumerate(self.members, start=1):
            arr = np.asarray(raw)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError(f"member {pos} has shape {arr.shape}, expected square")
            if arr.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"member {pos} is {arr.shape[0]}x{arr.shape[1]}, "
                    f"expected {self.dim}x{self.dim}"
                )
            if np.iscomplexobj(arr):
                if self.field_tag == "real":
                    if np.any(arr.imag != 0):
                        r, c = np.argwhere(arr.imag != 0)[0] + 1
                        raise ValidationError(
                            f"member {pos} entry ({r},{c}) has a nonzero imaginary "
                            "part in a real family"
                        )
                    arr = arr.real
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                r, c = bad[0] + 1
                raise ValidationError(f"member {pos} entry ({r},{c}) is not finite")
            arr = arr.astype(dtype)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "members", tuple(frozen))

    @property
    def size(self) -> int:
        """Number of members N."""
        return len(self.members)

    @classmethod
    def from_members(cls, members: Sequence, field_tag: str = "real") -> "MatrixSet":
        """Build a family from array-likes, inferring the dimension from the first."""
        if not len(members):
            raise ValidationError("a matrix family needs at least one member")
        first = np.asarray(members[0])
        if first.ndim != 2:
            raise ValidationError(f"member 1 has shape {first.shape}, expected square")
        return cls(dim=int(first.shape[0]), members=tuple(members), field_tag=field_tag)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """An N x N matrix of admissible transitions with entries in {0, 1}.

    Entry (i, j) equal to 1 means letter i may follow letter j: rows index
    destinations, columns index sources.
    """

    size: int
    entries: np.ndarray

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"transition matrix size must be positive, got {self.size}")
        arr = np.asarray(self.entries)
        if arr.shape != (self.size, self.size):
            raise ValidationError(
                f"transition matrix has shape {arr.shape}, expected "
                f"({self.size}, {self.size})"
            )
        binary = (arr == 0) | (arr == 1)
        if not np.all(binary):
            r, c = np.argwhere(~binary)[0] + 1
            value = reprlib.repr(arr.tolist()[r - 1][c - 1])  # a 400-digit integer is cut short
            raise ValidationError(f"transition entry at ({r},{c}) is {value}, expected 0 or 1")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_rows(cls, rows: Sequence) -> "TransitionMatrix":
        try:
            arr = np.asarray(rows)
        except ValueError as exc:
            raise ValidationError(f"transition matrix rows are ragged: {exc}") from exc
        if arr.dtype.kind in "OUS":  # keep each entry as given, so it is judged alone
            arr = np.asarray(rows, dtype=object)
        if arr.ndim != 2:
            raise ValidationError(
                f"transition matrix must be a rectangular 2-dimensional array, got shape {arr.shape}"
            )
        return cls(size=int(arr.shape[0]), entries=arr)

    @classmethod
    def complete(cls, size: int) -> "TransitionMatrix":
        """All transitions allowed: the unconstrained instance."""
        return cls(size=size, entries=np.ones((size, size), dtype=np.int64))

    def allows(self, source: int, target: int) -> bool:
        """True iff letter ``target`` may follow letter ``source``."""
        return bool(self.entries[target - 1, source - 1])


def validate_instance(matrices: MatrixSet, omega: TransitionMatrix) -> tuple[MatrixSet, TransitionMatrix]:
    """Check that a family and a transition matrix form a coherent pair.

    Type-level invariants (squareness, binarity, finiteness) are enforced at
    construction; this adds the cross check that the sizes agree.
    """
    if omega.size != matrices.size:
        raise ValidationError(
            f"transition matrix is {omega.size}x{omega.size} but the family "
            f"has {matrices.size} members"
        )
    return matrices, omega


def validate_word(word: Sequence[int], n_letters: int) -> tuple[int, ...]:
    """Normalize a word to a tuple of 1-based letters, checking the range."""
    w = tuple(int(i) for i in word)
    if not w:
        raise ValidationError("a word must have at least one letter")
    for pos, letter in enumerate(w, start=1):
        if not 1 <= letter <= n_letters:
            raise ValidationError(
                f"word letter {pos} is {letter}, outside 1..{n_letters}"
            )
    return w


def surviving_nodes(omega: TransitionMatrix) -> frozenset[int]:
    """Letters from which arbitrarily long chains start.

    Greatest set S such that every node of S has a successor inside S;
    equivalently, the nodes whose forward walks reach a cycle.  Empty iff
    the transition digraph is acyclic, that is iff the words of every
    class have bounded length: going around a cycle a whole number of
    times gives periodically extendable words of unbounded length.
    """
    adj = omega.entries
    alive = list(range(omega.size))
    while True:
        keep = [j for j in alive if any(adj[i, j] for i in alive)]
        if len(keep) == len(alive):
            return frozenset(j + 1 for j in alive)
        alive = keep

