"""Classification and enumeration of index words over the transition digraph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from markovjsr.core import (
    TransitionMatrix,
    ValidationError,
    WordClass,
    surviving_nodes,
    validate_word,
)
from markovjsr.radius import _Automaton, _class_words

__all__ = [
    "TransitionDigraph",
    "classify",
    "enumerate_words",
    "count_words",
]


@dataclass(frozen=True, eq=False)
class TransitionDigraph:
    """Successor structure of a transition matrix with reachability flags.

    Node j has an edge to node i iff letter i may follow letter j, i.e.
    iff entry (i, j) of the transition matrix is 1.  ``has_out_edge``
    marks letters with any continuation, ``can_reach_cycle`` marks letters
    from which an infinite walk exists; both are precomputed so class
    membership of a word is O(1) once the chain condition is known.
    """

    size: int
    successors: tuple[tuple[int, ...], ...]
    has_out_edge: tuple[bool, ...]
    can_reach_cycle: tuple[bool, ...]

    @classmethod
    def from_omega(cls, omega: TransitionMatrix) -> "TransitionDigraph":
        n = omega.size
        succ = tuple(
            tuple(int(i) + 1 for i in np.flatnonzero(omega.entries[:, j]))
            for j in range(n)
        )
        alive = surviving_nodes(omega)
        return cls(
            size=n,
            successors=succ,
            has_out_edge=tuple(bool(s) for s in succ),
            can_reach_cycle=tuple((j + 1) in alive for j in range(n)),
        )


def classify(
    word: Sequence[int],
    omega: TransitionMatrix,
    digraph: TransitionDigraph | None = None,
) -> frozenset[WordClass]:
    """Word-class memberships of an index word.

    Empty when a consecutive transition is forbidden; otherwise contains
    CHAIN plus the stronger classes decided by the final letter (and, for
    periodic extendability, by the wrap transition back to the first
    letter).  A single letter satisfies the chain condition vacuously.
    """
    w = validate_word(word, omega.size)
    dg = digraph if digraph is not None else TransitionDigraph.from_omega(omega)
    for a, b in zip(w, w[1:]):
        if not omega.allows(a, b):
            return frozenset()
    found = {WordClass.CHAIN}
    last = w[-1]
    if dg.has_out_edge[last - 1]:
        found.add(WordClass.MARKOV)
    if dg.can_reach_cycle[last - 1]:
        found.add(WordClass.INFINITELY_EXTENDABLE)
    if omega.allows(last, w[0]):
        found.add(WordClass.PERIODICALLY_EXTENDABLE)
    return frozenset(found)


def enumerate_words(
    omega: TransitionMatrix,
    n: int,
    word_class: WordClass = WordClass.CHAIN,
) -> Iterator[tuple[int, ...]]:
    """Yield the length-n words of the class in lexicographic order.

    A view on the product engine of ``markovjsr.radius``, run without
    products: only chain prefixes are ever extended (cost proportional to
    the number of chain words, not to the alphabet power), chunk by chunk,
    and the class condition is a mask on each word's first and last
    letter.  Lazy, so callers can stop early.
    """
    if n < 1:
        raise ValidationError(f"word length must be positive, got {n}")
    yield from _class_words(_Automaton.from_omega(omega), n, word_class)


def count_words(
    omega: TransitionMatrix,
    n: int,
    word_class: WordClass = WordClass.CHAIN,
) -> int:
    """Transfer-matrix count of the length-n words of the class.

    Chain words of length n are walks of length n-1, so their number is
    the total of the (n-1)-th power of the transition matrix; the other
    classes restrict the final letter (rows with a continuation / rows
    that reach a cycle) or close the walk (trace, for the periodic class).
    Exact integer arithmetic, so counts never overflow.
    """
    if n < 1:
        raise ValidationError(f"word length must be positive, got {n}")
    base = omega.entries.astype(object)  # Python integers: exact, never overflow
    power = np.linalg.matrix_power(base, n - 1)  # walks of length n-1, last letter first
    if word_class is WordClass.PERIODICALLY_EXTENDABLE:
        return int(np.trace(base @ power))  # walks of length n from i1 back to i1
    dg = TransitionDigraph.from_omega(omega)
    last_ok = {
        WordClass.CHAIN: [True] * omega.size,
        WordClass.MARKOV: dg.has_out_edge,
        WordClass.INFINITELY_EXTENDABLE: dg.can_reach_cycle,
    }[word_class]
    return int(power[np.array(last_ok)].sum())
