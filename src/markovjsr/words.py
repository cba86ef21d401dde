"""Classification and enumeration of index words over the transition digraph."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from markovjsr.core import (
    TransitionMatrix,
    WordClass,
    surviving_nodes,
    validate_word,
)
from markovjsr.radius import _Automaton, _check_length, _class_words

__all__ = [
    "classify",
    "enumerate_words",
    "count_words",
]


def classify(word: Sequence[int], omega: TransitionMatrix) -> frozenset[WordClass]:
    """Word-class memberships of an index word.

    Empty when a consecutive transition is forbidden; otherwise contains
    CHAIN plus the stronger classes decided by the final letter (and, for
    periodic extendability, by the wrap transition back to the first
    letter).  A single letter satisfies the chain condition vacuously.
    """
    w = validate_word(word, omega.size)
    for a, b in zip(w, w[1:]):
        if not omega.allows(a, b):
            return frozenset()
    found = {WordClass.CHAIN}
    last = w[-1]
    if omega.entries[:, last - 1].any():
        found.add(WordClass.MARKOV)
    if last in surviving_nodes(omega):
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
    and a word is listed when its strictest class, found from its first
    and last letter, is the class or a stricter one.  Lazy, so callers can stop early.
    """
    _check_length(n)
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
    _check_length(n)
    base = omega.entries.astype(object)  # Python integers: exact, never overflow
    power = np.linalg.matrix_power(base, n - 1)  # walks of length n-1, last letter first
    if word_class is WordClass.PERIODICALLY_EXTENDABLE:
        return int(np.trace(base @ power))  # walks of length n from i1 back to i1
    if word_class is WordClass.MARKOV:
        power = power[omega.entries.any(axis=0)]  # last letters with a continuation
    elif word_class is WordClass.INFINITELY_EXTENDABLE:
        power = power[[j - 1 for j in sorted(surviving_nodes(omega))]]
    return int(power.sum())
