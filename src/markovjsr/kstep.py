"""Order-k admissibility constraints and their one-step recoding.

An order-k constraint allows a letter after the k preceding ones exactly
when the full (k+1)-tuple of them is in the allowed set.  Recoding over
the alphabet of k-tuples that actually occur turns this into an ordinary
transition-matrix instance: state u may be followed by state v when they
overlap in k-1 letters and the combined (k+1)-tuple is allowed, and state
u carries the matrix of its last letter.

Length bookkeeping: an original word of length n >= k corresponds to a
recoded word of length n - k + 1, and the two matrix products differ by
the k-1 leading factors that fold into the initial state.  On the lower
(spectral) side the match is exact: closed recoded walks of length m are
precisely the period-m words whose periodic repetition is admissible, and
both sides assign them the same product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
)
from markovjsr.linalg import NormKind, operator_norm
from markovjsr.radius import (
    BoundKind,
    SandwichReport,
    _Automaton,
    _class_words,
    _sweep,
    sandwich,
)

__all__ = [
    "KStepConstraint",
    "RecodedInstance",
    "recode",
    "window_words",
    "cyclic_words",
    "original_to_recoded",
    "recoded_to_original",
    "EquivalenceRow",
    "KStepEquivalenceReport",
    "radius_equivalence_check",
]


@dataclass(frozen=True)
class KStepConstraint:
    """Admissibility by the k preceding letters: allowed (k+1)-tuples."""

    base_alphabet: int
    k: int
    allowed: frozenset

    def __post_init__(self):
        if self.base_alphabet < 1:
            raise ValidationError(f"alphabet size must be positive, got {self.base_alphabet}")
        if self.k < 1:
            raise ValidationError(f"constraint order must be at least 1, got {self.k}")
        normalized = set()
        for raw in self.allowed:
            t = tuple(int(x) for x in raw)
            if len(t) != self.k + 1:
                raise ValidationError(
                    f"allowed tuple {t} has length {len(t)}, expected {self.k + 1}"
                )
            for letter in t:
                if not 1 <= letter <= self.base_alphabet:
                    raise ValidationError(
                        f"allowed tuple {t} has entry {letter} outside 1..{self.base_alphabet}"
                    )
            normalized.add(t)
        object.__setattr__(self, "allowed", frozenset(normalized))


@dataclass(frozen=True, eq=False)
class RecodedInstance:
    """One-step instance over the tuple alphabet, with the state legend."""

    matrices: MatrixSet
    omega: TransitionMatrix
    states: tuple[tuple[int, ...], ...]


def recode(constraint: KStepConstraint, matrices: MatrixSet) -> RecodedInstance:
    """Recode an order-k constraint into a one-step instance.

    States are the k-tuples occurring as a prefix or suffix of an allowed
    tuple, in lexicographic order; dead tuples never enter the alphabet.
    The matrix of a state is the member of its last letter.  For k = 1
    this reproduces the original instance up to the identity relabeling
    (i,) -> i.
    """
    if matrices.size != constraint.base_alphabet:
        raise ValidationError(
            f"constraint is over {constraint.base_alphabet} letters but the "
            f"family has {matrices.size} members"
        )
    if not constraint.allowed:
        raise ValidationError("the allowed set of an order-k constraint must be nonempty")
    k = constraint.k
    states = sorted({t[:k] for t in constraint.allowed} | {t[1:] for t in constraint.allowed})
    index = {u: pos for pos, u in enumerate(states)}
    size = len(states)
    entries = np.zeros((size, size), dtype=np.int64)
    for u in states:
        for v in states:
            if v[: k - 1] == u[1:k] and u + (v[-1],) in constraint.allowed:
                entries[index[v], index[u]] = 1
    recoded_members = tuple(matrices.members[u[-1] - 1] for u in states)
    return RecodedInstance(
        matrices=MatrixSet(
            dim=matrices.dim, members=recoded_members, field_tag=matrices.field_tag
        ),
        omega=TransitionMatrix(size=size, entries=entries),
        states=tuple(states),
    )


def _window_automaton(constraint: KStepConstraint) -> _Automaton:
    """The window rule over the original alphabet, for the product engine.

    A word's state is its last k letters (all, while it is shorter); a
    letter may follow when the state plus that letter is a prefix of an
    allowed tuple.  Built without ``recode``, so the direct side of the
    equivalence check stays independent.
    """
    k = constraint.k
    prefixes = {t[:j] for t in constraint.allowed for j in range(1, k + 2)}
    states = sorted({p[-k:] for p in prefixes})
    index = {u: pos for pos, u in enumerate(states)}
    letters = range(1, constraint.base_alphabet + 1)

    def state_of(word: tuple[int, ...]) -> int:
        return index[word[-k:]] if word in prefixes else -1

    return _Automaton(
        starts=np.array([state_of((c,)) for c in letters]),
        step=np.array([[state_of(u + (c,)) for c in letters] for u in states]),
        head=np.array([[u[j % len(u)] - 1 for j in range(k)] for u in states]),
    )


def window_words(constraint: KStepConstraint, n: int) -> Iterator[tuple[int, ...]]:
    """Length-n words (n >= k) admissible under the window rule and
    extendable by at least one further letter.

    Every (k+1)-window must be allowed, and the final k letters must be a
    prefix of some allowed tuple; these are exactly the words that recode
    to admissible words of length n - k + 1.
    """
    k = constraint.k
    if n < k:
        raise ValidationError(f"need word length >= {k}, got {n}")
    yield from _class_words(_window_automaton(constraint), n, WordClass.MARKOV)


def cyclic_words(constraint: KStepConstraint, period: int) -> Iterator[tuple[int, ...]]:
    """Words whose bi-infinite periodic repetition is admissible.

    All ``period`` windows of the repetition, taken cyclically, must be
    allowed; the period may be smaller than the constraint order.
    """
    if period < 1:
        raise ValidationError(f"period must be positive, got {period}")
    yield from _class_words(
        _window_automaton(constraint), period, WordClass.PERIODICALLY_EXTENDABLE
    )


def original_to_recoded(
    word: Sequence[int], constraint: KStepConstraint
) -> tuple[tuple[int, ...], ...]:
    """Sliding k-windows of an original word: its recoded state word."""
    w = tuple(int(x) for x in word)
    k = constraint.k
    if len(w) < k:
        raise ValidationError(f"need word length >= {k}, got {len(w)}")
    return tuple(w[j : j + k] for j in range(len(w) - k + 1))


def recoded_to_original(state_word: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Original word of a recoded state word: first state, then last letters."""
    states = [tuple(int(x) for x in s) for s in state_word]
    if not states:
        raise ValidationError("a state word must have at least one state")
    return states[0] + tuple(s[-1] for s in states[1:])


@dataclass(frozen=True)
class EquivalenceRow:
    """Matched-length bound values from the recoded and the direct side."""

    recoded_length: int
    original_length: int
    recoded_upper: float
    direct_upper: float
    recoded_lower: float
    direct_lower: float


@dataclass(frozen=True, eq=False)
class KStepEquivalenceReport:
    """Recoded-vs-direct comparison of the growth bounds.

    Lower aggregates must agree to iteration noise: the two sides
    enumerate the same periodic products.  Both upper aggregates are
    certified to lie between the growth rate (bounded below by the
    recoded lower aggregate) and ``direct_upper_cap`` (the recoded upper
    values with the worst-case prefix factor attached), so they agree
    within the width of that envelope, which shrinks as n_max grows.
    """

    order: int
    rows: tuple[EquivalenceRow, ...]
    recoded: SandwichReport
    best_upper_recoded: float
    best_upper_direct: float
    best_lower_recoded: float
    best_lower_direct: float
    direct_upper_cap: float
    lower_tol: float
    upper_tol: float

    @property
    def lower_diff(self) -> float:
        return abs(self.best_lower_recoded - self.best_lower_direct)

    @property
    def upper_diff(self) -> float:
        return abs(self.best_upper_recoded - self.best_upper_direct)

    @property
    def direct_upper_within_cap(self) -> bool:
        return self.best_upper_direct <= self.direct_upper_cap * (1 + 1e-12) + 1e-15

    @property
    def agrees(self) -> bool:
        return (
            self.lower_diff <= self.lower_tol
            and self.upper_diff <= self.upper_tol
            and self.direct_upper_within_cap
            # the certified interval must be crossed consistently
            and self.best_lower_recoded <= self.best_upper_direct + self.lower_tol
            and self.best_lower_direct <= self.best_upper_recoded + self.lower_tol
        )


def _direct_bounds(
    constraint: KStepConstraint,
    matrices: MatrixSet,
    n_max: int,
    norm: NormKind,
) -> tuple[list[float], list[float]]:
    """Brute-force bounds on the original alphabet for m = 1..n_max.

    Upper: sup ||product||^(1/n) over window-admissible extendable words
    of length n = m + k - 1.  Lower: sup rho(product)^(1/m) over
    cyclically admissible words of period m.  One expansion serves both.
    """
    k = constraint.k
    sweep = _sweep(
        _window_automaton(constraint), np.stack(matrices.members), n_max + k - 1,
        partial(operator_norm, kind=norm), WordClass.PERIODICALLY_EXTENDABLE,
        range(1, n_max + 1),
    )
    lengths = range(1, n_max + 1)
    upper = [sweep.point(m + k - 1, WordClass.MARKOV, BoundKind.NORM).value for m in lengths]
    lower = [
        sweep.point(m, WordClass.PERIODICALLY_EXTENDABLE, BoundKind.SPECTRAL).value
        for m in lengths
    ]
    return upper, lower


def radius_equivalence_check(
    constraint: KStepConstraint,
    matrices: MatrixSet,
    n_max: int,
    norm: NormKind = NormKind.ROWSUM,
) -> KStepEquivalenceReport:
    """Compare the recoded sandwich against direct brute-force bounds.

    Matched lengths: recoded length m against original length m + k - 1
    on the norm side, and against period m on the spectral side.
    """
    rec = recode(constraint, matrices)
    report = sandwich(rec.matrices, rec.omega, n_max, norm=norm)
    upper_by_n = {p.n: p.value for p in report.upper_points()}
    lower_by_n = {p.n: p.value for p in report.lower_points()}
    k = constraint.k
    direct_uppers, direct_lowers = _direct_bounds(constraint, matrices, n_max, norm)
    rows = [
        EquivalenceRow(
            recoded_length=m,
            original_length=m + k - 1,
            recoded_upper=upper_by_n[m],
            direct_upper=du,
            recoded_lower=lower_by_n[m],
            direct_lower=dl,
        )
        for m, du, dl in zip(range(1, n_max + 1), direct_uppers, direct_lowers)
    ]
    best_upper_direct = min(direct_uppers)
    best_lower_direct = max(direct_lowers)
    alpha = max(operator_norm(m, norm) for m in matrices.members)
    lower_tol = 1e-9 * abs(report.best_lower)
    # every direct product is a recoded product times k-1 leading factors of
    # norm at most alpha, giving the certified cap on the direct upper side
    cap = min(
        (upper_by_n[m] ** m * alpha ** (k - 1.0)) ** (1.0 / (m + k - 1.0))
        for m in range(1, n_max + 1)
    )
    # both uppers sit between the rate (>= the recoded lower aggregate) and
    # the larger of themselves and the cap; the envelope width bounds their
    # disagreement and shrinks as the sandwich closes
    envelope = max(report.best_upper, cap) - report.best_lower
    upper_tol = envelope + 1e-9 * abs(report.best_upper)
    return KStepEquivalenceReport(
        order=k,
        rows=tuple(rows),
        recoded=report,
        best_upper_recoded=report.best_upper,
        best_upper_direct=best_upper_direct,
        best_lower_recoded=report.best_lower,
        best_lower_direct=best_lower_direct,
        direct_upper_cap=cap,
        lower_tol=lower_tol,
        upper_tol=upper_tol,
    )
