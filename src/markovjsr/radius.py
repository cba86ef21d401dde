"""Growth-rate bound sequences, sandwich aggregation, and lift equality checks.

Product convention used everywhere: the word (i_1, ..., i_n) denotes
A_{i_n} ... A_{i_1} -- new letters multiply on the LEFT, the first letter
is applied first.

For each length n, the norm bound is sup ||product||^(1/n) over the words
of a class, and the spectral bound is sup rho(product)^(1/n); the
supremum over an empty word set is 0 by convention, with the emptiness
recorded separately so that "0 because no words" and "0 because all
products vanish" stay distinguishable.

Every supremum comes from one product engine.  ``_expand`` walks the
words of an automaton (the state of a word is its last letter, or its
last k letters under an order-k rule) depth-first over chunks: a chunk's
children are one ``np.matmul(A[letter], P[parent])``, parent-major with
letters ascending, so each length comes out in lexicographic order, and
parents are sliced so that a chunk holds about ``_CHUNK_BYTES`` of
products.  ``_sweep`` takes from that single pass the counts and norm
suprema of every length and class (class membership is a vector mask on
each word's first and last state) and the spectral suprema of one class,
fed to the kernel through one buffer tagged by length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterator

import numpy as np

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
    validate_instance,
)
from markovjsr.lift import LiftedSet, lift_set, omega_factor
from markovjsr.linalg import (
    NormKind,
    block_norm,
    operator_norm,
    spectral_radii,
)

__all__ = [
    "NORM_TOL",
    "SPECTRAL_TOL",
    "BoundKind",
    "BoundSequencePoint",
    "rho_n",
    "rho_hat_n",
    "rho_n_lifted",
    "rho_hat_n_lifted",
    "LiftEqualityCheck",
    "verify_lift_equalities",
    "CrossBound",
    "SandwichReport",
    "sandwich",
    "classical_bounds",
    "alternative_class_chain",
    "FactorStructureAudit",
    "audit_factor_structure",
    "ClassChainCheck",
    "VerificationReport",
    "full_verification",
]

# A frontier chunk holds about _CHUNK_BYTES of products, that is
# _CHUNK_BYTES // (d*d*itemsize) words, but never fewer than
# _MIN_CHUNK_ROWS: every numpy call has a fixed cost.  The spectral kernel
# gets _KERNEL_CHUNKS chunks' worth of products per call.
_CHUNK_BYTES = 1 << 15
_MIN_CHUNK_ROWS = 32
_KERNEL_CHUNKS = 8

# Relative tolerances of the lift equality checks.  The spectral one is
# looser because both spectral columns come out of the iterative kernel.
NORM_TOL = 1e-9
SPECTRAL_TOL = 1e-7

# The class-chain view, weakest-class last.
_CHAIN_ORDER = tuple(sorted(WordClass, key=lambda c: -c.strictness))


class BoundKind(Enum):
    NORM = "norm"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class BoundSequencePoint:
    """One finite-length bound value.

    ``lifted`` points range over every word of the given length on the
    lifted family (their word set is never empty and they are tagged with
    the CHAIN class of the complete digraph); unlifted points range over
    the words of ``word_class``.
    """

    n: int
    value: float
    kind: BoundKind
    word_class: WordClass
    lifted: bool
    empty_word_set: bool

    def __post_init__(self):
        if self.empty_word_set and self.value != 0.0:
            raise ValidationError("an empty word set must report the bound 0")


def _check_length(n: int) -> None:
    if n < 1:
        raise ValidationError(f"word length must be positive, got {n}")


class _Automaton:
    """Which letter may extend a word, decided by the word's state.

    Letters and states are 0-based; ``starts[c]`` is the state of the word
    (c,) and ``step[s, c]`` the state after appending c to a word in state
    s, with -1 where c may not start or follow.  A word's first state is
    its state after ``head.shape[1]`` letters (or all, if it is shorter);
    it is periodically extendable iff the letters ``head[first state]``
    that open its periodic repetition may follow it.
    """

    def __init__(self, starts: np.ndarray, step: np.ndarray, head: np.ndarray):
        self.starts, self.step, self.head = starts, step, head
        self.allowed = step >= 0
        self.width = max(1, int(self.allowed.sum(axis=1).max()))
        self.has_out = alive = self.allowed.any(axis=1)
        # states with an infinite walk: the greatest set closed under some step
        while not np.array_equal(alive, more := (self.allowed & alive[step]).any(axis=1)):
            alive = more
        self.alive = alive

    @classmethod
    def from_omega(cls, omega: TransitionMatrix) -> "_Automaton":
        """States are letters; letter i may follow j iff omega[i, j] is 1."""
        letters = np.arange(omega.size)
        return cls(letters, np.where(omega.entries.T == 1, letters, -1), letters[:, None])

    def classes(self, first: np.ndarray, state: np.ndarray) -> np.ndarray:
        """(W, 4) class membership of chain words, columns by strictness."""
        closing = state
        for letter in self.head[first].T:
            closing = np.where(closing >= 0, self.step[closing, letter], -1)
        chain = np.ones(state.shape, dtype=bool)
        return np.stack((chain, self.has_out[state], self.alive[state], closing >= 0), axis=1)


@dataclass(frozen=True, eq=False)
class _Chunk:
    """Words of one length in lexicographic order, with their products."""

    n: int
    first: np.ndarray               # (W,) first states
    state: np.ndarray               # (W,) states
    products: np.ndarray | None     # (W, d, d)
    words: np.ndarray | None        # (W, n) 0-based letters


def _children(
    automaton: _Automaton, members: np.ndarray | None, chunk: _Chunk, lo: int, hi: int
) -> _Chunk:
    """The extensions by one letter of words lo..hi-1 of a chunk."""
    parent, letter = np.nonzero(automaton.allowed[chunk.state[lo:hi]])
    parent += lo
    state = automaton.step[chunk.state[parent], letter]
    return _Chunk(
        n=chunk.n + 1,
        first=state if chunk.n < automaton.head.shape[1] else chunk.first[parent],
        state=state,
        products=None if members is None else np.matmul(members[letter], chunk.products[parent]),
        words=None if chunk.words is None else np.column_stack((chunk.words[parent], letter)),
    )


def _chunk_rows(row_bytes: int) -> int:
    return max(_MIN_CHUNK_ROWS, _CHUNK_BYTES // row_bytes)


def _expand(
    automaton: _Automaton, members: np.ndarray | None, n_max: int, words: bool = False
) -> Iterator[_Chunk]:
    """Every word of lengths 1..n_max, chunk by chunk, depth-first.

    ``members`` is the (L, d, d) stack of letter matrices, or None to form
    no products; ``words`` keeps the letters.  Each chunk is followed by
    the subtrees of its slices, so every length arrives in lexicographic
    order.  The walk keeps an explicit stack of (chunk, next slice), one
    entry per length, so n_max is not bounded by the recursion limit.
    """
    row_bytes = (0 if members is None else members[0].nbytes) + (8 * n_max if words else 0)
    per_parent = max(1, _chunk_rows(row_bytes) // automaton.width)
    letters = np.flatnonzero(automaton.starts >= 0)
    state = automaton.starts[letters]
    root = _Chunk(
        1, state, state,
        None if members is None else members[letters],
        letters[:, None] if words else None,
    )
    if not len(state):
        return
    yield root
    stack = [(root, 0)]
    while stack:
        chunk, lo = stack.pop()
        if chunk.n == n_max or lo >= len(chunk.state):
            continue
        stack.append((chunk, lo + per_parent))
        child = _children(automaton, members, chunk, lo, lo + per_parent)
        if len(child.state):
            yield child
            stack.append((child, 0))


def _class_words(automaton: _Automaton, n: int, word_class: WordClass) -> Iterator[tuple]:
    """The length-n words of a class as 1-based tuples, lexicographically."""
    for chunk in _expand(automaton, None, n, words=True):
        if chunk.n == n:
            keep = automaton.classes(chunk.first, chunk.state)[:, word_class.strictness]
            yield from map(tuple, (chunk.words[keep] + 1).tolist())


@dataclass(frozen=True, eq=False)
class _Sweep:
    """Word counts and suprema by length (rows; row 0 unused) and class
    (columns, in WordClass.strictness order)."""

    counts: np.ndarray
    norm_sup: np.ndarray
    spectral_sup: np.ndarray

    def point(self, n: int, word_class: WordClass, kind: BoundKind) -> BoundSequencePoint:
        column = word_class.strictness
        empty = bool(self.counts[n, column] == 0)
        sup = self.norm_sup if kind is BoundKind.NORM else self.spectral_sup
        return BoundSequencePoint(
            n=n, value=0.0 if empty else float(sup[n, column]) ** (1.0 / n), kind=kind,
            word_class=word_class, lifted=False, empty_word_set=empty,
        )


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"non-finite {what}: the matrix products overflow at this scale")


def _sweep(
    automaton: _Automaton,
    members: np.ndarray,
    n_max: int,
    norm_of: Callable[[np.ndarray], np.ndarray],
    spectral: WordClass | None = None,
    spectral_lengths: range | None = None,
) -> _Sweep:
    """One expansion to n_max: counts and norm suprema of every length and
    class, and the spectral suprema of the class ``spectral`` at
    ``spectral_lengths`` (default: every length)."""
    shape = (n_max + 1, len(WordClass))
    counts = np.zeros(shape, dtype=np.int64)
    norm_sup, spectral_sup = np.zeros(shape), np.zeros(shape)
    if spectral_lengths is None:
        spectral_lengths = range(1, n_max + 1)
    rows = _KERNEL_CHUNKS * _chunk_rows(members[0].nbytes)
    buffer = None if spectral is None else np.empty((rows, *members.shape[1:]), members.dtype)
    tags = np.empty(rows, dtype=np.intp)
    fill = 0

    def flush() -> None:
        nonlocal fill
        radii = spectral_radii(buffer[:fill])
        _require_finite(radii, "spectral radius")
        np.maximum.at(spectral_sup[:, spectral.strictness], tags[:fill], radii)
        fill = 0

    # overflow is reported as a ValidationError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _expand(automaton, members, n_max):
            n = chunk.n
            member = automaton.classes(chunk.first, chunk.state)
            counts[n] += member.sum(axis=0)
            norms = norm_of(chunk.products)
            _require_finite(norms, f"product norm at word length {n}")
            by_class = np.where(member, norms[:, None], 0.0).max(axis=0)
            norm_sup[n] = np.maximum(norm_sup[n], by_class)
            if spectral is None or n not in spectral_lengths:
                continue
            chosen = chunk.products[member[:, spectral.strictness]]
            while len(chosen):
                take = min(rows - fill, len(chosen))
                buffer[fill:fill + take], tags[fill:fill + take] = chosen[:take], n
                fill += take
                chosen = chosen[take:]
                if fill == rows:
                    flush()
    if fill:
        flush()
    return _Sweep(counts=counts, norm_sup=norm_sup, spectral_sup=spectral_sup)


def _constrained_sweep(
    matrices: MatrixSet, omega: TransitionMatrix, n_max: int, norm: NormKind, **spectral
) -> _Sweep:
    """_sweep over the chain words of a transition matrix."""
    return _sweep(
        _Automaton.from_omega(omega), np.stack(matrices.members), n_max,
        partial(operator_norm, kind=norm), **spectral,
    )


def _lifted_sweep(lifted: LiftedSet, n_max: int, norm: NormKind, **spectral) -> _Sweep:
    """_sweep over every word of the complete alphabet on the lifted family,
    with block norms: the dense oracle of the lift equalities."""
    return _sweep(
        _Automaton.from_omega(TransitionMatrix.complete(lifted.blocks)),
        np.stack(lifted.members), n_max,
        partial(block_norm, blocks=lifted.blocks, block_dim=lifted.block_dim, inner=norm),
        **spectral,
    )


def rho_n(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n: int,
    word_class: WordClass = WordClass.MARKOV,
    norm: NormKind = NormKind.ROWSUM,
) -> BoundSequencePoint:
    """Norm bound: sup over length-n words of the class of ||product||^(1/n)."""
    validate_instance(matrices, omega)
    _check_length(n)
    return _constrained_sweep(matrices, omega, n, norm).point(n, word_class, BoundKind.NORM)


def rho_hat_n(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n: int,
    word_class: WordClass = WordClass.PERIODICALLY_EXTENDABLE,
) -> BoundSequencePoint:
    """Spectral bound: sup over length-n words of the class of rho(product)^(1/n).

    The periodic and Markov classes are the ones the bound chain reports;
    the computation is well-defined for any class.
    """
    validate_instance(matrices, omega)
    _check_length(n)
    sweep = _constrained_sweep(
        matrices, omega, n, NormKind.ROWSUM,
        spectral=word_class, spectral_lengths=range(n, n + 1),
    )
    return sweep.point(n, word_class, BoundKind.SPECTRAL)


def rho_n_lifted(
    lifted: LiftedSet,
    n: int,
    norm: NormKind = NormKind.ROWSUM,
) -> BoundSequencePoint:
    """Norm bound over ALL length-n words on the lifted family.

    Multiplies the full block matrices for every word of the complete
    alphabet and takes the block norm: the independent dense oracle.  By
    the rank-one factor algebra, products vanish off the admissible words
    and otherwise repeat the base product down a single block column, so
    the value equals rho_n on the base family with the Markov class.
    """
    _check_length(n)
    point = _lifted_sweep(lifted, n, norm).point(n, WordClass.CHAIN, BoundKind.NORM)
    return replace(point, lifted=True)


def rho_hat_n_lifted(lifted: LiftedSet, n: int) -> BoundSequencePoint:
    """Spectral bound over ALL length-n words on the lifted family, by the
    same dense oracle.

    Only periodically extendable words can contribute: forbidden words
    give the zero product and admissible non-periodic ones give a single
    off-diagonal block column, hence a nilpotent product; so the value
    equals rho_hat_n on the base family with the periodic class.
    """
    _check_length(n)
    sweep = _lifted_sweep(
        lifted, n, NormKind.ROWSUM, spectral=WordClass.CHAIN, spectral_lengths=range(n, n + 1)
    )
    return replace(sweep.point(n, WordClass.CHAIN, BoundKind.SPECTRAL), lifted=True)


@dataclass(frozen=True)
class LiftEqualityCheck:
    """Two-sided evaluation of the lift equalities at one length.

    The lifted side is computed with the dense engine over the complete
    alphabet, the constrained side by class-filtered enumeration, so the
    two columns share no shortcut.
    """

    n: int
    norm_lifted: float
    norm_constrained: float
    spectral_lifted: float
    spectral_periodic: float

    @property
    def norm_diff(self) -> float:
        return abs(self.norm_lifted - self.norm_constrained)

    @property
    def spectral_diff(self) -> float:
        return abs(self.spectral_lifted - self.spectral_periodic)

    @property
    def max_abs_diff(self) -> float:
        return max(self.norm_diff, self.spectral_diff)

    @property
    def norm_ok(self) -> bool:
        scale = max(abs(self.norm_lifted), abs(self.norm_constrained))
        return self.norm_diff <= NORM_TOL * scale

    @property
    def spectral_ok(self) -> bool:
        scale = max(abs(self.spectral_lifted), abs(self.spectral_periodic))
        return self.spectral_diff <= SPECTRAL_TOL * scale

    @property
    def passed(self) -> bool:
        return self.norm_ok and self.spectral_ok


def verify_lift_equalities(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n: int,
    norm: NormKind = NormKind.ROWSUM,
) -> LiftEqualityCheck:
    """Check the two lift equalities at length n by computing all four sides,
    to the relative tolerances NORM_TOL and SPECTRAL_TOL."""
    validate_instance(matrices, omega)
    _check_length(n)
    only_n = range(n, n + 1)
    return _equality_check(
        n,
        _constrained_sweep(
            matrices, omega, n, norm,
            spectral=WordClass.PERIODICALLY_EXTENDABLE, spectral_lengths=only_n,
        ),
        _lifted_sweep(
            lift_set(matrices, omega), n, norm, spectral=WordClass.CHAIN, spectral_lengths=only_n
        ),
    )


def _equality_check(n: int, constrained: _Sweep, lifted: _Sweep) -> LiftEqualityCheck:
    return LiftEqualityCheck(
        n=n,
        norm_lifted=lifted.point(n, WordClass.CHAIN, BoundKind.NORM).value,
        norm_constrained=constrained.point(n, WordClass.MARKOV, BoundKind.NORM).value,
        spectral_lifted=lifted.point(n, WordClass.CHAIN, BoundKind.SPECTRAL).value,
        spectral_periodic=constrained.point(
            n, WordClass.PERIODICALLY_EXTENDABLE, BoundKind.SPECTRAL
        ).value,
    )


@dataclass(frozen=True)
class CrossBound:
    """Chain-class bound against the one-step-shorter admissible bound.

    chain_value is the chain-class norm bound at length n and cap is
    alpha^(1/n) * (admissible bound at n-1)^((n-1)/n); dropping the last
    factor of a chain word leaves an admissible word, which is what makes
    cap an upper bound.
    """

    n: int
    chain_value: float
    cap: float

    @property
    def slack(self) -> float:
        return self.cap - self.chain_value

    @property
    def ok(self) -> bool:
        return self.chain_value <= self.cap * (1.0 + 1e-12) + 1e-300


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Per-length bound pairs and their best aggregates.

    best_upper is the running minimum of the upper norm bounds (their
    n-th powers are sub-multiplicative in n, so the infimum equals the
    limit); best_lower is the running maximum of the periodic spectral
    bounds.  alpha is the largest member norm, used by the cross bounds.
    """

    points: tuple[BoundSequencePoint, ...]
    best_lower: float
    best_lower_n: int
    best_upper: float
    best_upper_n: int
    gap: float
    alpha: float
    cross_bounds: tuple[CrossBound, ...]
    norm: NormKind
    n_max: int
    upper_class: WordClass

    def upper_points(self) -> tuple[BoundSequencePoint, ...]:
        return tuple(p for p in self.points if p.kind is BoundKind.NORM)

    def lower_points(self) -> tuple[BoundSequencePoint, ...]:
        return tuple(p for p in self.points if p.kind is BoundKind.SPECTRAL)


def sandwich(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n_max: int,
    norm: NormKind = NormKind.ROWSUM,
    upper_class: WordClass = WordClass.MARKOV,
) -> SandwichReport:
    """Two-sided bounds on the constrained growth rate for n = 1..n_max.

    Upper side: norm bounds over the admissible class (by default); lower
    side: spectral bounds over periodically extendable words.  Every
    report also carries the per-length chain-class cross bound.  A lower
    aggregate exceeding the upper one by more than a relative 1e-9
    cannot happen in exact arithmetic, only through rounding (products
    that underflow, for one), and raises ValidationError, as do products
    that overflow.

    upper_class may be CHAIN, MARKOV, or INFINITELY_EXTENDABLE: those word
    sets split under concatenation, so their running minimum certifiably
    stays above the growth rate.  The periodic class does not qualify (its
    word set can be empty at individual lengths, putting the norm bound
    below the rate), so it is rejected here; per-length periodic values
    are available through alternative_class_chain.
    """
    validate_instance(matrices, omega)
    _check_length(n_max)
    if upper_class is WordClass.PERIODICALLY_EXTENDABLE:
        raise ValidationError(
            "periodic-class norm bounds can undershoot the growth rate at fixed "
            "lengths and cannot serve as upper bounds; tabulate them with the "
            "class-chain view instead"
        )
    sweep = _constrained_sweep(
        matrices, omega, n_max, norm, spectral=WordClass.PERIODICALLY_EXTENDABLE
    )
    return _sandwich_report(sweep, matrices, n_max, norm, upper_class)


def _sandwich_report(
    sweep: _Sweep, matrices: MatrixSet, n_max: int, norm: NormKind, upper_class: WordClass
) -> SandwichReport:
    lengths = range(1, n_max + 1)
    upper = [sweep.point(n, upper_class, BoundKind.NORM) for n in lengths]
    lower = [
        sweep.point(n, WordClass.PERIODICALLY_EXTENDABLE, BoundKind.SPECTRAL)
        for n in lengths
    ]
    alpha = max(operator_norm(m, norm) for m in matrices.members)
    cross = tuple(
        CrossBound(
            n=n,
            chain_value=sweep.point(n, WordClass.CHAIN, BoundKind.NORM).value,
            cap=alpha ** (1.0 / n)
            * sweep.point(n - 1, WordClass.MARKOV, BoundKind.NORM).value ** ((n - 1.0) / n),
        )
        for n in range(2, n_max + 1)
    )
    upper_vals = [p.value for p in upper]
    lower_vals = [p.value for p in lower]
    best_upper = min(upper_vals)
    best_upper_n = upper_vals.index(best_upper) + 1
    best_lower = max(lower_vals)
    best_lower_n = lower_vals.index(best_lower) + 1
    if best_lower > best_upper * (1.0 + 1e-9):
        raise ValidationError(
            f"sandwich inverted: lower bound {best_lower} exceeds upper bound "
            f"{best_upper}; matrix products that underflow at this scale do this"
        )
    return SandwichReport(
        points=tuple(p for pair in zip(upper, lower) for p in pair),
        best_lower=best_lower,
        best_lower_n=best_lower_n,
        best_upper=best_upper,
        best_upper_n=best_upper_n,
        gap=best_upper - best_lower,
        alpha=alpha,
        cross_bounds=cross,
        norm=norm,
        n_max=n_max,
        upper_class=upper_class,
    )


def classical_bounds(
    matrices: MatrixSet, n_max: int, norm: NormKind = NormKind.ROWSUM
) -> SandwichReport:
    """Unconstrained sandwich: every transition allowed."""
    return sandwich(matrices, TransitionMatrix.complete(matrices.size), n_max, norm=norm)


def alternative_class_chain(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n: int,
    norm: NormKind = NormKind.ROWSUM,
) -> tuple[BoundSequencePoint, BoundSequencePoint, BoundSequencePoint, BoundSequencePoint]:
    """Norm bounds for the four classes at one length, weakest-class last.

    Ordered (periodic, infinite, admissible, chain); containment of the
    word sets makes the values nondecreasing left to right.
    """
    validate_instance(matrices, omega)
    _check_length(n)
    return _class_chain(_constrained_sweep(matrices, omega, n, norm), n)


def _class_chain(sweep: _Sweep, n: int) -> tuple[BoundSequencePoint, ...]:
    return tuple(sweep.point(n, cls, BoundKind.NORM) for cls in _CHAIN_ORDER)


@dataclass(frozen=True)
class FactorStructureAudit:
    """Outcome of checking the factor-product structure on chain words."""

    words_checked: int
    representation_ok: bool
    nonzero_iff_admissible_ok: bool
    diagonal_iff_periodic_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.representation_ok
            and self.nonzero_iff_admissible_ok
            and self.diagonal_iff_periodic_ok
        )


def audit_factor_structure(
    omega: TransitionMatrix, n_max: int
) -> FactorStructureAudit:
    """Check the rank-one factor algebra on every chain word up to length
    n_max, in exact integer arithmetic.

    The engine multiplies the ``omega_factor`` matrices along each word.
    The product must be the continuations of the last letter placed in the
    column of the first, nonzero exactly on admissible words, and with a
    nonzero diagonal (at the first letter) exactly on periodically
    extendable words.
    """
    _check_length(n_max)
    automaton = _Automaton.from_omega(omega)
    factors = np.stack([omega_factor(omega, i) for i in range(1, omega.size + 1)])
    checked = 0
    rep_ok = nz_ok = diag_ok = True
    for chunk in _expand(automaton, factors, n_max):
        products, first, last = chunk.products, chunk.first, chunk.state
        words = np.arange(len(first))
        classes = automaton.classes(first, last)
        markov = classes[:, WordClass.MARKOV.strictness]
        periodic = classes[:, WordClass.PERIODICALLY_EXTENDABLE.strictness]
        predicted = np.zeros_like(products)
        predicted[words, :, first] = omega.entries[:, last].T
        checked += len(words)
        rep_ok &= np.array_equal(products, predicted)
        nz_ok &= np.array_equal(products.any(axis=(1, 2)), markov)
        diag_ok &= np.array_equal(products[words, first, first] != 0, periodic)
        diag_ok &= np.array_equal(np.diagonal(products, axis1=1, axis2=2).any(axis=1), periodic)
    return FactorStructureAudit(
        words_checked=checked,
        representation_ok=bool(rep_ok),
        nonzero_iff_admissible_ok=bool(nz_ok),
        diagonal_iff_periodic_ok=bool(diag_ok),
    )


@dataclass(frozen=True)
class ClassChainCheck:
    """Monotonicity of the four-class norm bounds at one length."""

    n: int
    values: tuple[float, float, float, float]  # periodic, infinite, admissible, chain

    @property
    def ok(self) -> bool:
        return all(self.values[i] <= self.values[i + 1] * (1.0 + 1e-12) for i in range(3))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Aggregate outcome of the numeric structure checks on one instance."""

    equality_checks: tuple[LiftEqualityCheck, ...]
    factor_audit: FactorStructureAudit
    class_chains: tuple[ClassChainCheck, ...]
    cross_bounds: tuple[CrossBound, ...]

    @property
    def passed(self) -> bool:
        return (
            all(t.passed for t in self.equality_checks)
            and self.factor_audit.passed
            and all(c.ok for c in self.class_chains)
            and all(c.ok for c in self.cross_bounds)
        )


def full_verification(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n_max: int,
    norm: NormKind = NormKind.ROWSUM,
) -> VerificationReport:
    """Run the lift equalities, the factor-structure audit, the class-chain
    monotonicity, and the cross bounds for n = 1..n_max.

    One sweep of the constrained words and one of the lifted family serve
    every length and every check.
    """
    validate_instance(matrices, omega)
    _check_length(n_max)
    constrained = _constrained_sweep(
        matrices, omega, n_max, norm, spectral=WordClass.PERIODICALLY_EXTENDABLE
    )
    lifted = _lifted_sweep(lift_set(matrices, omega), n_max, norm, spectral=WordClass.CHAIN)
    report = _sandwich_report(constrained, matrices, n_max, norm, WordClass.MARKOV)
    lengths = range(1, n_max + 1)
    return VerificationReport(
        equality_checks=tuple(
            _equality_check(n, constrained, lifted) for n in lengths
        ),
        factor_audit=audit_factor_structure(omega, n_max),
        class_chains=tuple(
            ClassChainCheck(n=n, values=tuple(p.value for p in _class_chain(constrained, n)))
            for n in lengths
        ),
        cross_bounds=report.cross_bounds,
    )
