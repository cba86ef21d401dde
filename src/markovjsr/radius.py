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
children are ``np.matmul(A[letter], P[parent])``, parent-major with
letters ascending, and join a queue of words waiting at their length.
When every parent takes every letter (a complete alphabet, as in the
lift oracle), that matmul is the broadcast ``np.matmul(A, P[:, None])``,
bitwise the same products in the same order, with no gathered copies.
A chunk is yielded as soon as a queue holds a full one (about
``_CHUNK_BYTES`` of products, at least ``_MIN_CHUNK_ROWS`` words),
deepest length first, and each length's remainder once every shorter
length is done; so each length comes out in lexicographic order, in full
chunks.  The children are formed in pieces cut where those chunks will
end, so no chunk is a slice of a longer array that would keep words
already walked in memory.  A keep mask per chunk may stop the walk below
some words: the dense lift oracle extends no word whose lifted product
is exactly zero, as no extension of it can raise a supremum.  A word
carries no letters, only its base-L numeral (L letters): int64 while
L**n fits, Python integers beyond.  ``_sweep`` takes from that single
pass the counts and norm suprema of every length and class (each word
adds to its level, its strictest class, one number from its first and
last state; the nested classes gather the stricter levels after the
loop) and the spectral suprema of the periodically extendable words.
Those words wait for the kernel as numerals tagged by length, not as
products: a word's product is formed again, bitwise as ``_expand`` formed
it, only when the word is sent to the kernel.
The kernel sees at most one word per rotation class: rho is invariant
under rotation (AB and BA have the same nonzero spectrum) and the
periodic words of every automaton here are closed under rotation, so the
lexicographically least rotation, the least numeral among the rotations,
stands for all of them.  Only the contenders among those words reach it:
a word whose norm, or whose cap ||P^4||_F^(1/4) from
``linalg.spectral_caps``, times 1 + REL_TOL, falls below the supremum
its length already has cannot raise that supremum, and is skipped.  Both
bounds hold what the kernel would return, so every supremum stays
bitwise what it would be without them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from markovjsr.lift import lift_set, omega_factor
from markovjsr.linalg import (
    REL_TOL,
    NormKind,
    block_norm,
    norm_caps,
    operator_norm,
    spectral_caps,
    spectral_radii,
)

__all__ = [
    "NORM_TOL",
    "SPECTRAL_TOL",
    "BoundSequencePoint",
    "LiftEqualityCheck",
    "CrossBound",
    "SandwichReport",
    "sandwich",
    "alternative_class_chain",
    "FactorStructureAudit",
    "audit_factor_structure",
    "ClassChainCheck",
    "VerificationReport",
    "full_verification",
]

# A frontier chunk holds about _CHUNK_BYTES of products and word codes,
# that is _CHUNK_BYTES // (d*d*itemsize + 8) words, but never fewer than
# _MIN_CHUNK_ROWS: every numpy call has a fixed cost.  The spectral kernel
# gets the words of up to _KERNEL_CHUNKS chunks per flush.
_CHUNK_BYTES = 1 << 15
_MIN_CHUNK_ROWS = 48
_KERNEL_CHUNKS = 8

# Relative tolerances of the lift equality checks.  Each spectral column
# is a kernel output, held to REL_TOL, of different matrices (the d x d
# products and their (N*d) x (N*d) lifts), so the two may differ by twice
# that.
NORM_TOL = 1e-9
SPECTRAL_TOL = 2 * REL_TOL

# The class-chain view, weakest-class last.
_CHAIN_ORDER = tuple(reversed(WordClass))


@dataclass(frozen=True)
class BoundSequencePoint:
    """One finite-length bound value over the words of ``word_class``."""

    n: int
    value: float
    word_class: WordClass
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
        has_out = alive = self.allowed.any(axis=1)
        # states with an infinite walk: the greatest set closed under some step
        while not np.array_equal(alive, more := (self.allowed & alive[step]).any(axis=1)):
            alive = more
        # strictest class short of periodic; numpy adds two booleans as an or
        self.levels = has_out.astype(np.int8) + alive

    @classmethod
    def from_omega(cls, omega: TransitionMatrix) -> "_Automaton":
        """States are letters; letter i may follow j iff omega[i, j] is 1."""
        letters = np.arange(omega.size)
        return cls(letters, np.where(omega.entries.T == 1, letters, -1), letters[:, None])

    def level(self, first: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Each chain word's strictest class, as its WordClass.strictness."""
        closing = state
        for letter in self.head[first].T:
            closing = np.where(closing >= 0, self.step[closing, letter], -1)
        return np.where(closing >= 0, WordClass.PERIODICALLY_EXTENDABLE.strictness, self.levels[state])


@dataclass(frozen=True, eq=False)
class _Chunk:
    """Words of one length in lexicographic order, with their products."""

    n: int
    first: np.ndarray               # (W,) first states
    state: np.ndarray               # (W,) states
    products: np.ndarray | None     # (W, d, d)
    codes: np.ndarray | None        # (W,) base-L numerals of the 0-based letters

    def _arrays(self) -> tuple:
        return self.first, self.state, self.products, self.codes

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, rows: slice | np.ndarray) -> "_Chunk":
        return _Chunk(self.n, *(None if a is None else a[rows] for a in self._arrays()))

    @staticmethod
    def join(pieces: list["_Chunk"]) -> "_Chunk":
        if len(pieces) == 1:
            return pieces[0]
        columns = zip(*(p._arrays() for p in pieces))
        return _Chunk(pieces[0].n, *(None if c[0] is None else np.concatenate(c) for c in columns))


def _code_dtype(letters: int, n: int) -> type:
    """int64 while every length-n numeral over ``letters`` letters fits."""
    return np.int64 if letters**n < 2**63 else object


def _cuts(count: int, room: int, rows: int) -> list[tuple[int, int]]:
    """``count`` words in pieces: the first of at most ``room`` words,
    then ``rows`` words each; no piece is empty."""
    ends = [0, *range(room, count, rows), count]
    return [(a, b) for a, b in zip(ends, ends[1:]) if a < b]


def _children(
    automaton: _Automaton, members: np.ndarray | None, chunk: _Chunk, room: int, rows: int
) -> list[_Chunk]:
    """The extensions by one letter of the words of a chunk, in the pieces
    of ``_cuts``, each with products of its own."""
    parent, letter = np.nonzero(automaton.allowed[chunk.state])
    state = automaton.step[chunk.state[parent], letter]
    first = state if chunk.n < automaton.head.shape[1] else chunk.first[parent]
    letters = automaton.step.shape[1]
    codes = None
    if chunk.codes is not None:
        dtype = _code_dtype(letters, chunk.n + 1)
        codes = chunk.codes[parent].astype(dtype, copy=False) * letters
        codes += letter.astype(dtype, copy=False)
    # every parent takes every letter: a piece of whole parents is one
    # broadcast product, in the order of np.nonzero, and no gathered copy
    # of members or parents
    complete = len(letter) == letters * len(chunk)
    pieces = []
    for a, b in _cuts(len(letter), room, rows):
        if members is None:
            products = None
        elif complete and a % letters == b % letters == 0:
            whole = chunk.products[a // letters:b // letters, None]
            products = np.matmul(members, whole).reshape(-1, *members.shape[1:])
        else:
            products = np.matmul(members[letter[a:b]], chunk.products[parent[a:b]])
        pieces.append(_Chunk(
            chunk.n + 1, first[a:b], state[a:b], products, None if codes is None else codes[a:b]
        ))
    return pieces


def _chunk_rows(row_bytes: int) -> int:
    """Words per chunk; the floor alone sizes a chunk of no bytes (words
    walked without products or codes)."""
    return max(_MIN_CHUNK_ROWS, _CHUNK_BYTES // row_bytes if row_bytes else 0)


def _expand(
    automaton: _Automaton,
    members: np.ndarray | None,
    n_max: int,
    codes: bool = False,
    extend: Callable[[_Chunk], np.ndarray] | None = None,
) -> Iterator[_Chunk]:
    """Every word of lengths 1..n_max, chunk by chunk, depth-first.

    ``members`` is the (L, d, d) stack of letter matrices, or None to form
    no products; ``codes`` keeps each word as its base-L numeral.  Words
    formed but not yet yielded wait in a queue per length, which a
    chunk's children join in order.  The deepest queue that holds a full
    chunk of ``rows`` words yields one; when none does, the shortest
    length with words left (every shorter one is done) yields its
    remainder.  So every chunk but the last of each length is full, each
    length arrives in lexicographic order, and fewer than ``rows`` words
    plus one chunk's children wait at any length.  The walk keeps no
    recursion, so n_max is not bounded by the recursion limit.

    A queue holds fewer than ``rows`` words whenever a shorter length
    yields, so a chunk's children are formed in pieces cut where the
    chunks of their length will end (``_cuts``, given the room left in
    their queue), each piece with products of its own.  A chunk is then
    one piece as it is, or several joined into a copy, and never a view
    of a longer array, which would keep the products of words already
    yielded in memory until its last word was.  (The pieces of one
    chunk's children share its first, state and code arrays, a few bytes
    a word.)

    ``extend``, if given, maps a yielded chunk to a mask of the words to
    extend: the others get no children, so of every longer length only
    the words whose proper prefixes were all kept are formed.
    """
    rows = _chunk_rows((0 if members is None else members[0].nbytes) + (8 if codes else 0))
    letters = np.flatnonzero(automaton.starts >= 0)
    state = automaton.starts[letters]
    queues: list[list[_Chunk]] = [[], [        # by length; index 0 unused
        _Chunk(
            1, state[a:b], state[a:b],
            None if members is None else members[letters[a:b]],
            letters[a:b].astype(np.int64) if codes else None,
        )
        for a, b in _cuts(len(letters), rows, rows)
    ]]
    n = low = 1                                 # lengths below low are done
    while low < len(queues):
        if n < low:  # no queue is full, and the shortest one left gets no more words
            n, low = low, low + 1
            taken = len(queues[n])
            if not taken:
                continue
        elif sum(map(len, queues[n])) >= rows:
            taken = size = 0
            while size < rows:  # the first pieces end where the chunk does
                size += len(queues[n][taken])
                taken += 1
        else:
            n -= 1  # every queue deeper than n is short of a chunk
            continue
        chunk = _Chunk.join(queues[n][:taken])
        del queues[n][:taken]
        yield chunk
        if n < n_max:
            if extend is not None:
                chunk = chunk[extend(chunk)]
            if len(queues) == n + 1:
                queues.append([])
            n += 1
            queues[n] += _children(automaton, members, chunk, rows - sum(map(len, queues[n])), rows)


def _class_words(automaton: _Automaton, n: int, word_class: WordClass) -> Iterator[tuple]:
    """The length-n words of a class as 1-based tuples, lexicographically."""
    letters = automaton.step.shape[1]
    power = np.array([letters**j for j in range(n - 1, -1, -1)], dtype=_code_dtype(letters, n))
    for chunk in _expand(automaton, None, n, codes=True):
        if chunk.n == n:
            keep = automaton.level(chunk.first, chunk.state) >= word_class.strictness
            yield from map(tuple, (chunk.codes[keep, None] // power % letters + 1).tolist())


def _least_rotations(codes: np.ndarray, letters: int, n: int) -> np.ndarray:
    """Mask of the length-n words, given as base-``letters`` numerals, that
    no rotation of them precedes lexicographically: one word per rotation
    class, powers such as (1, 2, 1, 2) included.

    Numerals of one length compare as the words do.  They are int64 while
    ``letters**n`` fits and Python integers beyond, as ``_children`` forms
    them.
    """
    power = np.array([letters**j for j in range(n + 1)], dtype=_code_dtype(letters, n))
    code = codes[:, None]
    # rotating j letters to the back moves the last n - j digits to the front
    tail = power[n:0:-1]
    return (code % tail * power[:n] + code // tail >= code).all(axis=1)


@dataclass(frozen=True, eq=False)
class _Sweep:
    """Word counts and norm suprema by length (rows; row 0 unused) and
    class (columns by WordClass.strictness, over the words of that level
    or above); spectral suprema of the periodically extendable words by length.

    The counts are of the words the sweep formed.  A lifted sweep forms
    no extension of a zero product, so its counts, and the emptiness of
    its points, fall short of the word sets; only its ``.value``s are
    read, and those are exact.
    """

    counts: np.ndarray
    norm_sup: np.ndarray
    spectral_sup: np.ndarray

    def point(self, n: int, word_class: WordClass, spectral: bool = False) -> BoundSequencePoint:
        column = word_class.strictness
        empty = bool(self.counts[n, column] == 0)
        sup = self.spectral_sup[n] if spectral else self.norm_sup[n, column]
        return BoundSequencePoint(
            n=n, value=0.0 if empty else float(sup) ** (1.0 / n),
            word_class=word_class, empty_word_set=empty,
        )


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"non-finite {what}: the matrix products overflow at this scale")


def _sweep(
    automaton: _Automaton,
    members: np.ndarray,
    n_max: int,
    norm_of: Callable[[np.ndarray], np.ndarray],
    spectral: range = range(0),
    extend: Callable[[_Chunk], np.ndarray] | None = None,
) -> _Sweep:
    """One expansion to n_max: counts and norm suprema of every length and
    class, and the spectral suprema of the periodically extendable words
    at the lengths ``spectral``, one word per rotation class, over the
    words that ``_expand`` forms under ``extend``.

    A class is staged for the kernel only if two upper bounds on what the
    kernel would return for it, times 1 + REL_TOL, still reach the
    supremum its length has so far: its norm (``norm_caps``), then, for
    the words that pass, its ``spectral_caps`` value, computed per chunk.
    At each flush, each length's highest-cap word goes to the kernel
    first, then every other staged word that can still reach the raised
    supremum.  A skipped word would have returned less than the supremum,
    so every supremum is bitwise the same as without the caps.

    A staged word is held as its numeral, tagged by its length, and a
    flush forms the products of the words it sends to the kernel again.
    They go in order of length, so the words longer than j letters are a
    suffix of them, and their letter j + 1 multiplies on the left in one
    matmul per letter position, as in ``_expand``: each product is
    bitwise the one the chunk held.
    """
    shape = (n_max + 1, len(WordClass))
    counts = np.zeros(shape, dtype=np.int64)
    norm_sup, spectral_sup = np.zeros(shape), np.zeros(n_max + 1)
    periodic = WordClass.PERIODICALLY_EXTENDABLE.strictness
    letters, dim = automaton.step.shape[1], members.shape[-1]
    rows = _KERNEL_CHUNKS * _chunk_rows(members[0].nbytes)
    longest = max(spectral, default=0)
    power = np.array([letters**j for j in range(longest)], dtype=_code_dtype(letters, longest))
    codes, tags, caps = np.empty(rows, power.dtype), np.empty(rows, np.intp), np.empty(rows)
    fill = 0

    def reaches(bounds: np.ndarray, sup) -> np.ndarray:
        return bounds * (1 + REL_TOL) >= sup

    def letter(code: np.ndarray, n: np.ndarray, j: int) -> np.ndarray:
        """Letter j (0-based) of each length-n word."""
        return (code // power[n - 1 - j] % letters).astype(np.intp, copy=False)

    def evaluate(staged: np.ndarray) -> None:
        n, code = tags[staged], codes[staged]  # flush stages by ascending length
        products = members[letter(code, n, 0)]
        for j in range(1, n.max(initial=0)):
            longer = slice(int((n <= j).sum()), None)
            left = members[letter(code[longer], n[longer], j)]
            products[longer] = np.matmul(left, products[longer])
        radii = spectral_radii(products)
        _require_finite(radii, "spectral radius")
        np.maximum.at(spectral_sup, n, radii)

    def flush() -> None:
        nonlocal fill
        order = np.lexsort((-caps[:fill], tags[:fill]))
        top = np.diff(tags[order], prepend=-1) != 0
        evaluate(order[top])
        evaluate(order[~top & reaches(caps[order], spectral_sup[tags[order]])])
        fill = 0

    # overflow is reported as a ValidationError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _expand(automaton, members, n_max, codes=bool(spectral), extend=extend):
            n = chunk.n
            level = automaton.level(chunk.first, chunk.state)
            counts[n] += np.bincount(level, minlength=len(WordClass))
            norms = norm_of(chunk.products)
            _require_finite(norms, f"product norm at word length {n}")
            np.maximum.at(norm_sup[n], level, norms)
            if n not in spectral:
                continue
            reach = reaches(norm_caps(norms, dim), spectral_sup[n])
            kept = np.flatnonzero((level == periodic) & reach)
            kept = kept[_least_rotations(chunk.codes[kept], letters, n)]
            if not len(kept):
                continue
            bound = spectral_caps(chunk.products[kept])
            reach = reaches(bound, spectral_sup[n])
            word, bound = chunk.codes[kept[reach]], bound[reach]
            while len(word):
                take = min(rows - fill, len(word))
                staged = slice(fill, fill + take)
                codes[staged], tags[staged], caps[staged] = word[:take], n, bound[:take]
                fill += take
                word, bound = word[take:], bound[take:]
                if fill == rows:
                    flush()
        if fill:
            flush()
    # so far each word sits at its level only; fold in the stricter levels
    counts = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    norm_sup = np.maximum.accumulate(norm_sup[:, ::-1], axis=1)[:, ::-1]
    return _Sweep(counts=counts, norm_sup=norm_sup, spectral_sup=spectral_sup)


def _constrained_sweep(
    matrices: MatrixSet, omega: TransitionMatrix, n_max: int, norm: NormKind, **spectral
) -> _Sweep:
    """_sweep over the chain words of a transition matrix."""
    return _sweep(
        _Automaton.from_omega(omega), np.stack(matrices.members), n_max,
        partial(operator_norm, kind=norm), **spectral,
    )


def _lifted_sweep(
    matrices: MatrixSet, omega: TransitionMatrix, n_max: int, norm: NormKind, **spectral
) -> _Sweep:
    """_sweep over every word of the complete alphabet on the lift of
    (matrices, omega), with block norms: the dense oracle of the lift
    equalities.

    By the rank-one factor algebra, lifted products vanish off the
    admissible words and otherwise repeat the base product down a single
    block column, which is nilpotent unless the word is periodically
    extendable; so its CHAIN-class norm values equal the base family's
    Markov-class ones, and its spectral values the periodic-class ones.

    A word whose lifted product is exactly zero is not extended: every
    extension multiplies that zero by finite letters, so its product is
    exactly zero too, with norm 0 and, its square being zero, kernel
    radius exactly 0; neither raises a supremum, which starts at 0.  The
    rule reads the lifted products only, never omega.
    """
    return _sweep(
        _Automaton.from_omega(TransitionMatrix.complete(omega.size)),
        np.stack(lift_set(matrices, omega).members), n_max,
        partial(block_norm, blocks=omega.size, block_dim=matrices.dim, inner=norm),
        **spectral, extend=_nonzero,
    )


def _nonzero(chunk: _Chunk) -> np.ndarray:
    return chunk.products.any(axis=(1, 2))


@dataclass(frozen=True)
class LiftEqualityCheck:
    """Two-sided evaluation of the lift equalities at one length.

    The lifted side is computed with the dense engine over the complete
    alphabet, the constrained side by class-filtered enumeration.  Both
    sweeps skip the words that cannot raise a spectral supremum, but by
    caps of different matrices, the d x d products against their
    (N*d) x (N*d) lifts, so a wrong skip shows up as a column mismatch.
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


def _equality_check(n: int, constrained: _Sweep, lifted: _Sweep) -> LiftEqualityCheck:
    return LiftEqualityCheck(
        n=n,
        norm_lifted=lifted.point(n, WordClass.CHAIN).value,
        norm_constrained=constrained.point(n, WordClass.MARKOV).value,
        spectral_lifted=lifted.point(n, WordClass.CHAIN, spectral=True).value,
        spectral_periodic=constrained.point(n, WordClass.PERIODICALLY_EXTENDABLE, spectral=True).value,
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
    def ok(self) -> bool:
        return self.chain_value <= self.cap * (1.0 + 1e-12)


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Per-length bounds of both sides and their best aggregates.

    upper holds the norm bounds of the upper class and lower the periodic
    spectral bounds, entry n-1 for length n.  best_upper is the running
    minimum of the upper values (their n-th powers are sub-multiplicative
    in n, so the infimum equals the limit); best_lower is the running
    maximum of the lower ones.  alpha, used by the cross bounds, is the
    length-1 chain supremum: the largest member norm.
    """

    upper: tuple[BoundSequencePoint, ...]
    lower: tuple[BoundSequencePoint, ...]
    best_lower: float
    best_lower_n: int
    best_upper: float
    best_upper_n: int
    gap: float
    alpha: float
    cross_bounds: tuple[CrossBound, ...]


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
    that underflow, or LAPACK's eigenvalues of an ill-conditioned
    product, which can exceed its spectral radius by far more than
    REL_TOL), and raises ValidationError, as do products that overflow.

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
    sweep = _constrained_sweep(matrices, omega, n_max, norm, spectral=range(1, n_max + 1))
    return _sandwich_report(sweep, upper_class)


def _sandwich_report(sweep: _Sweep, upper_class: WordClass) -> SandwichReport:
    lengths = range(1, len(sweep.counts))
    upper = tuple(sweep.point(n, upper_class) for n in lengths)
    lower = tuple(sweep.point(n, WordClass.PERIODICALLY_EXTENDABLE, spectral=True) for n in lengths)
    alpha = sweep.point(1, WordClass.CHAIN).value  # every letter is a chain word
    cross = tuple(
        CrossBound(
            n=n,
            chain_value=sweep.point(n, WordClass.CHAIN).value,
            cap=alpha ** (1.0 / n) * sweep.point(n - 1, WordClass.MARKOV).value ** ((n - 1.0) / n),
        )
        for n in lengths[1:]
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
            f"{best_upper}; matrix products that underflow at this scale do this, "
            "as does a kernel radius above the true one (LAPACK's eigenvalues of "
            "an ill-conditioned product)"
        )
    return SandwichReport(
        upper=upper,
        lower=lower,
        best_lower=best_lower,
        best_lower_n=best_lower_n,
        best_upper=best_upper,
        best_upper_n=best_upper_n,
        gap=best_upper - best_lower,
        alpha=alpha,
        cross_bounds=cross,
    )


def alternative_class_chain(
    matrices: MatrixSet,
    omega: TransitionMatrix,
    n_max: int,
    norm: NormKind = NormKind.ROWSUM,
) -> tuple[tuple[BoundSequencePoint, ...], ...]:
    """Norm bounds for the four classes at every length 1..n_max, from one
    sweep: row n-1 holds length n, weakest-class last.

    Each row is ordered (periodic, infinite, admissible, chain);
    containment of the word sets makes its values nondecreasing left to
    right.
    """
    validate_instance(matrices, omega)
    _check_length(n_max)
    sweep = _constrained_sweep(matrices, omega, n_max, norm)
    return tuple(_class_chain(sweep, n) for n in range(1, n_max + 1))


def _class_chain(sweep: _Sweep, n: int) -> tuple[BoundSequencePoint, ...]:
    return tuple(sweep.point(n, cls) for cls in _CHAIN_ORDER)


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
        level = automaton.level(first, last)
        periodic = level >= WordClass.PERIODICALLY_EXTENDABLE.strictness
        predicted = np.zeros_like(products)
        predicted[words, :, first] = omega.entries[:, last].T
        checked += len(words)
        rep_ok &= np.array_equal(products, predicted)
        nz_ok &= np.array_equal(products.any(axis=(1, 2)), level >= WordClass.MARKOV.strictness)
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
    lengths = range(1, n_max + 1)
    constrained = _constrained_sweep(matrices, omega, n_max, norm, spectral=lengths)
    lifted = _lifted_sweep(matrices, omega, n_max, norm, spectral=lengths)
    report = _sandwich_report(constrained, WordClass.MARKOV)
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
