"""The product engine of markovjsr.radius against a naive reference.

The reference walks itertools.product over the whole alphabet, keeps the
words that words.classify accepts, folds each product explicitly and
takes its norms and eigenvalue moduli with plain numpy, over every word
of a class (the engine sends at most one word per rotation class to the
spectral kernel, and only words whose caps can still reach their
length's supremum).  Shrinking the chunk size to a single word forces
every expansion through many chunks and many spectral-kernel calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import sys
import tracemalloc
import warnings
from functools import cache, partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    KStepConstraint,
    MatrixSet,
    NormKind,
    TransitionMatrix,
    ValidationError,
    WordClass,
    alternative_class_chain,
    classify,
    enumerate_words,
    full_verification,
    operator_norm,
    radius_equivalence_check,
    sandwich,
    spectral_radii,
)
from markovjsr import kstep, radius
from markovjsr.instancefile import load_instance
from markovjsr.lift import lift_set
from tests.conftest import fold_product, random_binary_rows, random_instance, window_class_words

DATA = Path(__file__).resolve().parent / "data"

NUMPY_NORMS = {
    NormKind.ROWSUM: lambda p: np.abs(p).sum(axis=1).max(),
    NormKind.COLSUM: lambda p: np.abs(p).sum(axis=0).max(),
    NormKind.FROBENIUS: np.linalg.norm,
}


def tiny_chunks(rows: int = 1):
    """``rows`` words per chunk and the words of up to eight chunks per
    spectral-kernel flush."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(radius, "_CHUNK_BYTES", 1))
    stack.enter_context(mock.patch.object(radius, "_MIN_CHUNK_ROWS", rows))
    return stack


def reference(mats: MatrixSet, om: TransitionMatrix, n_max: int):
    """Counts, norm suprema and spectral suprema by length and class."""
    shape = (n_max + 1, len(WordClass))
    counts = np.zeros(shape, dtype=np.int64)
    norms = {kind: np.zeros(shape) for kind in NormKind}
    spectral = np.zeros(shape)
    for n in range(1, n_max + 1):
        for word in itertools.product(range(1, om.size + 1), repeat=n):
            classes = classify(word, om)
            if not classes:
                continue
            product = fold_product(mats.members, word)
            radius_ = max(abs(np.linalg.eigvals(product)))
            for cls in classes:
                col = cls.strictness
                counts[n, col] += 1
                for kind, fn in NUMPY_NORMS.items():
                    norms[kind][n, col] = max(norms[kind][n, col], fn(product))
                spectral[n, col] = max(spectral[n, col], radius_)
    return counts, norms, spectral


def check_engine(mats: MatrixSet, om: TransitionMatrix, n_max: int) -> None:
    counts, norms, spectral = reference(mats, om, n_max)
    automaton = radius._Automaton.from_omega(om)
    stack = np.stack(mats.members)
    for kind in NormKind:
        sweep = radius._sweep(automaton, stack, n_max, partial(operator_norm, kind=kind))
        assert np.array_equal(sweep.counts, counts)
        np.testing.assert_allclose(sweep.norm_sup, norms[kind], rtol=1e-12, atol=0)
    sweep = radius._sweep(
        automaton, stack, n_max, partial(operator_norm, kind=NormKind.ROWSUM),
        spectral=range(1, n_max + 1),
    )
    np.testing.assert_allclose(
        sweep.spectral_sup,
        spectral[:, WordClass.PERIODICALLY_EXTENDABLE.strictness],
        rtol=1e-7, atol=1e-12,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
)
def test_engine_matches_naive_reference(seed, size, dim, n_max, complex_field, tiny):
    mats, om = random_instance(seed, size, dim, complex_field)
    with tiny_chunks() if tiny else contextlib.nullcontext():
        check_engine(mats, om, n_max)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 0], [1, 0, 0], [0, 1, 0]],  # letter 3 is dead: nothing may follow it
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],  # acyclic: every class is empty from n = 4
        [[0, 1], [1, 0]],                   # periodic words only at even lengths
    ],
)
def test_engine_dead_letters_and_empty_classes(rows):
    om = TransitionMatrix.from_rows(rows)
    rng = np.random.default_rng(len(rows))
    mats = MatrixSet.from_members(list(rng.standard_normal((om.size, 2, 2))))
    counts, _, _ = reference(mats, om, 5)
    assert (counts == 0).any()
    for tiny in (False, True):
        with tiny_chunks() if tiny else contextlib.nullcontext():
            check_engine(mats, om, 5)


def test_engine_complex_field_over_many_chunks():
    mats, om = random_instance(7, 3, 3, complex_field=True)
    with tiny_chunks():
        check_engine(mats, om, 5)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize(
    "omega_rows",
    [
        [[1, 1, 0], [1, 0, 1], [1, 1, 1]],  # one, two and three successors
        [[1, 1, 0], [1, 0, 0], [0, 1, 0]],  # letter 3 is dead: nothing may follow it
    ],
)
def test_engine_yields_full_chunks_per_length(rows, omega_rows):
    om = TransitionMatrix.from_rows(omega_rows)
    automaton = radius._Automaton.from_omega(om)
    n_max = 7
    members = np.stack([np.eye(2)] * om.size)
    with tiny_chunks(rows):
        chunks = list(radius._expand(automaton, members, n_max, codes=True))
    assert len({id(c) for c in chunks}) == len(chunks)
    formed = {1: len(np.flatnonzero(automaton.starts >= 0))}
    yielded = dict.fromkeys(range(1, n_max + 2), 0)
    for chunk in chunks:
        n = chunk.n
        yielded[n] += len(chunk)
        assert formed[n] - yielded[n] >= 0
        if n < n_max:
            # the chunk's children join the queue of length n + 1 before the next yield
            children = int(automaton.allowed[chunk.state].sum())
            formed[n + 1] = formed.get(n + 1, 0) + children
            assert formed[n + 1] - yielded[n + 1] < rows + children
    for n in range(1, n_max + 1):
        at_n = [c for c in chunks if c.n == n]
        assert all(len(c) == rows for c in at_n[:-1])
        assert 0 < len(at_n[-1]) <= rows
        # joined over its chunks, each length is every chain word once, lexicographically
        codes = np.concatenate([c.codes for c in at_n]).tolist()
        expected = [
            sum(letter * om.size ** (n - 1 - j) for j, letter in enumerate(word))
            for word in itertools.product(range(om.size), repeat=n)
            if classify([letter + 1 for letter in word], om)
        ]
        assert codes == expected
        assert yielded[n] == formed[n]


@pytest.mark.parametrize("rows", [None, 1, 2, 5])
@pytest.mark.parametrize(
    "omega_rows",
    [
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # complete: pieces of whole parents are broadcast
        [[1, 1, 0], [1, 0, 1], [1, 1, 1]],  # one, two and three successors
    ],
)
def test_no_chunk_is_a_slice_of_a_longer_array(rows, omega_rows):
    # a slice would keep the products of the words yielded before it in memory
    om = TransitionMatrix.from_rows(omega_rows)
    automaton = radius._Automaton.from_omega(om)
    members = np.random.default_rng(0).standard_normal((om.size, 2, 2))
    with tiny_chunks(rows) if rows else contextlib.nullcontext():
        for chunk in radius._expand(automaton, members, 6, codes=True):
            owner = chunk.products if chunk.products.base is None else chunk.products.base
            assert owner.nbytes == chunk.products.nbytes


def _traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, above what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_sandwich_peak_memory_on_dense_spectral():
    # 2 complex 16 x 16 members: each product is 4 KiB and 16,382 words are
    # formed to n 13.  About 2.2 MB; staging a flush's 384 words for the
    # spectral kernel as products, not numerals, adds 1.57 MB
    instance = load_instance(DATA / "dense-spectral.json")
    assert _traced_peak(lambda: sandwich(instance.matrices, instance.omega, 13)) <= 2.6e6


def test_full_verification_peak_memory_on_dense_spectral():
    # the lifted products are 32 x 32 complex, 16 KiB each.  About 2.2 MB;
    # staging a flush's words for the kernel as products, not numerals,
    # takes it to 8.6 MB
    instance = load_instance(DATA / "dense-spectral.json")
    assert _traced_peak(lambda: full_verification(instance.matrices, instance.omega, 6)) <= 3.0e6


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize(
    "omega_rows",
    [
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # complete: every parent takes every letter
        [[1, 1, 1], [1, 0, 1], [1, 1, 1]],  # 1 and 3 take every letter, 2 does not
        [[1, 1, 0], [1, 0, 0], [0, 1, 0]],  # letter 3 is dead: nothing may follow it
    ],
)
def test_children_are_bitwise_the_per_pair_products(omega_rows, dim, complex_field, rows):
    # complete chunks, incomplete ones, and chunks that mix both kinds of state
    om = TransitionMatrix.from_rows(omega_rows)
    automaton = radius._Automaton.from_omega(om)
    rng = np.random.default_rng(dim)
    members = rng.standard_normal((om.size, dim, dim))
    if complex_field:
        members = members + 1j * rng.standard_normal(members.shape)
    with tiny_chunks(rows) if rows else contextlib.nullcontext():
        chunks = list(radius._expand(automaton, members, 4, codes=True))
    products = {}
    for chunk in chunks:
        for code, product in zip(chunk.codes.tolist(), chunk.products):
            if chunk.n > 1:
                parent = products[chunk.n - 1, code // om.size]
                assert product.tobytes() == (members[code % om.size] @ parent).tobytes()
            products[chunk.n, code] = product
    assert max(n for n, _ in products) == 4


@pytest.mark.parametrize("rows", [None, 1, 5])
def test_expand_walks_words_without_products_or_codes(rows):
    om = TransitionMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    automaton = radius._Automaton.from_omega(om)
    n_max = 7
    with tiny_chunks(rows) if rows else contextlib.nullcontext():
        chunks = list(radius._expand(automaton, None, n_max))
        floor = radius._MIN_CHUNK_ROWS
    assert all(c.products is None and c.codes is None for c in chunks)
    for n in range(1, n_max + 1):
        at_n = [c for c in chunks if c.n == n]
        # a chunk of no bytes holds as many words as the floor
        assert all(len(c) == floor for c in at_n[:-1])
        assert 0 < len(at_n[-1]) <= floor
        chain = sum(
            bool(classify([letter + 1 for letter in word], om))
            for word in itertools.product(range(om.size), repeat=n)
        )
        assert sum(map(len, at_n)) == chain


def test_automaton_without_a_start_letter_has_no_words():
    # every state steps somewhere, but no letter may start a word
    automaton = radius._Automaton(
        np.array([-1, -1]), np.array([[0, 1], [0, 1]]), np.arange(2)[:, None]
    )
    stack = np.stack([np.eye(2), 2 * np.eye(2)])
    n_max = 4
    assert sum(map(len, radius._expand(automaton, stack, n_max, codes=True))) == 0
    assert list(radius._class_words(automaton, 2, WordClass.CHAIN)) == []
    sweep = radius._sweep(
        automaton, stack, n_max, partial(operator_norm, kind=NormKind.ROWSUM),
        spectral=range(1, n_max + 1),
    )
    assert not sweep.counts.any()
    assert not sweep.norm_sup.any() and not sweep.spectral_sup.any()


def test_engine_depth_is_not_bounded_by_recursion_limit():
    mats = MatrixSet.from_members([np.array([[0.9]])])
    n = 3 * sys.getrecursionlimit()
    rows = alternative_class_chain(mats, TransitionMatrix.from_rows([[1]]), n)
    assert len(rows) == n
    _, _, markov, _ = rows[-1]
    assert markov.n == n
    assert markov.value == pytest.approx(0.9, rel=1e-12)


def _least_rotation(word: tuple) -> tuple:
    return min(word[j:] + word[:j] for j in range(len(word)))


def _codes(words, letters: int) -> np.ndarray:
    """Base-``letters`` numerals of equal-length words: int64 while they fit."""
    n = len(words[0])
    codes = [sum(c * letters ** (n - 1 - j) for j, c in enumerate(w)) for w in words]
    return np.array(codes, dtype=np.int64 if letters**n < 2**63 else object)


def _least_rotations(words, letters: int) -> list:
    words = [tuple(w) for w in words]
    return radius._least_rotations(_codes(words, letters), letters, len(words[0])).tolist()


@pytest.mark.parametrize("letters", [1, 2, 3])
def test_least_rotations_match_brute_force(letters):
    for n in range(1, 8):
        words = list(itertools.product(range(letters), repeat=n))
        expected = [w == _least_rotation(w) for w in words]
        assert _least_rotations(words, letters) == expected
    # a power is kept once, a one-letter word always
    powers = [[0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]]
    assert _least_rotations(powers, 2) == [True, False, True]
    assert all(_least_rotations([[0]] * letters, letters))


@pytest.mark.parametrize("letters, n", [(3, 45), (2, 70), (200, 9)])
def test_least_rotations_beyond_int64_numerals(letters, n):
    rng = np.random.default_rng([letters, n])
    words = rng.integers(0, letters, (200, n))
    words[:50] = np.sort(words[:50], axis=1)  # sorted words are least rotations
    period = next(p for p in (3, 5) if n % p == 0)
    words[50:60] = np.tile(words[50:60, : n // period], period)  # powers
    words = words.tolist()
    assert _codes(words, letters).dtype == object
    expected = [tuple(w) == _least_rotation(tuple(w)) for w in words]
    assert _least_rotations(words, letters) == expected


def _alternating_instance() -> tuple[MatrixSet, TransitionMatrix]:
    """Two 2 x 2 members of unit 2-norm whose letters must alternate."""
    rng = np.random.default_rng(70)
    members = [m / np.linalg.norm(m, 2) for m in rng.standard_normal((2, 2, 2))]
    return MatrixSet.from_members(members), TransitionMatrix.from_rows([[0, 1], [1, 0]])


def test_sweep_past_int64_codes():
    # 2**n passes 2**63 at n = 63: the codes of longer words are Python integers
    n = 70
    mats, om = _alternating_instance()
    members = mats.members

    def alternating(length):
        return [tuple((a + j) % 2 + 1 for j in range(length)) for a in (0, 1)]

    for cls in WordClass:
        listed = list(enumerate_words(om, n, cls))
        assert listed == alternating(n)
        assert list(enumerate_words(om, n - 1, cls)) == (
            [] if cls is WordClass.PERIODICALLY_EXTENDABLE else alternating(n - 1)
        )
    swap = KStepConstraint(base_alphabet=2, k=1, allowed=frozenset({(1, 2), (2, 1)}))
    periodic = WordClass.PERIODICALLY_EXTENDABLE
    assert window_class_words(swap, n, periodic) == alternating(n)
    assert window_class_words(swap, n - 1, periodic) == []

    report = sandwich(mats, om, n)
    for point, spectral in [(p, False) for p in report.upper] + [(p, True) for p in report.lower]:
        products = [fold_product(members, w) for w in alternating(point.n)]
        if not spectral:
            expected = max(NUMPY_NORMS[NormKind.ROWSUM](p) for p in products) ** (1 / point.n)
            assert not point.empty_word_set
            assert point.value == pytest.approx(expected, rel=1e-12, abs=0)
        elif point.n % 2:
            assert point.empty_word_set and point.value == 0.0
        else:
            radii = [max(abs(np.linalg.eigvals(p))) for p in products]
            assert point.value == pytest.approx(max(radii) ** (1 / point.n), rel=1e-12, abs=0)


def no_caps():
    """Both spectral-kernel caps patched to +inf: every rotation class
    reaches the kernel."""
    stack = contextlib.ExitStack()
    for name in ("norm_caps", "spectral_caps"):
        stack.enter_context(mock.patch.object(
            radius, name, lambda values, *_: np.full(len(values), np.inf),
        ))
    return stack


@pytest.mark.parametrize("tiny", [False, True])
def test_kernel_sees_one_word_per_rotation_class(tiny):
    om = TransitionMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    mats = MatrixSet.from_members(list(np.random.default_rng(3).standard_normal((3, 2, 2))))
    n_max = 7

    def run(*patches):
        sent, calls = [], []

        def recording(stack):
            sent.extend(stack.copy())
            calls.append(len(stack))
            return spectral_radii(stack)

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(radius, "spectral_radii", recording))
            stack.enter_context(tiny_chunks() if tiny else contextlib.nullcontext())
            for patch in patches:
                stack.enter_context(patch)
            sweep = radius._sweep(
                radius._Automaton.from_omega(om), np.stack(mats.members), n_max,
                operator_norm, spectral=range(1, n_max + 1),
            )
        assert len(calls) > 1 or not tiny
        return sweep, {m.tobytes() for m in sent}, len(sent)

    classes = {
        _least_rotation(w)
        for n in range(1, n_max + 1)
        for w in itertools.product(range(1, 4), repeat=n)
        if WordClass.PERIODICALLY_EXTENDABLE in classify(w, om)
    }
    full, every_class, calls = run(no_caps())
    # without caps, each class reaches the kernel once, as one product
    assert calls == len(every_class) == len(classes)
    pruned, reached, calls = run()
    # no class twice, and some classes never
    assert calls == len(reached) < len(classes)
    assert reached <= every_class
    capless, _, _ = run(mock.patch.object(
        radius, "spectral_caps", lambda stack: np.full(len(stack), np.inf),
    ))
    for other in (full, capless):
        assert pruned.spectral_sup.tobytes() == other.spectral_sup.tobytes()
    _, _, spectral = reference(mats, om, n_max)
    np.testing.assert_allclose(
        pruned.spectral_sup, spectral[:, WordClass.PERIODICALLY_EXTENDABLE.strictness],
        rtol=1e-12, atol=0,
    )


def _kernel_inputs(call) -> list:
    """Every matrix that ``call()`` sends to the spectral kernel."""
    sent = []

    def recording(stack):
        sent.extend(stack.copy())
        return spectral_radii(stack)

    with mock.patch.object(radius, "spectral_radii", recording):
        call()
    return sent


def _product_lengths(automaton, members, n_max, extend=None) -> dict:
    """The length of every word that ``_expand`` forms, by the bytes of its
    product."""
    return {
        product.tobytes(): chunk.n
        for chunk in radius._expand(automaton, members, n_max, codes=True, extend=extend)
        for product in chunk.products
    }


def _kernel_case(call: str, instance: str | None):
    """A sweeping call with the spectral kernel, on a data file or, if
    None, on the alternating instance to n 70, and the ``_expand`` walks
    whose products it may send to the kernel."""
    if instance is None:
        (mats, om), n_max = _alternating_instance(), 70
    else:
        loaded = load_instance(DATA / f"{instance}.json")
        mats, om, n_max = loaded.matrices, loaded.omega, 7
    members = np.stack(mats.members)
    if call == "kstep":
        constraint = loaded.kstep
        walk = (kstep._window_automaton(constraint), members, n_max + constraint.k - 1)
        return partial(kstep._direct_bounds, constraint, mats, n_max, NormKind.ROWSUM), [walk]
    walks = [(radius._Automaton.from_omega(om), members, n_max)]
    if call == "sandwich":
        return partial(sandwich, mats, om, n_max), walks
    complete = radius._Automaton.from_omega(TransitionMatrix.complete(om.size))
    walks.append((complete, np.stack(lift_set(mats, om).members), n_max, radius._nonzero))
    return partial(full_verification, mats, om, n_max), walks


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize(
    "call, instance",
    [
        ("sandwich", "sparse-chain"),
        ("sandwich", "dense-spectral"),
        ("sandwich", None),  # Python-integer numerals from n 63
        ("full_verification", "sparse-chain"),  # the lifted sweep too
        ("kstep", "kstep-order2"),  # the window rule of the direct side
    ],
)
def test_kernel_inputs_are_bitwise_the_expanded_products(call, instance, tiny):
    """The sweep stages a word as its numeral and forms its product again
    when the word is sent to the kernel: that product is byte-equal to
    the one ``_expand`` forms for the word."""
    run, walks = _kernel_case(call, instance)
    with tiny_chunks() if tiny else contextlib.nullcontext():
        sent = _kernel_inputs(run)
        lengths = {}
        for walk in walks:
            lengths.update(_product_lengths(*walk))
    assert all(m.tobytes() in lengths for m in sent)
    reached = {lengths[m.tobytes()] for m in sent}
    assert len(reached) > 3
    if instance is None:
        assert max(reached) > 63
    if call == "full_verification":
        assert {m.shape for m in sent} == {(4, 4), (12, 12)}


def test_caps_near_the_top_of_the_float_range_warn_nothing():
    # the cap of this member is finite, but not once raised by REL_TOL
    value = 1.797693134e308
    mats = MatrixSet.from_members([np.array([[value]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = sandwich(mats, TransitionMatrix.from_rows([[1]]), 1)
    assert report.best_lower == report.best_upper == value


def _hex_values(report) -> list:
    """Every number of a report, floats as float.hex, in field order."""
    if dataclasses.is_dataclass(report):
        report = [getattr(report, f.name) for f in dataclasses.fields(report)]
    if isinstance(report, (list, tuple)):
        return [v for item in report for v in _hex_values(item)]
    return [float(report).hex() if isinstance(report, float) else report]


def _outcome(call):
    try:
        return _hex_values(call())
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["real", "complex", "nilpotent"]),
    st.sampled_from([0, -60, 60]),
    st.sampled_from([None, 1, 3]),
)
def test_caps_change_no_value(seed, size, dim, kind, scale, rows):
    """sandwich, full_verification (both spectral columns) and
    radius_equivalence_check give float.hex-equal values with the caps
    and without them."""
    rng = np.random.default_rng(seed)
    # zero rows and columns make dead letters and empty classes
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    members = rng.standard_normal((size, dim, dim))
    if kind == "complex":
        members = members + 1j * rng.standard_normal((size, dim, dim))
    elif kind == "nilpotent":
        # dense, so that eigvals sees defective matrices, not triangular ones
        basis = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
        members = basis @ np.triu(members, 1) @ np.linalg.inv(basis)
    mats = MatrixSet.from_members(
        list(members * 2.0**scale), field_tag="complex" if kind == "complex" else "real",
    )
    allowed = frozenset(
        t for t in itertools.product(range(1, size + 1), repeat=3) if rng.random() < 0.7
    )
    constraint = KStepConstraint(base_alphabet=size, k=2, allowed=allowed)
    calls = (
        lambda: sandwich(mats, om, 5),
        lambda: full_verification(mats, om, 4).equality_checks,
        lambda: radius_equivalence_check(constraint, mats, 3),
    )
    with tiny_chunks(rows) if rows else contextlib.nullcontext():
        pruned = [_outcome(call) for call in calls]
        with no_caps():
            assert [_outcome(call) for call in calls] == pruned


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**25 - 1), st.booleans())
def test_enumerate_words_is_lexicographic(size, n, seed, tiny):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    for cls in WordClass:
        with tiny_chunks() if tiny else contextlib.nullcontext():
            listed = list(enumerate_words(om, n, cls))
        expected = [
            w for w in itertools.product(range(1, size + 1), repeat=n)
            if cls in classify(w, om)
        ]
        assert listed == expected  # itertools.product is lexicographic


def _windows_allowed(word, allowed, k, cyclic):
    """Every (k+1)-window allowed; cyclic windows wrap around the word."""
    if cyclic:
        period = len(word)
        return all(
            tuple(word[(j + t) % period] for t in range(k + 1)) in allowed
            for j in range(period)
        )
    return all(word[j:j + k + 1] in allowed for j in range(len(word) - k))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**25 - 1), st.booleans())
def test_window_automaton_matches_brute_force(alphabet, k, seed, tiny):
    """All four classes at every length, from word-level definitions that
    do not use the automaton; the engine's one-number class of a word
    relies on their nesting."""
    rng = np.random.default_rng(seed)
    letters = range(1, alphabet + 1)
    tuples = list(itertools.product(letters, repeat=k + 1))
    allowed = frozenset(t for t in tuples if rng.random() < 0.6) or frozenset(tuples[:1])
    constraint = KStepConstraint(base_alphabet=alphabet, k=k, allowed=allowed)
    prefixes = {t[:j] for t in allowed for j in range(1, k + 2)}

    def chain(word):
        return word[:k + 1] in prefixes and _windows_allowed(word, allowed, k, cyclic=False)

    @cache
    def extends(tail, length):
        """A chain word whose last k letters (all, if shorter) are ``tail``
        has a chain extension by ``length`` letters."""
        return length == 0 or any(
            extends((tail + (c,))[-k:], length - 1) for c in letters if chain(tail + (c,))
        )

    # beyond alphabet**k + k letters an extension repeats a k-letter window
    # and so can go on forever
    members = {
        WordClass.CHAIN: chain,
        WordClass.MARKOV: lambda w: chain(w) and extends(w[-k:], 1),
        WordClass.INFINITELY_EXTENDABLE: lambda w: chain(w) and extends(w[-k:], alphabet**k + k + 2),
        WordClass.PERIODICALLY_EXTENDABLE: lambda w: _windows_allowed(w, allowed, k, cyclic=True),
    }
    with tiny_chunks() if tiny else contextlib.nullcontext():
        for n in range(1, 2 * k + 3):
            words = list(itertools.product(letters, repeat=n))
            for cls, member in members.items():
                assert window_class_words(constraint, n, cls) == [w for w in words if member(w)]


def _kept(code: int, n: int) -> bool:
    """An arbitrary keep rule on (code, length) that prunes at every length."""
    return (3 * code + n) % 4 != 1


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize(
    "omega_rows",
    [
        [[1, 1, 0], [1, 0, 1], [1, 1, 1]],
        [[1, 1, 0], [1, 0, 0], [0, 1, 0]],  # letter 3 is dead: nothing may follow it
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    ],
)
def test_engine_extends_only_the_kept_words(rows, omega_rows):
    om = TransitionMatrix.from_rows(omega_rows)
    automaton = radius._Automaton.from_omega(om)
    n_max, size = 7, om.size

    def extend(chunk):
        return np.array([_kept(code, chunk.n) for code in chunk.codes.tolist()], dtype=bool)

    def code(word):
        return sum(letter * size ** (len(word) - 1 - j) for j, letter in enumerate(word))

    with tiny_chunks(rows):
        chunks = list(radius._expand(automaton, None, n_max, codes=True, extend=extend))
    for n in range(1, n_max + 1):
        at_n = [c for c in chunks if c.n == n]
        chain = [
            word for word in itertools.product(range(size), repeat=n)
            if classify([letter + 1 for letter in word], om)
        ]
        expected = [
            code(word) for word in chain
            if all(_kept(code(word[:j]), j) for j in range(1, n))
        ]
        assert [c for chunk in at_n for c in chunk.codes.tolist()] == expected
        assert n == 1 or len(expected) < len(chain)
        assert all(len(c) == rows for c in at_n[:-1])
        assert not at_n or 0 < len(at_n[-1]) <= rows
    assert max(c.n for c in chunks) >= 5


def unpruned():
    """The lifted sweep extends every word, zero products included."""
    return mock.patch.object(radius, "_nonzero", None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["real", "complex", "nilpotent", "underflow"]),
    st.sampled_from([None, 1, 3]),
)
def test_lifted_prune_changes_no_value(seed, size, dim, kind, rows):
    """The lifted sweep gives float.hex-equal suprema at every length,
    under every norm, whether or not it extends zero products."""
    rng = np.random.default_rng(seed)
    # zero rows and columns make dead letters
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    members = rng.standard_normal((size, dim, dim))
    if kind == "complex":
        members = members + 1j * rng.standard_normal((size, dim, dim))
    elif kind == "nilpotent":
        basis = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
        members = basis @ np.triu(members, 1) @ np.linalg.inv(basis)
    elif kind == "underflow":
        members = members * 1e-110  # products underflow to exact zero from length 3
    mats = MatrixSet.from_members(
        list(members), field_tag="complex" if kind == "complex" else "real",
    )
    n_max = 5
    with tiny_chunks(rows) if rows else contextlib.nullcontext():
        for norm in NormKind:
            sweeps = []
            for patch in (contextlib.nullcontext(), unpruned()):
                with patch:
                    sweeps.append(radius._lifted_sweep(
                        mats, om, n_max, norm, spectral=range(1, n_max + 1),
                    ))
            pruned, full = sweeps
            assert pruned.norm_sup.tobytes() == full.norm_sup.tobytes()
            assert pruned.spectral_sup.tobytes() == full.spectral_sup.tobytes()
            assert (pruned.counts <= full.counts).all()


def test_lifted_sweep_forms_few_products():
    """At n 9 on this omega, 25,805 of the 29,523 lifted products are
    exactly zero; the oracle forms 4,959 products beyond the 3 letters,
    not 29,520."""
    om = TransitionMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    mats = MatrixSet.from_members(list(np.random.default_rng(0).standard_normal((3, 2, 2))))
    lifted_dim = om.size * mats.dim
    formed = []
    children = radius._children

    def counted(automaton, members, chunk, *cuts):
        pieces = children(automaton, members, chunk, *cuts)
        if members is not None and members.shape[-1] == lifted_dim:
            formed.append(sum(map(len, pieces)))
        return pieces

    with mock.patch.object(radius, "_children", counted):
        assert full_verification(mats, om, 9).passed
    assert 0 < sum(formed) <= 5000
