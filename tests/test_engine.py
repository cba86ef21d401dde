"""The product engine of markovjsr.radius against a naive reference.

The reference walks itertools.product over the whole alphabet, keeps the
words that words.classify accepts, folds each product explicitly and
takes its norms and eigenvalue moduli with plain numpy, over every word
of a class (the engine sends one word per rotation class to the
spectral kernel).  Shrinking the chunk size to a single word forces
every expansion through many chunks and many spectral-kernel calls.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from functools import partial
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
    WordClass,
    alternative_class_chain,
    classify,
    cyclic_words,
    enumerate_words,
    operator_norm,
    spectral_radii,
    window_words,
)
from markovjsr import radius
from tests.conftest import fold_product, random_binary_rows

NUMPY_NORMS = {
    NormKind.ROWSUM: lambda p: np.abs(p).sum(axis=1).max(),
    NormKind.COLSUM: lambda p: np.abs(p).sum(axis=0).max(),
    NormKind.FROBENIUS: np.linalg.norm,
}


def tiny_chunks():
    """One word per chunk and eight products per spectral-kernel call."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(radius, "_CHUNK_BYTES", 1))
    stack.enter_context(mock.patch.object(radius, "_MIN_CHUNK_ROWS", 1))
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


def random_instance(seed: int, size: int, dim: int, complex_field: bool):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    members = rng.standard_normal((size, dim, dim))
    if complex_field:
        members = members + 1j * rng.standard_normal((size, dim, dim))
    field = "complex" if complex_field else "real"
    return MatrixSet.from_members(list(members), field_tag=field), om


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


def test_engine_chunks_split_every_length():
    om = TransitionMatrix.complete(3)
    automaton = radius._Automaton.from_omega(om)
    with tiny_chunks():
        chunks = list(radius._expand(automaton, np.stack([np.eye(2)] * 3), 4))
    # with one parent per slice, each length-n chunk holds one parent's children
    assert [sum(c.n == n for c in chunks) for n in range(1, 5)] == [1, 3, 9, 27]
    assert all(len(c.state) == 3 for c in chunks)


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


@pytest.mark.parametrize("letters", [1, 2, 3])
def test_least_rotations_match_brute_force(letters):
    for n in range(1, 8):
        words = list(itertools.product(range(letters), repeat=n))
        expected = [w == _least_rotation(w) for w in words]
        assert radius._least_rotations(np.array(words), letters).tolist() == expected
    # a power is kept once, a one-letter word always
    powers = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]])
    assert radius._least_rotations(powers, 2).tolist() == [True, False, True]
    assert radius._least_rotations(np.array([[0]] * letters), letters).all()


@pytest.mark.parametrize("letters, n", [(3, 45), (2, 70), (200, 9)])
def test_least_rotations_beyond_int64_numerals(letters, n):
    rng = np.random.default_rng([letters, n])
    words = rng.integers(0, letters, (200, n))
    words[:50] = np.sort(words[:50], axis=1)  # sorted words are least rotations
    period = next(p for p in (3, 5) if n % p == 0)
    words[50:60] = np.tile(words[50:60, : n // period], period)  # powers
    expected = [tuple(w) == _least_rotation(tuple(w)) for w in words.tolist()]
    assert radius._least_rotations(words, letters).tolist() == expected


@pytest.mark.parametrize("tiny", [False, True])
def test_kernel_sees_one_word_per_rotation_class(tiny):
    om = TransitionMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    mats = MatrixSet.from_members(list(np.random.default_rng(3).standard_normal((3, 2, 2))))
    n_max = 7
    sent = []

    def recording(stack):
        sent.append(len(stack))
        return spectral_radii(stack)

    with mock.patch.object(radius, "spectral_radii", recording):
        with tiny_chunks() if tiny else contextlib.nullcontext():
            sweep = radius._sweep(
                radius._Automaton.from_omega(om), np.stack(mats.members), n_max,
                operator_norm, spectral=range(1, n_max + 1),
            )
    classes = {
        _least_rotation(w)
        for n in range(1, n_max + 1)
        for w in itertools.product(range(1, 4), repeat=n)
        if WordClass.PERIODICALLY_EXTENDABLE in classify(w, om)
    }
    assert sum(sent) == len(classes)
    if tiny:
        assert len(sent) > 1
    _, _, spectral = reference(mats, om, n_max)
    np.testing.assert_allclose(
        sweep.spectral_sup, spectral[:, WordClass.PERIODICALLY_EXTENDABLE.strictness],
        rtol=1e-12, atol=0,
    )


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
    rng = np.random.default_rng(seed)
    tuples = list(itertools.product(range(1, alphabet + 1), repeat=k + 1))
    allowed = frozenset(t for t in tuples if rng.random() < 0.6) or frozenset(tuples[:1])
    constraint = KStepConstraint(base_alphabet=alphabet, k=k, allowed=allowed)
    extendable = {t[:k] for t in allowed}
    with tiny_chunks() if tiny else contextlib.nullcontext():
        for n in range(1, 2 * k + 3):
            words = list(itertools.product(range(1, alphabet + 1), repeat=n))
            assert list(cyclic_words(constraint, n)) == [
                w for w in words if _windows_allowed(w, allowed, k, cyclic=True)
            ]
            if n >= k:
                assert list(window_words(constraint, n)) == [
                    w for w in words
                    if _windows_allowed(w, allowed, k, cyclic=False) and w[-k:] in extendable
                ]
