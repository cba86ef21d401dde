import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    TransitionMatrix,
    ValidationError,
    WordClass,
    classify,
    count_words,
    enumerate_words,
    surviving_nodes,
)
from tests.conftest import brute_words, random_binary_rows


def test_classify_reference_examples(four_letter_omega):
    om = four_letter_omega
    assert classify((1, 2, 4), om) == frozenset()  # 2 may not follow 1
    got = classify((1, 3, 4), om)
    assert WordClass.CHAIN in got
    assert WordClass.MARKOV in got
    assert WordClass.PERIODICALLY_EXTENDABLE in got


def test_classify_rejects_forbidden_self_transition(golden_mean_omega):
    assert classify((2, 2), golden_mean_omega) == frozenset()


def test_classify_single_letter_conventions(golden_mean_omega):
    # chain condition is vacuous for one letter
    got1 = classify((1,), golden_mean_omega)
    assert WordClass.CHAIN in got1 and WordClass.PERIODICALLY_EXTENDABLE in got1
    got2 = classify((2,), golden_mean_omega)
    assert WordClass.CHAIN in got2 and WordClass.MARKOV in got2
    assert WordClass.PERIODICALLY_EXTENDABLE not in got2  # no self-loop at 2


def test_classify_range_error(golden_mean_omega):
    with pytest.raises(ValidationError, match="outside 1..2"):
        classify((1, 3), golden_mean_omega)


def test_digraph_flags(golden_mean_omega):
    # successors, continuation and cycle reach of each letter, as
    # classify and count_words read them
    om = golden_mean_omega
    assert tuple(tuple(j for j in (1, 2) if om.allows(i, j)) for i in (1, 2)) == ((1, 2), (1,))
    assert all(WordClass.MARKOV in classify((i,), om) for i in (1, 2))
    assert surviving_nodes(om) == frozenset({1, 2})
    assert all(WordClass.INFINITELY_EXTENDABLE in classify((i,), om) for i in (1, 2))
    # 2 may follow 1 and nothing follows 2: only letter 1 has a
    # continuation, and neither letter reaches a cycle
    dead_end = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    assert classify((1,), dead_end) == {WordClass.CHAIN, WordClass.MARKOV}
    assert classify((2,), dead_end) == {WordClass.CHAIN}
    assert surviving_nodes(dead_end) == frozenset()
    assert count_words(dead_end, 1, WordClass.MARKOV) == 1
    assert count_words(dead_end, 1, WordClass.INFINITELY_EXTENDABLE) == 0


def test_enumerate_golden_mean_markov(golden_mean_omega):
    got = list(enumerate_words(golden_mean_omega, 2, WordClass.MARKOV))
    assert got == [(1, 1), (1, 2), (2, 1)]


def test_enumerate_golden_mean_periodic(golden_mean_omega):
    got = list(enumerate_words(golden_mean_omega, 2, WordClass.PERIODICALLY_EXTENDABLE))
    assert got == [(1, 1), (1, 2), (2, 1)]


def test_enumerate_single_letters_is_whole_alphabet(four_letter_omega):
    got = list(enumerate_words(four_letter_omega, 1, WordClass.CHAIN))
    assert got == [(1,), (2,), (3,), (4,)]


def test_enumerate_rejects_zero_length(golden_mean_omega):
    with pytest.raises(ValidationError, match="positive"):
        list(enumerate_words(golden_mean_omega, 0))


def test_count_golden_mean_chain_is_fibonacci(golden_mean_omega):
    # 1, 2, 3, 5, 8, ... chain words avoid the letter pair (2, 2)
    assert [count_words(golden_mean_omega, n, WordClass.CHAIN) for n in range(1, 7)] == [
        2, 3, 5, 8, 13, 21,
    ]


def test_count_complete_alphabet_is_power():
    om = TransitionMatrix.complete(3)
    for n in range(1, 5):
        assert count_words(om, n, WordClass.CHAIN) == 3**n


def test_count_acyclic_dies_out():
    om = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    assert count_words(om, 3, WordClass.CHAIN) == 0
    assert count_words(om, 2, WordClass.CHAIN) == 1  # only (1, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**25 - 1))
def test_enumerate_matches_classify_filter(size, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    chain_stream = list(enumerate_words(om, n, WordClass.CHAIN))
    for cls in WordClass:
        got = list(enumerate_words(om, n, cls))
        expected = [w for w in chain_stream if cls in classify(w, om)]
        assert got == expected
        assert count_words(om, n, cls) == len(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**25 - 1))
def test_enumerate_matches_brute_force(size, n, seed):
    rng = np.random.default_rng(seed)
    rows = random_binary_rows(rng, size)
    om = TransitionMatrix.from_rows(rows)
    kinds = {
        WordClass.CHAIN: "chain",
        WordClass.MARKOV: "markov",
        WordClass.INFINITELY_EXTENDABLE: "infinite",
        WordClass.PERIODICALLY_EXTENDABLE: "periodic",
    }
    for cls, kind in kinds.items():
        assert list(enumerate_words(om, n, cls)) == brute_words(rows, n, kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**25 - 1))
def test_class_streams_are_nested(size, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    per = set(enumerate_words(om, n, WordClass.PERIODICALLY_EXTENDABLE))
    inf = set(enumerate_words(om, n, WordClass.INFINITELY_EXTENDABLE))
    markov = set(enumerate_words(om, n, WordClass.MARKOV))
    chain = set(enumerate_words(om, n, WordClass.CHAIN))
    assert per <= inf <= markov <= chain


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**25 - 1))
def test_chain_prefix_closure(size, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    chain_shorter = set(enumerate_words(om, n - 1, WordClass.CHAIN))
    for word in enumerate_words(om, n, WordClass.CHAIN):
        assert word[:-1] in chain_shorter


def test_enumeration_is_lazy(golden_mean_omega):
    stream = enumerate_words(golden_mean_omega, 12, WordClass.CHAIN)
    assert next(stream) == (1,) * 12  # no materialization needed


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**25 - 1))
def test_classification_is_upward_closed(size, n, seed):
    # membership in a class implies membership in every weaker class
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    word = tuple(int(v) for v in rng.integers(1, size + 1, n))
    classes = classify(word, om)
    for cls in classes:
        for weaker in WordClass:
            if weaker.strictness <= cls.strictness:
                assert weaker in classes
