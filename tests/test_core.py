import importlib
import itertools
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovjsr
from markovjsr import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
    surviving_nodes,
    validate_instance,
    validate_word,
)
from tests.conftest import brute_words, chain_ok, random_binary_rows

MODULES = ["markovjsr"] + [
    f"markovjsr.{m.name}" for m in pkgutil.iter_modules(markovjsr.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_validate_instance_accepts_well_formed_pair():
    mats = MatrixSet.from_members([np.array([[1.0]]), np.array([[2.0]])])
    om = TransitionMatrix.from_rows([[1, 0], [1, 1]])
    assert validate_instance(mats, om) == (mats, om)


def test_validate_instance_rejects_size_mismatch():
    mats = MatrixSet.from_members([np.array([[1.0]]), np.array([[2.0]])])
    om = TransitionMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError, match="3x3.*2 members"):
        validate_instance(mats, om)


def test_transition_matrix_rejects_non_binary_entry():
    with pytest.raises(ValidationError, match=r"\(1,2\).*expected 0 or 1"):
        TransitionMatrix.from_rows([[1, 2], [0, 1]])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 10**400], [1, 1]], r"entry at \(1,2\) is 1000.*expected 0 or 1"),
        ([[1, None], [1, 1]], r"entry at \(1,2\) is None, expected 0 or 1"),
        ([[1, "a"], [1, 1]], r"entry at \(1,2\) is 'a', expected 0 or 1"),
        ([[1, 1], [1]], "ragged"),
    ],
    ids=["huge-integer", "none", "string", "ragged"],
)
def test_transition_matrix_names_an_entry_numpy_holds_as_object(rows, message):
    with pytest.raises(ValidationError, match=message):
        TransitionMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MatrixSet(1, (np.eye(1),), "quaternion"),
         "field must be 'real' or 'complex', got 'quaternion'"),
        (lambda: MatrixSet(0, (np.eye(1),)), "matrix dimension must be positive, got 0"),
        (lambda: MatrixSet(1, ()), "a matrix family needs at least one member"),
        (lambda: MatrixSet.from_members([]), "a matrix family needs at least one member"),
        (lambda: MatrixSet.from_members([np.ones(2)]), "member 1 has shape (2,), expected square"),
        (lambda: TransitionMatrix(0, np.zeros((0, 0))),
         "transition matrix size must be positive, got 0"),
        (lambda: TransitionMatrix(2, np.ones((3, 3))),
         "transition matrix has shape (3, 3), expected (2, 2)"),
        (lambda: TransitionMatrix.from_rows([1, 0]),
         "transition matrix must be a rectangular 2-dimensional array, got shape (2,)"),
    ],
    ids=[
        "unknown-field", "dimension-zero", "no-members", "from-no-members",
        "from-vector-member", "transition-size-zero", "transition-shape", "transition-vector",
    ],
)
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_matrix_set_rejects_non_square_member():
    with pytest.raises(ValidationError, match="member 2"):
        MatrixSet.from_members([np.zeros((2, 2)), np.zeros((2, 3))])


def test_matrix_set_rejects_wrong_dimension():
    with pytest.raises(ValidationError, match="member 2 is 3x3"):
        MatrixSet.from_members([np.zeros((2, 2)), np.zeros((3, 3))])


def test_matrix_set_rejects_non_finite_entries():
    bad = np.array([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(ValidationError, match=r"entry \(1,2\) is not finite"):
        MatrixSet.from_members([bad])
    bad = np.array([[float("inf")]])
    with pytest.raises(ValidationError, match="not finite"):
        MatrixSet.from_members([bad])


def test_matrix_set_real_field_rejects_imaginary_part():
    with pytest.raises(ValidationError, match="imaginary"):
        MatrixSet.from_members([np.array([[1 + 1j]])], field_tag="real")


def test_matrix_set_complex_field_accepts_complex():
    mats = MatrixSet.from_members([np.array([[1 + 1j]])], field_tag="complex")
    assert mats.members[0].dtype == np.complex128


def test_matrix_set_members_are_read_only():
    mats = MatrixSet.from_members([np.array([[1.0]])])
    with pytest.raises(ValueError):
        mats.members[0][0, 0] = 5.0


def test_word_class_containment_order():
    per = WordClass.PERIODICALLY_EXTENDABLE
    inf = WordClass.INFINITELY_EXTENDABLE
    markov = WordClass.MARKOV
    chain = WordClass.CHAIN
    assert chain.strictness < markov.strictness < inf.strictness < per.strictness


def test_validate_word_range_and_emptiness():
    assert validate_word((1, 2, 1), 2) == (1, 2, 1)
    with pytest.raises(ValidationError, match="letter 2 is 3"):
        validate_word((1, 3), 2)
    with pytest.raises(ValidationError, match="at least one letter"):
        validate_word((), 2)


def test_arbitrarily_long_words_self_loop():
    assert surviving_nodes(TransitionMatrix.from_rows([[1]]))


def test_arbitrarily_long_words_acyclic_two_letters():
    # digraph has only the edge 1 -> 2; brute force confirms no length-3 chain
    rows = [[0, 0], [1, 0]]
    assert brute_words(rows, 3, "chain") == []
    assert not surviving_nodes(TransitionMatrix.from_rows(rows))


def test_arbitrarily_long_words_four_letter_reference(four_letter_omega):
    # the (1,1) self-loop alone guarantees a cycle
    assert surviving_nodes(four_letter_omega)


def test_surviving_nodes_prunes_dead_tails():
    # 3 -> 2 -> 1 -> 1: only the self-loop component survives upstream nodes
    om = TransitionMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert surviving_nodes(om) == frozenset({1, 2, 3})
    om = TransitionMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert surviving_nodes(om) == frozenset()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**25 - 1))
def test_cycle_criterion_matches_brute_force(size, seed):
    rng = np.random.default_rng(seed)
    rows = random_binary_rows(rng, size)
    om = TransitionMatrix.from_rows(rows)
    # pigeonhole oracle: a chain word longer than the alphabet forces a cycle
    brute = any(
        chain_ok(rows, word)
        for word in itertools.product(range(1, size + 1), repeat=size + 1)
    )
    assert bool(surviving_nodes(om)) == brute


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**25 - 1))
def test_cycle_criterion_serves_periodic_class(size, seed):
    # unbounded lengths for the periodic class: some length in N+1..2N closes up
    rng = np.random.default_rng(seed)
    rows = random_binary_rows(rng, size)
    om = TransitionMatrix.from_rows(rows)
    brute_periodic_long = any(
        brute_words(rows, n, "periodic") for n in range(size + 1, 2 * size + 1)
    )
    assert bool(surviving_nodes(om)) == brute_periodic_long


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**25 - 1))
def test_every_column_nonzero_implies_unbounded_words(size, seed):
    # a continuation out of every letter forces a cycle
    rng = np.random.default_rng(seed)
    rows = random_binary_rows(rng, size)
    for j in range(size):
        if not any(rows[i][j] for i in range(size)):
            rows[rng.integers(0, size)][j] = 1
    om = TransitionMatrix.from_rows(rows)
    assert surviving_nodes(om)
