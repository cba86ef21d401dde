"""Shared fixtures and independent brute-force oracles for the test suite.

The oracle helpers here deliberately avoid the library's enumeration and
radius code paths: words are checked with itertools over raw 0/1 rows and
products are folded with plain numpy, so tests compare two genuinely
different routes to the same values.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from markovjsr import MatrixSet, TransitionMatrix, kstep, radius, surviving_nodes
from markovjsr.cli import main


@pytest.fixture
def four_letter_omega() -> TransitionMatrix:
    """4-letter transition matrix with known factor and lift layouts."""
    return TransitionMatrix.from_rows([
        [1, 0, 0, 1],
        [0, 0, 1, 1],
        [1, 1, 0, 1],
        [0, 1, 1, 0],
    ])


@pytest.fixture
def golden_mean_omega() -> TransitionMatrix:
    """Two letters, '2' may not follow '2'."""
    return TransitionMatrix.from_rows([[1, 1], [1, 0]])


@pytest.fixture
def golden_mean_scalars() -> MatrixSet:
    return MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])


# ------------------------------------------------------------- oracles


def chain_ok(rows, word) -> bool:
    """Chain condition on a 1-based word over raw 0/1 rows."""
    return all(rows[b - 1][a - 1] for a, b in zip(word, word[1:]))


def brute_words(rows, n, kind="chain"):
    """All length-n words of a class by exhaustive search over raw rows."""
    size = len(rows)
    out = []
    for word in itertools.product(range(1, size + 1), repeat=n):
        if not chain_ok(rows, word):
            continue
        last, first = word[-1], word[0]
        if kind == "chain":
            out.append(word)
        elif kind == "markov":
            if any(rows[i][last - 1] for i in range(size)):
                out.append(word)
        elif kind == "periodic":
            if rows[first - 1][last - 1]:
                out.append(word)
        elif kind == "infinite":
            if _brute_walk_exists(rows, last, size):
                out.append(word)
        else:
            raise ValueError(kind)
    return out


def _brute_walk_exists(rows, start, length) -> bool:
    """Is there a walk of the given length out of ``start``?  (Pigeonhole:
    a walk as long as the node count must revisit a node, i.e. reach a
    cycle, so asking for length = size decides infinite extendability.)"""
    size = len(rows)
    frontier = {start}
    for _ in range(length):
        frontier = {
            i + 1
            for i in range(size)
            if any(rows[i][j - 1] for j in frontier)
        }
        if not frontier:
            return False
    return True


def fold_product(members, word) -> np.ndarray:
    """Product along a word, first letter applied first (left multiplication)."""
    out = np.array(members[word[0] - 1])
    for letter in word[1:]:
        out = np.array(members[letter - 1]) @ out
    return out


def brute_norm_bound(members, rows, n, kind="markov") -> float:
    """sup ||product||_rowsum^(1/n) over brute-enumerated class words."""
    best = 0.0
    for word in brute_words(rows, n, kind):
        v = float(np.abs(fold_product(members, word)).sum(axis=1).max())
        best = max(best, v)
    return best ** (1.0 / n) if best else 0.0


def brute_spectral_bound(members, rows, n, kind="periodic") -> float:
    """sup rho(product)^(1/n) via numpy eigenvalues over brute words."""
    best = 0.0
    for word in brute_words(rows, n, kind):
        radius = float(max(abs(np.linalg.eigvals(fold_product(members, word)))))
        best = max(best, radius)
    return best ** (1.0 / n) if best else 0.0


def window_class_words(constraint, n, cls) -> list:
    """Length-n words of a class under an order-k window rule, listed by
    the product engine from the rule's window automaton.  MARKOV gives the
    words that recode to admissible words of length n - k + 1, the
    periodic class those whose periodic repetition is admissible."""
    return list(radius._class_words(kstep._window_automaton(constraint), n, cls))


def scaled(mats: MatrixSet, c) -> MatrixSet:
    """The family with every member multiplied by the scalar c."""
    return MatrixSet(mats.dim, tuple(c * m for m in mats.members), mats.field_tag)


def random_binary_rows(rng, size):
    return [[int(v) for v in row] for row in rng.integers(0, 2, (size, size))]


def random_instance(seed: int, size: int, dim: int, complex_field: bool):
    """A random instance: any 0/1 rows, Gaussian real or complex members."""
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    members = rng.standard_normal((size, dim, dim))
    if complex_field:
        members = members + 1j * rng.standard_normal((size, dim, dim))
    field = "complex" if complex_field else "real"
    return MatrixSet.from_members(list(members), field_tag=field), om


def random_cyclic_instance(rng, max_letters=4, max_dim=3):
    """A random instance whose transition graph has a cycle."""
    while True:
        size = int(rng.integers(1, max_letters + 1))
        dim = int(rng.integers(1, max_dim + 1))
        om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
        if surviving_nodes(om):
            mats = MatrixSet.from_members(
                [rng.uniform(-1, 1, (dim, dim)) for _ in range(size)]
            )
            return mats, om


def count_sweeps(monkeypatch) -> list:
    """Record the n_max of every call of the product engine's sweep."""
    calls = []
    sweep = radius._sweep

    def counted(automaton, members, n_max, *args, **kwargs):
        calls.append(n_max)
        return sweep(automaton, members, n_max, *args, **kwargs)

    monkeypatch.setattr(radius, "_sweep", counted)
    return calls


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """What a terminal shows: stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(*args) -> CliResult:
    """Run the command line ``markovjsr ARGS`` in this process, with stdout
    and stderr captured.  An exception other than SystemExit propagates."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


GOLDEN_MEAN_DOC = {
    "dimension": 1,
    "field": "real",
    "matrices": [[[2]], [[3]]],
    "omega": [[1, 1], [1, 0]],
}

FOUR_LETTER_ROWS = [
    [1, 0, 0, 1],
    [0, 0, 1, 1],
    [1, 1, 0, 1],
    [0, 1, 1, 0],
]
