"""Independent reference values and output checks for the benchmark.

Built on numpy and LAPACK only; nothing here imports the package under
test.  Words are expanded level by level as batches: the products of one
length are a (W, d, d) stack, and the next length is one batched matmul
over every (word, successor) pair.  The new letter multiplies on the
left, so the word (i_1, ..., i_n) stands for A_{i_n} ... A_{i_1}.

Transition matrices follow the package convention: entry (i, j) is 1 when
letter i may follow letter j (rows are destinations, 0-based here).

The check_* functions take a parsed program output and return a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Per-length upper (norm) values must match to this relative tolerance.
NORM_TOL = 1e-9
# Per-length lower (spectral) values: the program's own verify tolerance.
SPECTRAL_TOL = 1e-7
CLASSES = ("periodic", "infinite", "markov", "chain")


def close(a: float, b: float, tol: float) -> bool:
    """Relative closeness; two zeros are equal."""
    return abs(a - b) <= tol * max(abs(a), abs(b))


def sig12(x: float) -> float:
    return float(f"{x:.12g}")


def rowsum_norms(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).sum(axis=2).max(axis=1)


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    if len(stack) == 0:
        return np.zeros(0)
    return np.abs(np.linalg.eigvals(stack)).max(axis=1)


def periodic_count(omega: np.ndarray, n: int) -> int:
    """Closed walks of length n: trace of omega^n."""
    om = np.asarray(omega, dtype=object)
    power = np.identity(len(om), dtype=object)
    for _ in range(n):
        power = om.dot(power)
    return int(np.trace(power))


def surviving(omega: np.ndarray) -> np.ndarray:
    """Letters from which an infinite walk exists (prune letters with no
    continuation among the survivors until nothing changes)."""
    alive = np.ones(len(omega), dtype=bool)
    while True:
        keep = alive & (np.asarray(omega)[alive].sum(axis=0) > 0)
        if np.array_equal(keep, alive):
            return alive
        alive = keep


def expand_chain(members: np.ndarray, omega: np.ndarray, n_max: int, keep_words: bool = False):
    """Yield (n, first, last, products, words) for the chain words of each length.

    ``words`` is a (W, n) array of 0-based letters in lexicographic order
    when keep_words is set, else None.
    """
    om = np.asarray(omega, dtype=bool)
    size = len(members)
    first = np.arange(size)
    last = np.arange(size)
    prods = np.array(members)
    words = first[:, None].copy() if keep_words else None
    for n in range(1, n_max + 1):
        yield n, first, last, prods, words
        if n == n_max:
            return
        parent, nxt = np.nonzero(om[:, last].T)
        prods = np.matmul(members[nxt], prods[parent])
        first, last = first[parent], nxt
        if keep_words:
            words = np.concatenate([words[parent], nxt[:, None]], axis=1)


@dataclass
class ChainReference:
    """Per-length class bounds of a one-step instance, indexed by n - 1."""

    norm: dict           # class name -> list of norm bounds
    spectral_periodic: list
    counts: list         # chain words per length
    alpha: float

    @property
    def upper(self) -> list:
        return self.norm["markov"]

    @property
    def lower(self) -> list:
        return self.spectral_periodic


def _root(values: np.ndarray, n: int) -> float:
    return float(values.max()) ** (1.0 / n) if len(values) else 0.0


def chain_reference(members, omega, n_max: int) -> ChainReference:
    members = np.asarray(members)
    om = np.asarray(omega, dtype=bool)
    has_out = om.any(axis=0)
    alive = surviving(om)
    norm = {c: [] for c in CLASSES}
    lower, counts = [], []
    for n, first, last, prods, _ in expand_chain(members, om, n_max):
        norms = rowsum_norms(prods)
        periodic = om[first, last]
        masks = {
            "periodic": periodic,
            "infinite": alive[last],
            "markov": has_out[last],
            "chain": np.ones(len(last), dtype=bool),
        }
        for cls, mask in masks.items():
            norm[cls].append(_root(norms[mask], n))
        lower.append(_root(spectral_radii(prods[periodic]), n))
        counts.append(len(last))
    return ChainReference(
        norm=norm,
        spectral_periodic=lower,
        counts=counts,
        alpha=float(rowsum_norms(members).max()),
    )


def lift_members(members, omega) -> tuple[np.ndarray, np.ndarray]:
    """Factors (column i of omega in column i) and the lifted members."""
    om = np.asarray(omega, dtype=np.int64)
    size = len(om)
    factors = np.zeros((size, size, size), dtype=np.int64)
    for i in range(size):
        factors[i, :, i] = om[:, i]
    lifted = np.stack([np.kron(factors[i], members[i]) for i in range(size)])
    return factors, lifted


# ------------------------------------------------------------ order-k rules


@dataclass
class Recoding:
    states: list          # k-tuples of 1-based letters, lexicographic
    omega: np.ndarray
    members: np.ndarray


def recode(allowed, members, k: int) -> Recoding:
    allowed = {tuple(t) for t in allowed}
    states = sorted({t[:k] for t in allowed} | {t[1:] for t in allowed})
    size = len(states)
    omega = np.zeros((size, size), dtype=np.int64)
    for u_pos, u in enumerate(states):
        for v_pos, v in enumerate(states):
            if v[: k - 1] == u[1:] and u + (v[-1],) in allowed:
                omega[v_pos, u_pos] = 1
    rec_members = np.stack([members[u[-1] - 1] for u in states])
    return Recoding(states=states, omega=omega, members=rec_members)


def window_reference(allowed, members, k: int, n_max: int) -> tuple[list, list]:
    """Brute force over the original alphabet.

    Returns (upper, lower): upper[m - 1] is the norm bound over the words
    of length m + k - 1 whose (k+1)-windows are all allowed and whose last
    k letters start an allowed tuple; lower[m - 1] is the spectral bound
    over the words of period m whose cyclic repetition has every window
    allowed.
    """
    members = np.asarray(members)
    size = len(members)
    table = np.zeros((size,) * (k + 1), dtype=bool)
    for t in allowed:
        table[tuple(np.asarray(t) - 1)] = True
    starts = table.any(axis=-1)  # k-tuples that begin an allowed tuple
    words = np.arange(size)[:, None]
    prods = members.copy()
    upper, lower = [], []
    for n in range(1, n_max + k):
        m = n - k + 1
        if m >= 1:
            ext = starts[tuple(words[:, -k:].T)]
            upper.append(_root(rowsum_norms(prods[ext]), n))
        if n <= n_max:
            cyclic = np.ones(len(words), dtype=bool)
            for j in range(n):
                cols = [(j + t) % n for t in range(k + 1)]
                cyclic &= table[tuple(words[:, cols].T)]
            lower.append(_root(spectral_radii(prods[cyclic]), n))
        if n == n_max + k - 1:
            break
        parent = np.repeat(np.arange(len(words)), size)
        letter = np.tile(np.arange(size), len(words))
        grown = np.concatenate([words[parent], letter[:, None]], axis=1)
        ok = np.ones(len(grown), dtype=bool)
        if grown.shape[1] >= k + 1:
            ok = table[tuple(grown[:, -(k + 1):].T)]
        words = grown[ok]
        prods = np.matmul(members[letter[ok]], prods[parent[ok]])
    return upper, lower


# ------------------------------------------------------------------ checks


def _compare(problems: list, what: str, got, want, tol: float) -> None:
    if not close(float(got), float(want), tol):
        problems.append(f"{what}: program {got!r}, reference {want!r}")


def check_bounds(report: dict, ref: ChainReference) -> list[str]:
    """A `bounds --format json` report against the reference."""
    problems: list[str] = []
    n_max = report["n_max"]
    for row in report["bounds"]:
        n = row["n"]
        if row["kind"] == "norm":
            _compare(problems, f"upper n={n}", row["value"], ref.norm[row["class"]][n - 1], NORM_TOL)
        else:
            _compare(problems, f"lower n={n}", row["value"], ref.lower[n - 1], SPECTRAL_TOL)
    if len(report["bounds"]) != 2 * n_max:
        problems.append(f"expected {2 * n_max} bound rows, got {len(report['bounds'])}")
    agg = report["aggregates"]
    _compare(problems, "best_upper", agg["best_upper"], min(ref.upper[:n_max]), NORM_TOL)
    _compare(problems, "best_lower", agg["best_lower"], max(ref.lower[:n_max]), SPECTRAL_TOL)
    if not agg["best_lower"] <= agg["best_upper"] * (1 + 1e-9):
        problems.append(f"inverted sandwich: {agg['best_lower']} > {agg['best_upper']}")
    _compare(problems, "alpha", report["alpha"], ref.alpha, NORM_TOL)
    for cross in report["cross_bounds"]:
        n = cross["n"]
        if not cross["ok"]:
            problems.append(f"cross bound n={n} not ok")
        _compare(problems, f"chain n={n}", cross["chain_value"], ref.norm["chain"][n - 1], NORM_TOL)
    return problems


def check_lift(doc: dict, members, omega) -> list[str]:
    """A `lift` document: entries equal np.kron to 12 significant digits."""
    problems: list[str] = []
    members = np.asarray(members)
    factors, lifted = lift_members(members, omega)
    size, dim = len(members), members.shape[1]
    if doc["dimension"] != size * dim or doc["lift_blocks"] != size or doc["lift_block_dim"] != dim:
        problems.append("lift dimensions differ from the reference")
        return problems
    if doc["lift_factors"] != factors.tolist():
        problems.append("lift factors differ from the reference")
    if doc["omega"] != np.ones((size, size), dtype=int).tolist():
        problems.append("lift transition matrix is not complete")
    complex_field = doc["field"] == "complex"
    for pos, (have, want) in enumerate(zip(doc["matrices"], lifted), start=1):
        for r, c in itertools.product(range(size * dim), repeat=2):
            x = want[r, c]
            expect = [sig12(x.real), sig12(x.imag)] if complex_field else sig12(x.real)
            if have[r][c] != expect:
                problems.append(f"lifted member {pos} entry ({r + 1},{c + 1}): {have[r][c]} != {expect}")
                return problems
    return problems


def check_verify(report: dict, ref: ChainReference) -> list[str]:
    """A `verify --format json` report against the reference."""
    problems: list[str] = []
    n_max = report["n_max"]
    if report["passed"] is not True:
        problems.append("verify did not PASS")
    if report.get("claimed_lift_matches") is False:
        problems.append("claimed lift reported as not matching")
    for row in report["lift_equalities"]:
        n = row["n"]
        if not row["ok"]:
            problems.append(f"lift equality n={n} not ok")
        for key in ("norm_lifted", "norm_constrained"):
            _compare(problems, f"{key} n={n}", row[key], ref.upper[n - 1], NORM_TOL)
        for key in ("spectral_lifted", "spectral_periodic"):
            _compare(problems, f"{key} n={n}", row[key], ref.lower[n - 1], SPECTRAL_TOL)
    words = sum(ref.counts[:n_max])
    fs = report["factor_structure"]
    if fs["words_checked"] != words:
        problems.append(f"words_checked {fs['words_checked']}, reference {words}")
    for key in ("representation_ok", "nonzero_iff_admissible_ok", "diagonal_iff_periodic_ok"):
        if fs[key] is not True:
            problems.append(f"factor structure {key} false")
    for row in report["class_chain_monotone"]:
        n = row["n"]
        if not row["ok"]:
            problems.append(f"class chain n={n} not ok")
        for cls, value in zip(CLASSES, row["values"]):
            _compare(problems, f"{cls} norm n={n}", value, ref.norm[cls][n - 1], NORM_TOL)
    for cross in report["cross_bounds"]:
        if not cross["ok"]:
            problems.append(f"cross bound n={cross['n']} not ok")
    return problems


def check_recode(doc: dict, rec: Recoding) -> list[str]:
    """A `kstep-recode` document against the reference recoding."""
    problems: list[str] = []
    if [tuple(s) for s in doc["states"]] != rec.states:
        problems.append("recoded states differ from the reference")
    if doc["omega"] != rec.omega.tolist():
        problems.append("recoded transition matrix differs from the reference")
    want = [[[sig12(x) for x in row] for row in m] for m in rec.members.real]
    if doc["matrices"] != want:
        problems.append("recoded members differ from the reference")
    return problems


def check_words(report: dict, rec: Recoding, expected: np.ndarray) -> list[str]:
    """A `words --class periodic --format json` report on a recoded instance."""
    problems: list[str] = []
    count = periodic_count(rec.omega, report["n"])
    if not report["stream_count"] == report["transfer_count"] == count:
        problems.append(
            f"word counts stream={report['stream_count']} transfer={report['transfer_count']}, "
            f"trace={count}"
        )
    if report["words"] != (expected + 1).tolist():
        problems.append("listed words differ from the reference")
    return problems


def periodic_words(rec: Recoding, n: int) -> np.ndarray:
    """Periodic recoded words of length n, 0-based, lexicographic."""
    for m, first, last, _, words in expand_chain(rec.members, rec.omega, n, keep_words=True):
        if m == n:
            return words[rec.omega[first, last] == 1]
    raise ValueError(n)


def check_equivalence(
    report: dict, rec_ref: ChainReference, direct_upper: list, direct_lower: list
) -> list[str]:
    """The equivalence script's report against both references."""
    problems: list[str] = []
    if report["agrees"] is not True:
        problems.append("radius_equivalence_check does not agree")
    for row in report["rows"]:
        m = row["recoded_length"]
        _compare(problems, f"recoded_upper m={m}", row["recoded_upper"], rec_ref.upper[m - 1], NORM_TOL)
        _compare(problems, f"recoded_lower m={m}", row["recoded_lower"], rec_ref.lower[m - 1], SPECTRAL_TOL)
        _compare(problems, f"direct_upper m={m}", row["direct_upper"], direct_upper[m - 1], NORM_TOL)
        _compare(problems, f"direct_lower m={m}", row["direct_lower"], direct_lower[m - 1], SPECTRAL_TOL)
    return problems
