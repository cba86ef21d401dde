"""Seeded instances and the operations each benchmark workload runs.

The program sees only the instance files written here.  Members are
Gaussian and drawn from the seed; the transition structure of each
workload is fixed, so the number of words, and hence the work of a pass,
is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
EQUIVALENCE_SCRIPT = BENCH_DIR / "eqcheck.py"

# The ROADMAP instance: letter 1 may not follow letter 3, nor letter 2 itself.
SPARSE_OMEGA = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
SPARSE_N_MAX = 13
DENSE_N_MAX = 13
LIFT_N_MAX = 9
KSTEP_N_MAX = 11
# Order-2 rule over three letters: after the pair (a, b) every letter but
# (a + b) mod 3 + 1 may follow.  All nine pairs occur, so it recodes to nine
# states, each with two successors.
KSTEP_ALLOWED = [
    [a, b, c]
    for a, b, c in itertools.product((1, 2, 3), repeat=3)
    if c != (a + b) % 3 + 1
]

# Random streams: sparse-chain draws from default_rng(seed), so seed 0 is
# the ROADMAP's 3-letter instance; lift-verify reuses its members.  The
# other workloads draw from default_rng([seed, tag]).
_DENSE_TAG, _KSTEP_TAG = 2, 3


@dataclass
class Op:
    """One program invocation and the check of its standard output."""

    name: str
    args: list            # after the interpreter: ["-m", "markovjsr", ...] or [script, ...]
    check: Callable[[str], list]


@dataclass
class Workload:
    ops: list             # one pass, in order
    setup: Op             # the least work on the same instance (n_max 1)
    words: int            # distinct product words a pass requests
    chain_words: int      # distinct constrained chain words a pass requests


def _gaussian(seed, size: int, dim: int, complex_field: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((size, dim, dim))
    if not complex_field:
        return real
    return (real + 1j * rng.standard_normal((size, dim, dim))) / np.sqrt(2.0)


def _write(path: Path, members: np.ndarray, **rule) -> str:
    complex_field = np.iscomplexobj(members)
    if complex_field:
        mats = np.stack([members.real, members.imag], axis=-1).tolist()
    else:
        mats = members.tolist()
    doc = {
        "dimension": int(members.shape[1]),
        "field": "complex" if complex_field else "real",
        "matrices": mats,
    }
    doc.update({k: np.asarray(v).tolist() if k == "omega" else v for k, v in rule.items()})
    path.write_text(json.dumps(doc))
    return str(path)


def _cli(*args) -> list:
    return ["-m", "markovjsr", *[str(a) for a in args]]


def _json_check(check: Callable[[dict], list]) -> Callable[[str], list]:
    def run(text: str) -> list:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        try:
            return check(doc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return [f"output lacks an expected field: {exc!r}"]
    return run


def _bounds_ops(path: str, reference: ref.ChainReference, n_max: int) -> tuple[Op, Op]:
    check = _json_check(lambda doc: ref.check_bounds(doc, reference))
    return (
        Op("bounds", _cli("bounds", path, "--n-max", n_max, "--format", "json"), check),
        Op("setup", _cli("bounds", path, "--n-max", 1, "--format", "json"), check),
    )


def sparse_chain(seed: int, out: Path) -> Workload:
    members = _gaussian(seed, 3, 4)
    path = _write(out / "sparse-chain.json", members, omega=SPARSE_OMEGA)
    reference = ref.chain_reference(members, SPARSE_OMEGA, SPARSE_N_MAX)
    bounds, setup = _bounds_ops(path, reference, SPARSE_N_MAX)
    words = sum(reference.counts)
    return Workload(ops=[bounds], setup=setup, words=words, chain_words=words)


def dense_spectral(seed: int, out: Path) -> Workload:
    members = _gaussian([seed, _DENSE_TAG], 2, 16, complex_field=True)
    omega = np.ones((2, 2), dtype=int)
    path = _write(out / "dense-spectral.json", members, omega=omega)
    reference = ref.chain_reference(members, omega, DENSE_N_MAX)
    bounds, setup = _bounds_ops(path, reference, DENSE_N_MAX)
    words = sum(reference.counts)
    return Workload(ops=[bounds], setup=setup, words=words, chain_words=words)


def lift_verify(seed: int, out: Path) -> Workload:
    members = _gaussian(seed, 3, 4)
    size = len(members)
    path = _write(out / "lift-verify.json", members, omega=SPARSE_OMEGA)
    # Full precision: `lift` itself prints 12 significant digits.
    _, lifted = ref.lift_members(members, SPARSE_OMEGA)
    claimed = _write(out / "lift-verify.claimed.json", lifted, omega=np.ones((size, size), dtype=int))
    reference = ref.chain_reference(members, SPARSE_OMEGA, LIFT_N_MAX)
    verify_check = _json_check(lambda doc: ref.check_verify(doc, reference))
    ops = [
        Op("lift", _cli("lift", path, "--format", "json"),
           _json_check(lambda doc: ref.check_lift(doc, members, SPARSE_OMEGA))),
        Op("verify", _cli("verify", path, "--n-max", LIFT_N_MAX, "--claimed-lift", claimed,
                          "--format", "json"), verify_check),
    ]
    setup = Op("setup", _cli("verify", path, "--n-max", 1, "--format", "json"), verify_check)
    chain = sum(reference.counts)
    lifted_words = sum(size**n for n in range(1, LIFT_N_MAX + 1))
    return Workload(ops=ops, setup=setup, words=chain + lifted_words, chain_words=chain)


def kstep_order2(seed: int, out: Path) -> Workload:
    members = _gaussian([seed, _KSTEP_TAG], 3, 3)
    path = _write(out / "kstep-order2.json", members, kstep={"k": 2, "allowed": KSTEP_ALLOWED})
    rec = ref.recode(KSTEP_ALLOWED, members, 2)
    rec_ref = ref.chain_reference(rec.members, rec.omega, KSTEP_N_MAX)
    direct_upper, direct_lower = ref.window_reference(KSTEP_ALLOWED, members, 2, KSTEP_N_MAX)
    periodic = ref.periodic_words(rec, KSTEP_N_MAX)
    bounds, setup = _bounds_ops(path, rec_ref, KSTEP_N_MAX)
    ops = [
        Op("kstep-recode", _cli("kstep-recode", path, "--format", "json"),
           _json_check(lambda doc: ref.check_recode(doc, rec))),
        Op("words", _cli("words", path, "--n", KSTEP_N_MAX, "--class", "periodic", "--format", "json"),
           _json_check(lambda doc: ref.check_words(doc, rec, periodic))),
        bounds,
        Op("equivalence", [str(EQUIVALENCE_SCRIPT), path, str(KSTEP_N_MAX)],
           _json_check(lambda doc: ref.check_equivalence(doc, rec_ref, direct_upper, direct_lower))),
    ]
    # The direct walkers visit the original-alphabet images of the recoded
    # words, so each word is counted once.
    words = sum(rec_ref.counts)
    return Workload(ops=ops, setup=setup, words=words, chain_words=words)


WORKLOADS = {
    "sparse-chain": sparse_chain,
    "dense-spectral": dense_spectral,
    "lift-verify": lift_verify,
    "kstep-order2": kstep_order2,
}
