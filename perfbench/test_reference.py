"""Tests of the benchmark's reference checker.

Run from the repository root with:  python3 -m pytest perfbench -q

The golden-mean instance (members 2 and 3, letter 2 may not follow
itself) has closed-form bounds: the best admissible word alternates
3, 2, 3, ..., and the best periodic word of odd length has one more 2
than 3; the rate is sqrt(6).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import workloads

ROOT = Path(__file__).resolve().parent.parent
MEMBERS = np.array([[[2.0]], [[3.0]]])
OMEGA = np.array([[1, 1], [1, 0]])
N_MAX = 10


def closed_upper(n: int) -> float:
    return (3.0 ** math.ceil(n / 2) * 2.0 ** (n // 2)) ** (1.0 / n)


def closed_lower(n: int) -> float:
    return (3.0 ** (n // 2) * 2.0 ** math.ceil(n / 2)) ** (1.0 / n)


def golden_report() -> dict:
    """A bounds report as the program prints it, built from the closed forms."""
    uppers = [closed_upper(n) for n in range(1, N_MAX + 1)]
    lowers = [closed_lower(n) for n in range(1, N_MAX + 1)]
    bounds = []
    for n in range(1, N_MAX + 1):
        bounds.append({"n": n, "class": "markov", "kind": "norm",
                       "value": ref.sig12(uppers[n - 1]), "empty": False})
        bounds.append({"n": n, "class": "periodic", "kind": "spectral",
                       "value": ref.sig12(lowers[n - 1]), "empty": False})
    cross = [
        {"n": n, "chain_value": ref.sig12(uppers[n - 1]),
         "cap": ref.sig12(3.0 ** (1 / n) * uppers[n - 2] ** ((n - 1) / n)), "ok": True}
        for n in range(2, N_MAX + 1)
    ]
    return {
        "n_max": N_MAX,
        "alpha": 3.0,
        "bounds": bounds,
        "aggregates": {
            "best_lower": ref.sig12(max(lowers)), "best_lower_n": 2,
            "best_upper": ref.sig12(min(uppers)), "best_upper_n": N_MAX,
            "gap": ref.sig12(min(uppers) - max(lowers)),
        },
        "cross_bounds": cross,
    }


@pytest.fixture(scope="module")
def golden():
    return ref.chain_reference(MEMBERS, OMEGA, N_MAX)


def test_reference_matches_closed_form(golden):
    for n in range(1, N_MAX + 1):
        assert golden.upper[n - 1] == pytest.approx(closed_upper(n), rel=1e-14)
        assert golden.lower[n - 1] == pytest.approx(closed_lower(n), rel=1e-14)
    assert golden.lower[1] == pytest.approx(math.sqrt(6), rel=1e-14)
    assert max(golden.lower) <= math.sqrt(6) * (1 + 1e-14) <= min(golden.upper) * (1 + 1e-14)
    # Fibonacci numbers of chain words
    assert golden.counts == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def test_accepts_golden_mean_report(golden):
    assert ref.check_bounds(golden_report(), golden) == []


def test_accepts_program_output(golden, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"dimension": 1, "field": "real",
                                "matrices": MEMBERS.tolist(), "omega": OMEGA.tolist()}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "markovjsr", "bounds", str(path), "--n-max", str(N_MAX),
         "--format", "json"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert ref.check_bounds(json.loads(out), golden) == []


def test_rejects_moved_best_upper(golden):
    report = golden_report()
    report["aggregates"]["best_upper"] *= 1.01
    assert ref.check_bounds(report, golden)


@pytest.mark.parametrize("row", range(2 * N_MAX))
@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_rejects_one_moved_per_length_value(golden, row, factor):
    report = golden_report()
    report["bounds"][row]["value"] *= factor
    problems = ref.check_bounds(report, golden)
    assert len(problems) == 1


def test_kstep_references_agree():
    """The recoded sandwich and the original-alphabet brute force are two
    routes to the same periodic products."""
    members = np.random.default_rng(0).standard_normal((3, 3, 3))
    rec = ref.recode(workloads.KSTEP_ALLOWED, members, 2)
    assert len(rec.states) == 9
    assert rec.omega.sum(axis=0).tolist() == [2] * 9
    rec_ref = ref.chain_reference(rec.members, rec.omega, 6)
    upper, lower = ref.window_reference(workloads.KSTEP_ALLOWED, members, 2, 6)
    assert lower == pytest.approx(rec_ref.lower, rel=1e-12)
    assert len(upper) == 6
    words = ref.periodic_words(rec, 6)
    assert len(words) == ref.periodic_count(rec.omega, 6)
