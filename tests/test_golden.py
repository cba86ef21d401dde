"""CLI reports must stay byte-identical to the committed golden outputs.

The instances in tests/data are the four benchmark instances at seed 0
(perfbench/workloads.py; the lift-verify instance is the sparse-chain
one, and sparse-chain.lift.json is the full-precision lift the benchmark
passes to `verify --claimed-lift`).  Each golden file holds the JSON
report that the command printed before the product engine replaced the
per-word walkers, except kstep-bounds and kstep-verify: their n=1
periodic value moved in the 12th digit to the mpmath value when LAPACK
eigenvalues replaced the squaring kernel, and the four verify goldens,
whose `spectral_tol` line moved from 1e-07 to 2e-09 when the tolerance
was tightened to twice the kernel's.  The two `.txt` goldens hold the
text reports of the `words` cases, as the command printed them while it
still listed every word before writing any.  Regenerate one only for an
intended change of output, by running the command from tests/data with
`--format json` (or `--format text`).
"""

from pathlib import Path

import pytest

from tests.conftest import invoke

DATA = Path(__file__).resolve().parent / "data"

CASES = {
    "sparse-bounds": ["bounds", "sparse-chain.json", "--n-max", "8"],
    "sparse-bounds-frobenius": [
        "bounds", "sparse-chain.json", "--n-max", "6", "--norm", "frobenius", "--class", "chain",
    ],
    "sparse-class-chain": ["bounds", "sparse-chain.json", "--n-max", "6", "--class-chain"],
    "sparse-verify-claimed": [
        "verify", "sparse-chain.json", "--n-max", "5", "--claimed-lift", "sparse-chain.lift.json",
    ],
    "sparse-verify-colsum": ["verify", "sparse-chain.json", "--n-max", "3", "--norm", "colsum"],
    "sparse-words": ["words", "sparse-chain.json", "--n", "5", "--class", "periodic"],
    "dense-bounds": ["bounds", "dense-spectral.json", "--n-max", "6"],
    "dense-verify": ["verify", "dense-spectral.json", "--n-max", "3"],
    "kstep-recode": ["kstep-recode", "kstep-order2.json"],
    "kstep-words": ["words", "kstep-order2.json", "--n", "6", "--class", "periodic"],
    "kstep-bounds": ["bounds", "kstep-order2.json", "--n-max", "6"],
    "kstep-verify": ["verify", "kstep-order2.json", "--n-max", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name):
    assert_matches_golden(name, "json")


@pytest.mark.parametrize("name", ["kstep-words", "sparse-words"])
def test_cli_text_matches_golden(name):
    assert_matches_golden(name, "text")


def assert_matches_golden(name, fmt):
    args = [str(DATA / a) if a.endswith(".json") else a for a in CASES[name]]
    result = invoke(*args, "--format", fmt)
    assert result.exit_code == 0
    suffix = ".json" if fmt == "json" else ".txt"
    assert result.stdout == (DATA / "golden" / f"{name}{suffix}").read_text(encoding="utf-8")
