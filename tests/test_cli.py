import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from markovjsr import __version__
from markovjsr import cli
from markovjsr.cli import main
from markovjsr.instancefile import parse_instance
from tests.conftest import FOUR_LETTER_ROWS, GOLDEN_MEAN_DOC, count_sweeps, write_instance

SQRT6 = math.sqrt(6.0)
DATA = Path(__file__).resolve().parent / "data"
ROOT = DATA.parent.parent

# Complex 2 x 2 members, so the lift's text rendering shows [re,im] pairs
# in blocks wider than one entry.
COMPLEX_DOC = {
    "dimension": 2,
    "field": "complex",
    "matrices": [[[[0, 2], 1], [0, [0.5, -1]]], [[3, [0, -0.25]], [0, 0]]],
    "omega": [[1, 1], [1, 0]],
}

# Gaussian members: the lift has entries that 12 significant digits do not hold.
NON_INTEGER_DOC = {
    "dimension": 2,
    "field": "real",
    "matrices": np.random.default_rng(0).standard_normal((3, 2, 2)).tolist(),
    "omega": [[1, 1, 0], [1, 0, 1], [1, 1, 1]],
}

ORDER2_DOC = {
    "dimension": 1,
    "field": "real",
    "matrices": [[[2]], [[3]]],
    "kstep": {
        "k": 2,
        "allowed": sorted(
            list(t)
            for t in itertools.product((1, 2), repeat=3)
            if (2, 2) not in zip(t, t[1:])
        ),
    },
}


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ----------------------------------------------------------------- bounds


def test_bounds_golden_mean_json(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "8", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    agg = report["aggregates"]
    assert agg["best_lower"] == pytest.approx(SQRT6, abs=1e-9)
    assert agg["best_upper"] == pytest.approx(SQRT6, abs=1e-9)
    assert agg["best_lower_n"] == 2
    assert report["alpha"] == 3.0
    assert all(c["ok"] for c in report["cross_bounds"])
    assert report["version"]
    assert report["norm"] == "rowsum"
    assert len(report["instance_digest"]) == 64


def test_bounds_text_output_mentions_aggregates(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 0
    assert "best_upper: 2.44948974278" in result.output
    assert "best_lower: 2.44948974278" in result.output


def test_bounds_deterministic_output(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    first = invoke(runner, "bounds", str(path), "--format", "json").output
    second = invoke(runner, "bounds", str(path), "--format", "json").output
    assert first == second


def test_bounds_class_chain_table(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "4", "--class-chain", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    for row in report["class_chain"]:
        vals = row["values"]
        assert vals == sorted(vals)  # periodic <= infinite <= markov <= chain


def test_bounds_class_chain_makes_one_sweep(runner, tmp_path, monkeypatch):
    calls = count_sweeps(monkeypatch)
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "6", "--class-chain", "--format", "json")
    assert result.exit_code == 0
    assert [row["n"] for row in json.loads(result.output)["class_chain"]] == [1, 2, 3, 4, 5, 6]
    assert calls == [6]


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_bounds_class_chain_rejects_non_positive_n_max(runner, tmp_path, n_max):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", n_max, "--class-chain")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "word length must be positive" in result.stderr


def test_bounds_kstep_instance_recodes_first(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "10", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["recoded_from_kstep"] is True
    assert report["state_count"] == 3
    assert report["aggregates"]["best_lower"] == pytest.approx(SQRT6, abs=1e-9)


def test_bounds_text_names_the_recoded_order(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "2")
    assert result.exit_code == 0
    assert result.output.splitlines()[2:4] == [
        "norm=rowsum n_max=2 rel_tol=1e-09 class=markov",
        "recoded from order-2 constraint (3 states)",
    ]


def test_bounds_class_chain_text_table(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--n-max", "2", "--class-chain")
    assert result.exit_code == 0
    assert result.output.splitlines() == _text_head("bounds", GOLDEN_MEAN_DOC) + [
        "norm=rowsum n_max=2 rel_tol=1e-09 class=markov",
        "   n          periodic         infinite           markov            chain",
        "   1                 2                3                3                3",
        "   2     2.44948974278    2.44948974278    2.44948974278    2.44948974278",
    ]


def test_bounds_rejects_periodic_upper_class(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "bounds", str(path), "--class", "periodic")
    assert result.exit_code == 3
    assert "class-chain" in (result.stderr or result.output)


def test_bounds_budget_guard(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[1]], [[1]], [[1]], [[1]]],
        "omega": [[1] * 4] * 4,
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path), "--n-max", "14")
    assert result.exit_code == 4
    assert "budget" in result.output or "budget" in (result.stderr or "")
    relaxed = invoke(runner, "bounds", str(path), "--n-max", "6", "--budget", "100000000")
    assert relaxed.exit_code == 0


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_tol_option_is_a_usage_error(runner, tmp_path, command):
    # the spectral tolerance is fixed: a looser one can print a best_lower
    # above the true rate
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, command, str(path), "--tol", "1e-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--tol" in result.stderr


# ------------------------------------------------------------ exit codes


def test_malformed_json_is_parse_error(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 2


def test_missing_file_is_parse_error(runner, tmp_path):
    result = invoke(runner, "bounds", str(tmp_path / "nope.json"))
    assert result.exit_code == 2


def test_omega_and_kstep_together_is_parse_error(runner, tmp_path):
    doc = dict(GOLDEN_MEAN_DOC)
    doc["kstep"] = {"k": 1, "allowed": [[1, 1]]}
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 2


def test_ragged_omega_is_parse_error(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[2]], [[3]]],
        "omega": [[1, 1], [1]],
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 2


def test_non_binary_omega_entry_is_validation_error(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[2]], [[3]]],
        "omega": [[1, 2], [1, 0]],
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 3
    assert "(1,2)" in (result.stderr or result.output)


def test_huge_integer_omega_entry_is_named(runner, tmp_path):
    # numpy holds a 400-digit integer only as a Python object
    doc = {**GOLDEN_MEAN_DOC, "omega": [[1, 1], [1, 10**400]]}
    result = invoke(runner, "bounds", str(write_instance(tmp_path, doc)))
    assert result.exit_code == 3
    message = result.stderr or result.output
    assert "transition entry at (2,2) is 1000" in message and "expected 0 or 1" in message


def test_string_matrix_entry_is_parse_error(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[["2"]], [[3]]],
        "omega": [[1, 1], [1, 0]],
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 2


KSTEP_DOC = {**ORDER2_DOC, "kstep": {"k": 1, "allowed": [[1, 1]]}}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**GOLDEN_MEAN_DOC, "matrices": [[[2]], 3]}, "matrix 2: matrix must be a list"),
        ([GOLDEN_MEAN_DOC], "top level must be a JSON object"),
        ({"dimension": 1, "matrices": [[[2]]], "omega": [[1]]}, "missing required key 'field'"),
        ({**GOLDEN_MEAN_DOC, "dimension": 0}, "'dimension' must be a positive integer, got 0"),
        ({**GOLDEN_MEAN_DOC, "field": "quaternion"},
         "'field' must be 'real' or 'complex', got 'quaternion'"),
        ({**GOLDEN_MEAN_DOC, "matrices": []}, "'matrices' must be a nonempty list"),
        ({**GOLDEN_MEAN_DOC, "omega": [[1, "1"], [1, 0]]},
         "'omega' must be a list of rows of numbers"),
        ({**KSTEP_DOC, "kstep": [1, [[1, 1]]]}, "'kstep' must be an object"),
        ({**KSTEP_DOC, "kstep": {"k": 1}}, "'kstep' is missing key 'allowed'"),
        ({**KSTEP_DOC, "kstep": {"k": True, "allowed": [[1, 1]]}},
         "'kstep.k' must be an integer, got True"),
        ({**KSTEP_DOC, "kstep": {"k": 1, "allowed": [[1, 1.0]]}},
         "'kstep.allowed' must be a list of integer tuples"),
    ],
    ids=[
        "matrix-not-a-list", "top-level-list", "missing-field", "dimension-zero",
        "unknown-field", "no-matrices", "string-omega-entry", "kstep-not-an-object",
        "kstep-without-allowed", "kstep-order-bool", "kstep-float-letter",
    ],
)
def test_malformed_document_names_its_fault(runner, tmp_path, doc, message):
    result = invoke(runner, "bounds", str(write_instance(tmp_path, doc)))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_kstep_order_zero_is_validation_error(runner, tmp_path):
    doc = {**KSTEP_DOC, "kstep": {"k": 0, "allowed": [[1]]}}
    result = invoke(runner, "bounds", str(write_instance(tmp_path, doc)))
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "constraint order must be at least 1" in result.stderr


def test_words_budget_guard(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "words", str(path), "--n", "40")
    assert result.exit_code == 4


def test_verify_budget_counts_only_the_lifted_words_formed(runner):
    # 9 recoded states: the lift oracle forms 20,664 lifted products to n 9,
    # but an estimate that counted all 9**n lifted words of each length
    # passed the default budget at n 8
    result = invoke(runner, "verify", str(DATA / "kstep-order2.json"), "--n-max", "9")
    assert result.exit_code == 0
    assert "verdict: PASS" in result.stdout


@pytest.mark.parametrize(
    "command, length", [("bounds", "--n-max"), ("verify", "--n-max"), ("words", "--n")]
)
def test_budget_guard_stops_counting_at_the_budget(runner, command, length):
    # summing the exact word count of all 20000 lengths took about 40 s and
    # then failed to print the sum, a number of more than 4300 digits
    path = DATA / "sparse-chain.json"
    result = invoke(runner, command, str(path), length, "20000")
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "budget" in result.stderr


def test_real_field_with_imaginary_entry_is_validation_error(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[[2, 1]]], [[[3, 0]]]],
        "omega": [[1, 1], [1, 0]],
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 3



@pytest.mark.parametrize(
    "scale, n_max",
    [
        (1e-120, 4),  # products underflow to 0 at n = 3, under the lower bound
        (1e120, 6),   # products overflow to inf at n = 3
    ],
)
def test_bounds_out_of_range_scale_is_validation_error(runner, tmp_path, scale, n_max):
    doc = dict(GOLDEN_MEAN_DOC, matrices=[[[2 * scale]], [[3 * scale]]])
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path), "--n-max", str(n_max))
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "overflow" in result.stderr or "underflow" in result.stderr


# members 1e-170·I and 2e-170·I: the squares of their entries underflow
TINY_DOC = {
    "dimension": 2,
    "field": "real",
    "matrices": [np.diag([1e-170, 1e-170]).tolist(), np.diag([2e-170, 2e-170]).tolist()],
    "omega": [[1, 1], [1, 1]],
}


def test_bounds_frobenius_norm_of_tiny_members(runner, tmp_path):
    path = write_instance(tmp_path, TINY_DOC)
    result = invoke(
        runner, "bounds", str(path), "--n-max", "1", "--norm", "frobenius", "--format", "json",
    )
    assert result.exit_code == 0, result.output
    agg = json.loads(result.output)["aggregates"]
    assert agg["best_lower"] == 2e-170
    assert agg["best_upper"] == pytest.approx(math.sqrt(8) * 1e-170, rel=1e-11)


def test_verify_frobenius_norm_of_tiny_members(runner, tmp_path):
    path = write_instance(tmp_path, TINY_DOC)
    result = invoke(
        runner, "verify", str(path), "--n-max", "1", "--norm", "frobenius", "--format", "json",
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["passed"] is True
    (check,) = report["lift_equalities"]
    assert check["spectral_lifted"] == check["spectral_periodic"] == 2e-170
    assert check["norm_lifted"] == check["norm_constrained"]
    assert check["norm_lifted"] == pytest.approx(math.sqrt(8) * 1e-170, rel=1e-11)


# ------------------------------------------------------------- round trip


def test_parse_serialize_round_trip(tmp_path):
    from markovjsr.instancefile import instance_document, render_document

    complex_doc = {
        "dimension": 2,
        "field": "complex",
        "matrices": [
            [[[1, 0.5], [0, -1]], [[0.25, 0], [2, 2]]],
        ],
        "omega": [[1]],
    }
    inst = parse_instance(json.dumps(complex_doc))
    doc = instance_document(inst.matrices, omega=inst.omega)
    again = parse_instance(render_document(doc))
    assert again.matrices.field_tag == "complex"
    assert np.array_equal(again.matrices.members[0], inst.matrices.members[0])
    assert np.array_equal(again.omega.entries, inst.omega.entries)
    assert again.digest == inst.digest


def test_flat_row_major_matrices_parse(tmp_path):
    doc = {
        "dimension": 2,
        "field": "real",
        "matrices": [[1, 2, 3, 4]],
        "omega": [[1]],
    }
    inst = parse_instance(json.dumps(doc))
    assert np.array_equal(inst.matrices.members[0], np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_unknown_top_level_keys_are_ignored():
    doc = dict(GOLDEN_MEAN_DOC)
    doc["comment"] = "extra metadata"
    inst = parse_instance(json.dumps(doc))
    assert inst.omega is not None


def test_randomized_document_round_trips():
    from markovjsr import MatrixSet, TransitionMatrix
    from markovjsr.instancefile import instance_document, render_document

    rng = np.random.default_rng(70707)
    for _ in range(25):
        size = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        field = "complex" if rng.random() < 0.5 else "real"
        members = [rng.uniform(-1, 1, (dim, dim)) for _ in range(size)]
        if field == "complex":
            members = [m + 1j * rng.uniform(-1, 1, (dim, dim)) for m in members]
        mats = MatrixSet.from_members(members, field_tag=field)
        om = TransitionMatrix.from_rows(rng.integers(0, 2, (size, size)))
        doc = instance_document(mats, omega=om)
        inst = parse_instance(render_document(doc))
        assert inst.matrices.field_tag == field
        for got, want in zip(inst.matrices.members, mats.members):
            # emission rounds to 12 significant digits
            assert np.allclose(got, want, rtol=1e-11, atol=1e-14)
        assert np.array_equal(inst.omega.entries, om.entries)
        # serialization of the parsed instance is a fixed point
        again = parse_instance(render_document(instance_document(inst.matrices, omega=inst.omega)))
        assert again.digest == inst.digest


HUGE_INT = "1" + "0" * 400  # beyond the float range, as 1e400 is


@pytest.mark.parametrize(
    "entry",
    [
        "NaN",
        "1e400",
        pytest.param(HUGE_INT, id="400-digit-int"),
        pytest.param(f"[{HUGE_INT}, 0]", id="400-digit-pair"),
    ],
)
def test_nan_entry_is_validation_error(runner, tmp_path, entry):
    path = tmp_path / "nan.json"
    path.write_text(
        f'{{"dimension": 1, "field": "real", "matrices": [[[{entry}]], [[3]]], '
        '"omega": [[1, 1], [1, 0]]}',
        encoding="utf-8",
    )
    result = invoke(runner, "bounds", str(path))
    assert result.exit_code == 3
    assert "member 1 entry (1,1) is not finite" in (result.stderr or result.output)


def test_kstep_document_round_trip():
    from markovjsr.instancefile import instance_document, render_document

    inst = parse_instance(json.dumps(ORDER2_DOC))
    doc = instance_document(inst.matrices, kstep=inst.kstep)
    again = parse_instance(render_document(doc))
    assert again.kstep is not None
    assert again.kstep.k == 2
    assert again.kstep.allowed == inst.kstep.allowed
    assert again.digest == inst.digest


# ------------------------------------------------------------------- lift


def test_lift_emits_reference_block_layout(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[1]], [[2]], [[3]], [[4]]],
        "omega": FOUR_LETTER_ROWS,
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "lift", str(path), "--format", "json")
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["dimension"] == 4
    assert out["omega"] == [[1] * 4] * 4
    member1 = np.array(out["matrices"][0])
    want1 = np.zeros((4, 4))
    want1[0, 0] = want1[2, 0] = 1.0  # block layout of the first factor
    assert np.array_equal(member1, want1)
    member2 = np.array(out["matrices"][1])
    want2 = np.zeros((4, 4))
    want2[2, 1] = want2[3, 1] = 2.0
    assert np.array_equal(member2, want2)
    assert out["lift_factors"][0][0][0] == 1


def test_lift_round_trip_reproduces_bounds(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    lifted = invoke(runner, "lift", str(path), "--format", "json")
    lift_path = tmp_path / "lifted.json"
    lift_path.write_text(lifted.output, encoding="utf-8")

    direct = json.loads(invoke(runner, "bounds", str(path), "--n-max", "5", "--format", "json").output)
    via_lift = json.loads(invoke(runner, "bounds", str(lift_path), "--n-max", "5", "--format", "json").output)
    direct_uppers = {b["n"]: b["value"] for b in direct["bounds"] if b["kind"] == "norm"}
    lift_uppers = {b["n"]: b["value"] for b in via_lift["bounds"] if b["kind"] == "norm"}
    for n in direct_uppers:
        assert lift_uppers[n] == pytest.approx(direct_uppers[n], rel=1e-9, abs=1e-9)
    direct_lowers = {b["n"]: b["value"] for b in direct["bounds"] if b["kind"] == "spectral"}
    lift_lowers = {b["n"]: b["value"] for b in via_lift["bounds"] if b["kind"] == "spectral"}
    for n in direct_lowers:
        assert lift_lowers[n] == pytest.approx(direct_lowers[n], rel=1e-9, abs=1e-9)


def test_lift_round_trip_with_matrix_blocks(runner, tmp_path):
    rng = np.random.default_rng(88)
    doc = {
        "dimension": 2,
        "field": "real",
        "matrices": [
            [[round(float(v), 6) for v in row] for row in rng.uniform(-1, 1, (2, 2))]
            for _ in range(3)
        ],
        "omega": [[1, 1, 0], [0, 1, 1], [1, 0, 0]],
    }
    path = write_instance(tmp_path, doc)
    lifted = invoke(runner, "lift", str(path), "--format", "json")
    lift_path = tmp_path / "lifted2.json"
    lift_path.write_text(lifted.output, encoding="utf-8")
    direct = json.loads(invoke(runner, "bounds", str(path), "--n-max", "4", "--format", "json").output)
    via_lift = json.loads(invoke(runner, "bounds", str(lift_path), "--n-max", "4", "--format", "json").output)
    for kind in ("norm", "spectral"):
        d = {b["n"]: b["value"] for b in direct["bounds"] if b["kind"] == kind}
        l = {b["n"]: b["value"] for b in via_lift["bounds"] if b["kind"] == kind}
        for n in d:
            assert l[n] == pytest.approx(d[n], rel=1e-9, abs=1e-9)


def test_bounds_complex_instance(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "complex",
        "matrices": [[[[0, 2]]], [[[3, 0]]]],  # entries 2i and 3
        "omega": [[1, 1], [1, 0]],
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "bounds", str(path), "--n-max", "6", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    # moduli are again {2, 3}, so the bounds close at sqrt(6)
    assert report["aggregates"]["best_lower"] == pytest.approx(SQRT6, abs=1e-9)
    assert report["aggregates"]["best_upper"] == pytest.approx(SQRT6, abs=1e-9)


def test_lift_single_letter_identity(runner, tmp_path):
    doc = {"dimension": 1, "field": "real", "matrices": [[[5]]], "omega": [[1]]}
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "lift", str(path), "--format", "json")
    out = json.loads(result.output)
    assert out["matrices"] == [[[5.0]]]
    assert out["omega"] == [[1]]


def _text_head(command, doc):
    return [
        f"markovjsr {command} v{__version__}",
        f"instance: {parse_instance(json.dumps(doc)).digest}",
    ]


def test_lift_text_output_golden_mean(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "lift", str(path), "--format", "text")
    assert result.exit_code == 0
    assert result.output.splitlines() == _text_head("lift", GOLDEN_MEAN_DOC) + [
        "blocks=2 block_dim=1 lifted_dimension=2",
        "factor 1:",
        "  1 0",
        "  1 0",
        "factor 2:",
        "  0 1",
        "  0 0",
        "lifted member 1:",
        "  2 0",
        "  2 0",
        "lifted member 2:",
        "  0 3",
        "  0 0",
    ]


def test_lift_text_output_complex_instance(runner, tmp_path):
    path = write_instance(tmp_path, COMPLEX_DOC)
    result = invoke(runner, "lift", str(path), "--format", "text")
    assert result.exit_code == 0
    assert result.output.splitlines() == _text_head("lift", COMPLEX_DOC) + [
        "blocks=2 block_dim=2 lifted_dimension=4",
        "factor 1:",
        "  1 0",
        "  1 0",
        "factor 2:",
        "  0 1",
        "  0 0",
        "lifted member 1:",
        "  [0,2] [1,0] [0,0] [0,0]",
        "  [0,0] [0.5,-1] [0,0] [0,0]",
        "  [0,2] [1,0] [0,0] [0,0]",
        "  [0,0] [0.5,-1] [0,0] [0,0]",
        "lifted member 2:",
        "  [0,0] [0,0] [3,0] [0,-0.25]",
        "  [0,0] [0,0] [0,0] [0,0]",
        "  [0,0] [0,0] [0,0] [0,0]",
        "  [0,0] [0,0] [0,0] [0,0]",
    ]


def test_lift_requires_explicit_omega(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "lift", str(path))
    assert result.exit_code == 3


# ----------------------------------------------------------------- verify


def test_verify_reference_instance_passes(runner, tmp_path):
    rng = np.random.default_rng(2026)
    doc = {
        "dimension": 2,
        "field": "real",
        "matrices": [
            [[round(float(v), 6) for v in row] for row in rng.uniform(-1, 1, (2, 2))]
            for _ in range(4)
        ],
        "omega": FOUR_LETTER_ROWS,
    }
    path = write_instance(tmp_path, doc)
    result = invoke(runner, "verify", str(path), "--n-max", "4", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["passed"] is True
    assert all(r["ok"] for r in report["lift_equalities"])
    assert report["factor_structure"]["representation_ok"] is True


def test_verify_detects_corrupted_claimed_lift(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    lifted = invoke(runner, "lift", str(path), "--format", "json")
    doc = json.loads(lifted.output)
    doc["matrices"][0][0][0] = 0.0  # zero out one block
    bad_path = tmp_path / "claimed.json"
    bad_path.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(
        runner, "verify", str(path), "--n-max", "3", "--claimed-lift", str(bad_path)
    )
    assert result.exit_code == 1
    assert "claimed lift matches: NO" in result.output


def test_verify_accepts_genuine_claimed_lift(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    lifted = invoke(runner, "lift", str(path), "--format", "json")
    lift_path = tmp_path / "claimed.json"
    lift_path.write_text(lifted.output, encoding="utf-8")
    result = invoke(
        runner, "verify", str(path), "--n-max", "3", "--claimed-lift", str(lift_path)
    )
    assert result.exit_code == 0



@pytest.mark.parametrize(
    "rule",
    [
        {"omega": np.eye(3, dtype=int).tolist()},
        {"kstep": {"k": 1, "allowed": [[1, 1], [1, 2], [2, 1], [3, 3]]}},
    ],
    ids=["identity-omega", "kstep"],
)
def test_verify_rejects_claimed_lift_without_complete_omega(runner, tmp_path, rule):
    # the matrices are the genuine lift, but under another transition rule
    claimed = json.loads((DATA / "sparse-chain.lift.json").read_text(encoding="utf-8"))
    del claimed["omega"]
    claimed.update(rule)
    claimed_path = write_instance(tmp_path, claimed, name="claimed.json")
    result = invoke(
        runner, "verify", str(DATA / "sparse-chain.json"), "--n-max", "3",
        "--claimed-lift", str(claimed_path),
    )
    assert "claimed lift matches: NO" in result.output
    assert "verdict: FAIL" in result.output
    assert result.exit_code == 1


def test_verify_rejects_claimed_lift_of_the_wrong_size(runner, tmp_path):
    # complete transitions, but 2 scalar members instead of 3 of dimension 12
    claimed = {**GOLDEN_MEAN_DOC, "omega": [[1, 1], [1, 1]]}
    claimed_path = write_instance(tmp_path, claimed, name="claimed.json")
    result = invoke(
        runner, "verify", str(DATA / "sparse-chain.json"), "--n-max", "3",
        "--claimed-lift", str(claimed_path),
    )
    assert "claimed lift matches: NO" in result.output
    assert result.exit_code == 1


def test_verify_claimed_lift_needs_an_explicit_omega(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(
        runner, "verify", str(path), "--n-max", "3",
        "--claimed-lift", str(DATA / "sparse-chain.lift.json"),
    )
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "--claimed-lift needs an instance with an explicit transition matrix" in result.stderr


@pytest.mark.parametrize(
    "doc, code", [(GOLDEN_MEAN_DOC, 2), (ORDER2_DOC, 3)], ids=["missing-claimed-file", "kstep"]
)
def test_verify_checks_the_claimed_lift_before_any_sweep(runner, tmp_path, monkeypatch, doc, code):
    calls = count_sweeps(monkeypatch)
    result = invoke(
        runner, "verify", str(write_instance(tmp_path, doc)), "--n-max", "3",
        "--claimed-lift", str(tmp_path / "missing.json"),
    )
    assert result.exit_code == code
    assert calls == []


def test_verify_accepts_lift_output_of_non_integer_instance(runner, tmp_path):
    # `lift` prints 12 significant digits, which verify must accept as exact
    path = write_instance(tmp_path, NON_INTEGER_DOC)
    lifted = invoke(runner, "lift", str(path), "--format", "json")
    lift_path = tmp_path / "claimed.json"
    lift_path.write_text(lifted.output, encoding="utf-8")
    result = invoke(
        runner, "verify", str(path), "--n-max", "3", "--claimed-lift", str(lift_path)
    )
    assert "claimed lift matches: yes" in result.output
    assert result.exit_code == 0


def test_verify_rejects_lift_entry_moved_at_twelfth_digit(runner, tmp_path):
    path = write_instance(tmp_path, NON_INTEGER_DOC)
    claimed = json.loads(invoke(runner, "lift", str(path), "--format", "json").output)
    entry = claimed["matrices"][0][0][0]
    exponent = math.floor(math.log10(abs(entry)))
    claimed["matrices"][0][0][0] = float(f"{entry + 10.0 ** (exponent - 11):.12g}")
    assert claimed["matrices"][0][0][0] != entry
    lift_path = tmp_path / "claimed.json"
    lift_path.write_text(json.dumps(claimed), encoding="utf-8")
    result = invoke(
        runner, "verify", str(path), "--n-max", "3", "--claimed-lift", str(lift_path)
    )
    assert "claimed lift matches: NO" in result.output
    assert result.exit_code == 1


# ------------------------------------------------------------------ words


def test_words_golden_mean(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "words", str(path), "--n", "2", "--class", "markov")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[:3] == ["1 1", "1 2", "2 1"]
    assert "count: 3 (transfer-matrix: 3, ok)" in lines[3]


def test_words_reference_periodic_includes_known_word(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[1]], [[1]], [[1]], [[1]]],
        "omega": FOUR_LETTER_ROWS,
    }
    path = write_instance(tmp_path, doc)
    result = invoke(
        runner, "words", str(path), "--n", "3", "--class", "periodic", "--format", "json"
    )
    report = json.loads(result.output)
    assert [1, 3, 4] in report["words"]
    assert report["counts_agree"] is True


def test_words_single_letters(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "words", str(path), "--n", "1", "--class", "chain", "--format", "json")
    report = json.loads(result.output)
    assert report["words"] == [[1], [2]]


def test_words_on_kstep_instance_lists_recoded_states(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "words", str(path), "--n", "1", "--class", "markov", "--format", "json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["recoded_from_kstep"] is True
    assert report["states"] == [[1, 1], [1, 2], [2, 1]]
    assert report["words"] == [[1], [2], [3]]  # every recoded state has a continuation


def test_bounds_upper_class_flag_changes_table_class(runner, tmp_path):
    doc = {
        "dimension": 1,
        "field": "real",
        "matrices": [[[2]], [[3]]],
        "omega": [[0, 0], [1, 0]],
    }
    path = write_instance(tmp_path, doc)
    report = json.loads(
        invoke(runner, "bounds", str(path), "--n-max", "2", "--class", "chain", "--format", "json").output
    )
    uppers = {b["n"]: b for b in report["bounds"] if b["kind"] == "norm"}
    assert uppers[2]["class"] == "chain"
    assert uppers[2]["value"] == pytest.approx(SQRT6, rel=1e-11)  # word (1,2) counts for the chain class


# ----------------------------------------------------------- kstep-recode


def test_kstep_recode_emits_loadable_instance(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "kstep-recode", str(path), "--format", "json")
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["states"] == [[1, 1], [1, 2], [2, 1]]
    recoded_path = tmp_path / "recoded.json"
    recoded_path.write_text(result.output, encoding="utf-8")
    bounds = json.loads(
        invoke(runner, "bounds", str(recoded_path), "--n-max", "10", "--format", "json").output
    )
    assert bounds["aggregates"]["best_lower"] == pytest.approx(SQRT6, abs=1e-9)


def test_kstep_recode_text_output(runner, tmp_path):
    path = write_instance(tmp_path, ORDER2_DOC)
    result = invoke(runner, "kstep-recode", str(path), "--format", "text")
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        f"markovjsr kstep-recode v{__version__}",
        "states: 3",
        "  1: (1,1)",
        "  2: (1,2)",
        "  3: (2,1)",
        "omega:",
        "  1 0 1",
        "  1 0 1",
        "  0 1 0",
    ]


def test_kstep_recode_requires_kstep_block(runner, tmp_path):
    path = write_instance(tmp_path, GOLDEN_MEAN_DOC)
    result = invoke(runner, "kstep-recode", str(path))
    assert result.exit_code == 3


# ------------------------------------------------------------------- help


@pytest.mark.parametrize(
    "command, first_line",
    [
        (None, "Growth-rate bounds for matrix products under transition constraints."),
        ("bounds", "Sandwich bounds (or per-class tables) for an instance file."),
        ("lift", "Emit the transition lift as a classical (all-transitions) instance."),
        ("verify", "Check the lift equalities and structural facts on an instance."),
        ("words", "Enumerate the length-n words of a class, with a count cross-check."),
        ("kstep-recode", "Recode an order-k instance into an explicit one-step instance file."),
    ],
)
def test_help_prints_the_docstring(runner, command, first_line):
    result = invoke(runner, *([command] if command else []), "--help")
    assert result.exit_code == 0
    assert f"\n  {first_line}\n" in result.output
    if command:
        assert result.output.startswith(f"Usage: main {command} [OPTIONS] INSTANCE\n")
        assert "--format [text|json]" in result.output


# ------------------------------------------------------- console entry point


def run_module(*args) -> subprocess.CompletedProcess:
    """``python -m markovjsr`` in a fresh interpreter, from tests/data."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "markovjsr", *args], cwd=DATA, capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, check=False,
    )


def test_module_run_prints_the_golden_bytes():
    result = run_module("bounds", "dense-spectral.json", "--n-max", "6", "--format", "json")
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == (DATA / "golden" / "dense-bounds.json").read_bytes()


def test_module_run_keeps_the_exit_codes(tmp_path):
    claimed = write_instance(tmp_path, {**GOLDEN_MEAN_DOC, "omega": [[1, 1], [1, 1]]})
    failed = run_module("verify", "sparse-chain.json", "--n-max", "2", "--claimed-lift", str(claimed))
    assert failed.returncode == 1
    assert b"claimed lift matches: NO" in failed.stdout
    unparsed = run_module("bounds", str(tmp_path / "nope.json"))
    assert unparsed.returncode == 2
    assert unparsed.stderr.startswith(b"error: ")
    invalid = run_module("kstep-recode", "sparse-chain.json")
    assert invalid.returncode == 3
    assert invalid.stdout == b""


@pytest.mark.parametrize("args, code", [(["--version"], 0), (["bounds", str(DATA / "nope.json")], 2)])
def test_run_freezes_the_heap_once_after_main(monkeypatch, capsys, args, code):
    monkeypatch.setattr(sys, "argv", ["markovjsr", *args])
    with mock.patch("gc.freeze") as freeze, pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == code
    freeze.assert_called_once_with()
    assert capsys.readouterr().out == ("" if code else f"markovjsr, version {__version__}\n")


def test_console_script_resolves_to_a_callable():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text, re.MULTILINE)
    entries = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts.group(1), re.MULTILINE)
    assert [name for name, _, _ in entries] == ["markovjsr"]
    for _, module, attr in entries:
        assert callable(getattr(importlib.import_module(module), attr))
