"""Instance files: the on-disk JSON format consumed and produced by the CLI.

A file is a JSON object with keys ``dimension`` (d), ``field`` ("real" or
"complex"), ``matrices`` (N matrices, each either d rows of d entries or a
flat row-major list of d*d entries; a complex entry is a [re, im] pair),
and exactly one of ``omega`` (N x N 0/1 rows) or ``kstep``
({"k": order, "allowed": list of (k+1)-tuples}).  Unknown top-level keys
are ignored, which lets reports that carry extra metadata round-trip as
instances.

Structural problems (wrong JSON shape, missing keys) raise
InstanceParseError; value problems (non-binary transitions, size
mismatches, non-finite entries) surface as ValidationError from the core
constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from markovjsr.core import MatrixSet, TransitionMatrix, validate_instance
from markovjsr.kstep import KStepConstraint

# CPython's built-in SHA-256; hashlib's would load OpenSSL's libcrypto
try:  # Python 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # Python 3.10 and 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256 as _sha256

__all__ = [
    "InstanceParseError",
    "Instance",
    "parse_instance",
    "load_instance",
    "instance_document",
    "render_document",
    "render_words_document",
    "word_batches",
    "document_digest",
    "sig12",
]


class InstanceParseError(ValueError):
    """The file is not structurally a valid instance document."""


@dataclass(frozen=True, eq=False)
class Instance:
    """A parsed and validated instance file."""

    matrices: MatrixSet
    omega: TransitionMatrix | None
    kstep: KStepConstraint | None
    digest: str


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry(raw) -> complex | None:
    """A number or a [re, im] pair as a complex value, None for anything else.

    An integer too large for a float reads as an infinity of its sign, so
    the family rejects it as not finite, as it rejects 1e400.
    """
    if _is_number(raw):
        raw = [raw, 0.0]
    if not (isinstance(raw, list) and len(raw) == 2 and all(_is_number(v) for v in raw)):
        return None
    return complex(*map(_float, raw))


def _float(x) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return math.inf if x > 0 else -math.inf


def _parse_matrix(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise InstanceParseError(f"{where}: matrix must be a list")
    if len(raw) == dim and all(isinstance(row, list) and len(row) == dim for row in raw):
        entries = [_entry(e) for row in raw for e in row]
        if None not in entries:
            return np.array(entries, dtype=np.complex128).reshape(dim, dim)
    if len(raw) == dim * dim:  # flat row-major
        entries = [_entry(e) for e in raw]
        if None not in entries:
            return np.array(entries, dtype=np.complex128).reshape(dim, dim)
    raise InstanceParseError(
        f"{where}: expected {dim} rows of {dim} entries or a flat "
        f"row-major list of {dim * dim} entries"
    )


def parse_instance(text: str) -> Instance:
    """Parse an instance document from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise InstanceParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise InstanceParseError("top level must be a JSON object")
    for key in ("dimension", "field", "matrices"):
        if key not in data:
            raise InstanceParseError(f"missing required key {key!r}")
    has_omega = "omega" in data and data["omega"] is not None
    has_kstep = "kstep" in data and data["kstep"] is not None
    if has_omega == has_kstep:
        raise InstanceParseError("exactly one of 'omega' and 'kstep' must be present")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InstanceParseError(f"'dimension' must be a positive integer, got {dim!r}")
    field = data["field"]
    if field not in ("real", "complex"):
        raise InstanceParseError(f"'field' must be 'real' or 'complex', got {field!r}")
    raw_matrices = data["matrices"]
    if not isinstance(raw_matrices, list) or not raw_matrices:
        raise InstanceParseError("'matrices' must be a nonempty list")
    parsed = tuple(
        _parse_matrix(m, dim, f"matrix {pos}")
        for pos, m in enumerate(raw_matrices, start=1)
    )
    # core rejects stray imaginary parts when the declared field is real
    matrices = MatrixSet(dim=dim, members=parsed, field_tag=field)

    omega = None
    kstep = None
    if has_omega:
        raw_omega = data["omega"]
        if not isinstance(raw_omega, list) or not all(
            isinstance(row, list) and all(_is_number(v) for v in row)
            for row in raw_omega
        ):
            raise InstanceParseError("'omega' must be a list of rows of numbers")
        if any(len(row) != len(raw_omega) for row in raw_omega):
            raise InstanceParseError("'omega' must be square: every row as long as the row count")
        omega = TransitionMatrix.from_rows(raw_omega)
        validate_instance(matrices, omega)
    else:
        raw_kstep = data["kstep"]
        if not isinstance(raw_kstep, dict):
            raise InstanceParseError("'kstep' must be an object")
        for key in ("k", "allowed"):
            if key not in raw_kstep:
                raise InstanceParseError(f"'kstep' is missing key {key!r}")
        order = raw_kstep["k"]
        if not isinstance(order, int) or isinstance(order, bool):
            raise InstanceParseError(f"'kstep.k' must be an integer, got {order!r}")
        raw_allowed = raw_kstep["allowed"]
        if not isinstance(raw_allowed, list) or not all(
            isinstance(t, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in t)
            for t in raw_allowed
        ):
            raise InstanceParseError("'kstep.allowed' must be a list of integer tuples")
        kstep = KStepConstraint(
            base_alphabet=matrices.size,
            k=order,
            allowed=frozenset(tuple(t) for t in raw_allowed),
        )

    digest = document_digest(
        instance_document(matrices, omega=omega, kstep=kstep, rounded=False)
    )
    return Instance(matrices=matrices, omega=omega, kstep=kstep, digest=digest)


def load_instance(path) -> Instance:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceParseError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance(text)


def sig12(x: float) -> float:
    """Round to 12 significant digits; fixed formatting keeps reports stable."""
    return float(f"{x:.12g}")


def _matrix_out(arr: np.ndarray, field: str, rounded: bool):
    conv = sig12 if rounded else float
    if field == "complex":
        return [[[conv(v.real), conv(v.imag)] for v in row] for row in arr.tolist()]
    return [[conv(v) for v in row] for row in arr.tolist()]


def instance_document(
    matrices: MatrixSet,
    omega: TransitionMatrix | None = None,
    kstep: KStepConstraint | None = None,
    extra: dict | None = None,
    rounded: bool = True,
) -> dict:
    """Instance as a JSON-ready dict; ``extra`` keys are appended verbatim."""
    doc = {
        "dimension": matrices.dim,
        "field": matrices.field_tag,
        "matrices": [_matrix_out(m, matrices.field_tag, rounded) for m in matrices.members],
    }
    if omega is not None:
        doc["omega"] = [[int(v) for v in row] for row in omega.entries]
    if kstep is not None:
        doc["kstep"] = {
            "k": kstep.k,
            "allowed": sorted(list(t) for t in kstep.allowed),
        }
    if extra:
        doc.update(extra)
    return doc


def render_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# words formatted per write: a words report is written as its words are
# listed, so that memory does not grow with their number
_WORD_BATCH = 256


def word_batches(
    words: Iterator[tuple[int, ...]], template: str, sep: str
) -> Iterator[tuple[int, str]]:
    """The words formatted by ``template`` and joined by ``sep``, a batch at
    a time, each with its number of words."""
    while batch := list(islice(words, _WORD_BATCH)):
        yield len(batch), sep.join(map(template.__mod__, batch))


def render_words_document(
    head: dict, words: Iterator[tuple[int, ...]], transfer_count: int
) -> Iterator[str]:
    """``render_document`` of a words report, chunk by chunk, without
    holding its words: the ``head`` fields, the length-``head["n"]`` words
    as ``json.dumps(indent=2)`` lays out a list of lists of integers, then
    ``stream_count``, ``transfer_count`` and ``counts_agree``."""
    yield json.dumps(head, indent=2)[:-2] + ',\n  "words": ['
    row = "    [\n      " + ",\n      ".join(["%d"] * head["n"]) + "\n    ]"
    count = 0
    for size, rows in word_batches(words, row, ",\n"):
        yield (",\n" if count else "\n") + rows
        count += size
    tail = {
        "stream_count": count,
        "transfer_count": transfer_count,
        "counts_agree": count == transfer_count,
    }
    yield ("\n  ]," if count else "],") + json.dumps(tail, indent=2)[1:] + "\n"


def document_digest(doc: dict) -> str:
    """SHA-256 hex digest of ``doc``'s canonical JSON (sorted keys, no spaces).

    The hash is CPython's built-in SHA-256, which gives the same digest as
    ``hashlib.sha256`` without loading OpenSSL: that library would add
    about 3.5 MB to the peak memory of every process that reads an
    instance, for one digest of at most a few tens of kilobytes (numpy
    1.x loads it at import anyway, through ``numpy.random``).
    """
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode("utf-8")).hexdigest()
