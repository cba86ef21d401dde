"""Command-line interface: bounds, lift, verify, words, kstep-recode.

Exit codes are part of the contract: 0 success, 1 verification failure,
2 instance parse error, 3 validation error, 4 budget exceeded, 141
(128 + SIGPIPE) output cut short because the reader closed stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys

import numpy as np

from markovjsr import __version__
from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
)
from markovjsr.instancefile import (
    Instance,
    InstanceParseError,
    instance_document,
    load_instance,
    render_document,
    render_words_document,
    sig12,
    word_batches,
)
from markovjsr.kstep import RecodedInstance, recode
from markovjsr.lift import lift_set, omega_factor
from markovjsr.linalg import REL_TOL, NormKind
from markovjsr.radius import (
    NORM_TOL,
    SPECTRAL_TOL,
    alternative_class_chain,
    full_verification,
    sandwich,
)
from markovjsr.words import count_words, enumerate_words

DEFAULT_BUDGET = 10_000_000


def _option(*flags: str, **settings) -> tuple:
    """The arguments of one ``ArgumentParser.add_argument`` call."""
    return flags, settings


def _format_option(default: str) -> tuple:
    return _option("--format", dest="fmt", default=default, choices=("text", "json"),
                   help="Output format (default: %(default)s).")


_CLASS_CHOICES = [c.value for c in WordClass]
_NORM_OPTION = _option("--norm", default="rowsum", choices=[k.value for k in NormKind],
                       help="Matrix norm (default: %(default)s).")
_BUDGET_OPTION = _option("--budget", default=DEFAULT_BUDGET, type=int,
                         help="Cap on estimated product operations (default: %(default)s).")

# subcommand name -> (body, options), in the order of the --help listing
_COMMANDS: dict[str, tuple] = {}


class BudgetExceeded(RuntimeError):
    pass


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _command(name: str, *options: tuple):
    """Register ``body(instance, **options)`` as the subcommand ``name``,
    which takes an INSTANCE file and ``options`` (``_option`` tuples).
    ``body`` returns the report's JSON document and two generators of its
    output, JSON text and text lines, so that only the chosen format is
    rendered, as it is written."""

    def register(body):
        _COMMANDS[name] = body, options
        return body

    return register


def _run(body, instance_path: str, fmt: str, **options) -> None:
    """Run ``body`` on the loaded INSTANCE and write the chosen format
    chunk by chunk.  Errors map to the exit codes 2, 3 and 4; a document
    holding ``"passed": false`` exits 1, and a reader that closes stdout
    before the end exits 141."""
    try:
        document, json_chunks, text_lines = body(load_instance(instance_path), **options)
        chunks = json_chunks if fmt == "json" else (line + "\n" for line in text_lines)
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        if document.get("passed") is False:
            sys.exit(1)
    except InstanceParseError as exc:
        _fail(2, str(exc))
    except ValidationError as exc:
        _fail(3, str(exc))
    except BudgetExceeded as exc:
        _fail(4, str(exc))
    except BrokenPipeError:
        # what stdout still buffers goes nowhere, so that its flush at exit
        # raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)


def _resolve(instance: Instance) -> tuple[MatrixSet, TransitionMatrix, RecodedInstance | None]:
    """The one-step pair to operate on, recoding an order-k block if present."""
    if instance.omega is not None:
        return instance.matrices, instance.omega, None
    rec = recode(instance.kstep, instance.matrices)
    return rec.matrices, rec.omega, rec


def _check_budget(omega: TransitionMatrix, n_max: int, budget: int, lifted: bool = False) -> None:
    """Estimate the product operations of lengths 1..n_max as the words formed
    times their length, summed only until the total passes the budget.  The lift
    oracle extends only nonzero (admissible) words: N per shorter chain word."""
    step = omega.entries.astype(object)
    ends = np.ones(omega.size, dtype=object)  # chain words by last letter, exact
    total, shorter = 0, 1  # chain words one letter shorter; at n = 1, the empty word
    for n in range(1, n_max + 1):
        total += (int(ends.sum()) + (omega.size * shorter if lifted else 0)) * n
        if total > budget:
            raise BudgetExceeded(
                f"estimated at least {total} product operations exceed the budget {budget}; "
                "lower --n-max or raise --budget"
            )
        ends, shorter = step @ ends, int(ends.sum())


def _report_head(command: str, instance: Instance, **fields) -> dict:
    return {
        "tool": "markovjsr",
        "version": __version__,
        "command": command,
        "instance_digest": instance.digest,
        **fields,
    }


def _json(document: dict):
    yield render_document(document)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cross_rows(cross_bounds) -> list[dict]:
    return [
        {"n": c.n, "chain_value": sig12(c.chain_value), "cap": sig12(c.cap), "ok": c.ok}
        for c in cross_bounds
    ]


def _about(body) -> str:
    """A docstring without the indentation of its later lines."""
    return "\n".join(line.strip() for line in body.__doc__.strip().splitlines())


def _parser(prog: str) -> argparse.ArgumentParser:
    """The command line.  Option names are never abbreviated, and only
    ``--help`` asks for help, as ``-h`` was never an option."""
    settings = dict(allow_abbrev=False, add_help=False,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    parser = argparse.ArgumentParser(prog=prog, description=_about(main), **settings)
    parser.add_argument("--version", action="version", version=f"markovjsr, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (body, options) in _COMMANDS.items():
        about = _about(body)
        command = commands.add_parser(name, help=about.splitlines()[0], description=about, **settings)
        command.add_argument("--help", action="help", help="Show this message and exit.")
        command.add_argument("instance_path", metavar="INSTANCE", help="Instance file (JSON).")
        for flags, option in options:
            command.add_argument(*flags, **option)
        command.set_defaults(body=body, command=command)
    return parser


def main(args: list[str] | None = None, prog_name: str = "markovjsr") -> None:
    """Growth-rate bounds for matrix products under transition constraints."""
    options, unknown = _parser(prog_name).parse_known_args(args)
    options = vars(options)
    command = options.pop("command")
    if unknown:  # under the usage of the command, not that of the program
        command.error(f"unrecognized arguments: {' '.join(unknown)}")
    _run(**options)


# perfbench/tracer.py runs the command line as main.main(args=..., prog_name=...)
main.main = main


def run() -> None:
    """The console entry point: ``main``, then ``gc.freeze()``, so that the
    interpreter's final collection at exit does not traverse the heap that
    numpy and the package built; the process ends anyway.  The exit code
    and the flushed output are those of ``main``."""
    try:
        main()
    finally:
        gc.freeze()


# ---------------------------------------------------------------- bounds


def _bounds_text(report: dict):
    yield f"markovjsr bounds v{report['version']}"
    yield f"instance: {report['instance_digest']}"
    yield (
        f"norm={report['norm']} n_max={report['n_max']} "
        f"rel_tol={report['rel_tol']} class={report['word_class']}"
    )
    if report.get("recoded_from_kstep"):
        yield f"recoded from order-{report['kstep_order']} constraint ({report['state_count']} states)"
    if "class_chain" in report:
        yield f"{'n':>4}  {'periodic':>16} {'infinite':>16} {'markov':>16} {'chain':>16}"
        for row in report["class_chain"]:
            vals = " ".join(f"{_fmt(v):>16}" for v in row["values"])
            yield f"{row['n']:>4}  {vals}"
        return
    yield f"alpha: {_fmt(report['alpha'])}"
    yield f"{'n':>4}  {'kind':<9} {'class':<9} {'value':>16}  empty"
    for row in report["bounds"]:
        empty = "yes" if row["empty"] else ""
        yield f"{row['n']:>4}  {row['kind']:<9} {row['class']:<9} {_fmt(row['value']):>16}  {empty}"
    agg = report["aggregates"]
    yield f"best_upper: {_fmt(agg['best_upper'])} (n={agg['best_upper_n']})"
    yield f"best_lower: {_fmt(agg['best_lower'])} (n={agg['best_lower_n']})"
    yield f"gap: {_fmt(agg['gap'])}"
    ok = all(c["ok"] for c in report["cross_bounds"])
    yield f"cross_bounds: {'ok' if ok else 'VIOLATED'}"


@_command(
    "bounds",
    _option("--n-max", default=8, type=int, help="Largest word length (default: %(default)s)."),
    _NORM_OPTION,
    _option("--class", dest="word_class", default="markov", choices=_CLASS_CHOICES,
            help="Word class for the upper norm bounds (default: %(default)s)."),
    _option("--class-chain", action="store_true",
            help="Tabulate all four class bounds per length instead."),
    _BUDGET_OPTION,
    _format_option("text"),
)
def cmd_bounds(instance, n_max, norm, word_class, class_chain, budget):
    """Sandwich bounds (or per-class tables) for an instance file."""
    matrices, omega, rec = _resolve(instance)
    _check_budget(omega, n_max, budget)
    norm_kind = NormKind(norm)
    report = _report_head(
        "bounds", instance,
        norm=norm, n_max=n_max, rel_tol=REL_TOL, word_class=word_class,
        recoded_from_kstep=rec is not None,
    )
    if rec is not None:
        report.update(kstep_order=instance.kstep.k, state_count=len(rec.states))
    if class_chain:
        report["class_chain"] = [
            {
                "n": n,
                "values": [sig12(p.value) for p in pts],
                "empty": [p.empty_word_set for p in pts],
            }
            for n, pts in enumerate(alternative_class_chain(matrices, omega, n_max, norm_kind), 1)
        ]
        return report, _json(report), _bounds_text(report)
    result = sandwich(matrices, omega, n_max, norm=norm_kind, upper_class=WordClass(word_class))
    report["alpha"] = sig12(result.alpha)
    report["bounds"] = [
        {
            "n": p.n,
            "class": p.word_class.value,
            "kind": kind,
            "value": sig12(p.value),
            "empty": p.empty_word_set,
        }
        for pair in zip(result.upper, result.lower)
        for kind, p in zip(("norm", "spectral"), pair)
    ]
    report["aggregates"] = {
        "best_lower": sig12(result.best_lower),
        "best_lower_n": result.best_lower_n,
        "best_upper": sig12(result.best_upper),
        "best_upper_n": result.best_upper_n,
        "gap": sig12(result.gap),
    }
    report["cross_bounds"] = _cross_rows(result.cross_bounds)
    return report, _json(report), _bounds_text(report)


# ------------------------------------------------------------------ lift


def _lift_text(report: dict):
    yield f"markovjsr lift v{report['version']}"
    yield f"instance: {report['instance_digest']}"
    yield (
        f"blocks={report['lift_blocks']} block_dim={report['lift_block_dim']} "
        f"lifted_dimension={report['dimension']}"
    )
    for pos, factor in enumerate(report["lift_factors"], start=1):
        yield f"factor {pos}:"
        for row in factor:
            yield "  " + " ".join(str(v) for v in row)
    for pos, member in enumerate(report["matrices"], start=1):
        yield f"lifted member {pos}:"
        for row in member:
            yield "  " + " ".join(
                (_fmt(e) if not isinstance(e, list) else f"[{_fmt(e[0])},{_fmt(e[1])}]")
                for e in row
            )


@_command("lift", _format_option("json"))
def cmd_lift(instance):
    """Emit the transition lift as a classical (all-transitions) instance.

    The output is itself a valid instance file: N block matrices of
    dimension N*d with the complete transition matrix, ready to feed back
    into `bounds`.
    """
    matrices, omega = instance.matrices, instance.omega
    if omega is None:
        raise ValidationError("lift needs an instance with an explicit transition matrix")
    doc = instance_document(
        lift_set(matrices, omega),
        omega=TransitionMatrix.complete(omega.size),
        extra={
            "lift_factors": [omega_factor(omega, i).tolist() for i in range(1, omega.size + 1)],
            "lift_blocks": omega.size,
            "lift_block_dim": matrices.dim,
        },
    )
    return doc, _json(doc), _lift_text({**_report_head("lift", instance), **doc})


# ---------------------------------------------------------------- verify


def _verify_text(report: dict):
    yield f"markovjsr verify v{report['version']}"
    yield f"instance: {report['instance_digest']}"
    yield f"norm={report['norm']} n_max={report['n_max']} norm_tol={report['norm_tol']} spectral_tol={report['spectral_tol']}"
    yield f"{'n':>4}  {'norm_lifted':>16} {'norm_markov':>16} {'spec_lifted':>16} {'spec_periodic':>16}  ok"
    for row in report["lift_equalities"]:
        yield (
            f"{row['n']:>4}  {_fmt(row['norm_lifted']):>16} {_fmt(row['norm_constrained']):>16} "
            f"{_fmt(row['spectral_lifted']):>16} {_fmt(row['spectral_periodic']):>16}  "
            f"{'yes' if row['ok'] else 'NO'}"
        )
    fs = report["factor_structure"]
    yield (
        f"factor structure: {fs['words_checked']} chain words, "
        f"representation={'ok' if fs['representation_ok'] else 'FAIL'} "
        f"nonzero-iff-admissible={'ok' if fs['nonzero_iff_admissible_ok'] else 'FAIL'} "
        f"diagonal-iff-periodic={'ok' if fs['diagonal_iff_periodic_ok'] else 'FAIL'}"
    )
    chain_ok = all(c["ok"] for c in report["class_chain_monotone"])
    yield f"class chain monotone: {'ok' if chain_ok else 'FAIL'}"
    cross_ok = all(c["ok"] for c in report["cross_bounds"])
    yield f"cross bounds: {'ok' if cross_ok else 'FAIL'}"
    if report.get("claimed_lift_matches") is not None:
        yield f"claimed lift matches: {'yes' if report['claimed_lift_matches'] else 'NO'}"
    yield f"verdict: {'PASS' if report['passed'] else 'FAIL'}"


def _claimed_lift_matches(instance: Instance, claimed_path: str) -> bool:
    """The claimed file must carry the complete transition matrix, under
    which a lift is defined, and every claimed entry must equal the exact
    lift entry or its rendering at the 12 significant digits that `lift`
    prints; nothing in between."""
    claimed = load_instance(claimed_path)
    if claimed.omega is None or not claimed.omega.entries.all():
        return False
    lifted = lift_set(instance.matrices, instance.omega)
    if (claimed.matrices.size, claimed.matrices.dim) != (lifted.size, lifted.dim):
        return False
    round12 = np.vectorize(sig12, otypes=[float])
    printed = (round12(want.real) + 1j * round12(want.imag) for want in lifted.members)
    return all(
        np.array_equal(have, np.where(have == want, want, shown))
        for have, want, shown in zip(claimed.matrices.members, lifted.members, printed)
    )


@_command(
    "verify",
    _option("--n-max", default=4, type=int, help="Largest word length (default: %(default)s)."),
    _NORM_OPTION,
    _BUDGET_OPTION,
    _option("--claimed-lift", default=None,
            help="Instance file claimed to be the lift of INSTANCE; compared entrywise."),
    _format_option("text"),
)
def cmd_verify(instance, n_max, norm, budget, claimed_lift):
    """Check the lift equalities and structural facts on an instance."""
    matrices, omega, rec = _resolve(instance)
    _check_budget(omega, n_max, budget, lifted=True)
    claimed_ok = None
    if claimed_lift is not None:  # before the sweeps, so that a bad claim fails fast
        if instance.omega is None:
            raise ValidationError("--claimed-lift needs an instance with an explicit transition matrix")
        claimed_ok = _claimed_lift_matches(instance, claimed_lift)
    outcome = full_verification(matrices, omega, n_max, norm=NormKind(norm))
    report = _report_head(
        "verify", instance,
        norm=norm, n_max=n_max, rel_tol=REL_TOL,
        norm_tol=NORM_TOL, spectral_tol=SPECTRAL_TOL,
        recoded_from_kstep=rec is not None,
    )
    report["lift_equalities"] = [
        {
            "n": t.n,
            "norm_lifted": sig12(t.norm_lifted),
            "norm_constrained": sig12(t.norm_constrained),
            "spectral_lifted": sig12(t.spectral_lifted),
            "spectral_periodic": sig12(t.spectral_periodic),
            "max_abs_diff": sig12(t.max_abs_diff),
            "ok": t.passed,
        }
        for t in outcome.equality_checks
    ]
    report["factor_structure"] = dataclasses.asdict(outcome.factor_audit)
    report["class_chain_monotone"] = [
        {"n": c.n, "values": [sig12(v) for v in c.values], "ok": c.ok}
        for c in outcome.class_chains
    ]
    report["cross_bounds"] = _cross_rows(outcome.cross_bounds)
    report["claimed_lift_matches"] = claimed_ok
    report["passed"] = outcome.passed and claimed_ok is not False
    return report, _json(report), _verify_text(report)


# ----------------------------------------------------------------- words


def _words_text(words, n: int, transfer: int):
    count = 0
    for size, lines in word_batches(words, " ".join(["%d"] * n), "\n"):
        yield lines
        count += size
    agree = "ok" if count == transfer else "MISMATCH"
    yield f"count: {count} (transfer-matrix: {transfer}, {agree})"


@_command(
    "words",
    _option("--n", default=4, type=int, help="Word length (default: %(default)s)."),
    _option("--class", dest="word_class", default="markov", choices=_CLASS_CHOICES,
            help="Word class (default: %(default)s)."),
    _BUDGET_OPTION,
    _format_option("text"),
)
def cmd_words(instance, n, word_class, budget):
    """Enumerate the length-n words of a class, with a count cross-check."""
    _, omega, rec = _resolve(instance)
    _check_budget(omega, n, budget)
    cls = WordClass(word_class)
    transfer = count_words(omega, n, cls)  # checks n before anything is written
    head = _report_head(
        "words", instance,
        n=n, word_class=word_class,
        recoded_from_kstep=rec is not None,
    )
    if rec is not None:
        head["states"] = [list(s) for s in rec.states]
    words = enumerate_words(omega, n, cls)
    return head, render_words_document(head, words, transfer), _words_text(words, n, transfer)


# ---------------------------------------------------------- kstep-recode


def _recode_text(report: dict):
    yield f"markovjsr kstep-recode v{report['version']}"
    yield f"states: {len(report['states'])}"
    for pos, state in enumerate(report["states"], start=1):
        yield f"  {pos}: ({','.join(str(v) for v in state)})"
    yield "omega:"
    for row in report["omega"]:
        yield "  " + " ".join(str(v) for v in row)


@_command("kstep-recode", _format_option("json"))
def cmd_kstep_recode(instance):
    """Recode an order-k instance into an explicit one-step instance file."""
    if instance.kstep is None:
        raise ValidationError("kstep-recode needs an instance with a kstep block")
    rec = recode(instance.kstep, instance.matrices)
    doc = instance_document(
        rec.matrices,
        omega=rec.omega,
        extra={"states": [list(s) for s in rec.states]},
    )
    return doc, _json(doc), _recode_text({**_report_head("kstep-recode", instance), **doc})


if __name__ == "__main__":
    run()
