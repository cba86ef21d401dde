"""Run one markovjsr operation with a span around every public function.

usage: python3 tracer.py SUMMARY_JSON -m markovjsr ARGS...
       python3 tracer.py SUMMARY_JSON SCRIPT ARGS...

After importing the package, every function named in the ``__all__`` of
the layer modules is replaced, in each package module that holds a
reference to it, by a wrapper that records a span: name, start, end and
the span that was open when it was called.  No program file is edited.
A generator function gets one span per resumption, so the time a
consumer spends between items is not charged to it.

Spans stay in memory until the operation ends; then the per-name totals,
self times and the derived figures the benchmark reports are written to
SUMMARY_JSON.  The operation's own output and exit code are unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import runpy
import sys
import time
from array import array

# numpy is imported inside the functions below, only after the timed
# import of markovjsr.cli, so that its import time counts in cli.import.
LAYERS = ("instancefile", "words", "linalg", "lift", "radius", "kstep")
# Clock noise allowed when checking that children fit inside their parent.
NESTING_SLACK_S = 1e-9


class Spans:
    """Spans kept as parallel arrays, indexed in the order they opened."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float) -> None:
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _spectral_matrices(spans: Spans, name, bound) -> str:
    spans.count("linalg.spectral_matrices", len(bound.arguments["stack"]))
    return name


def _lift_engine(spans: Spans, name, bound) -> str:
    engine = bound.arguments["engine"]
    if engine == "dense":
        spans.count("radius.lifted_words", bound.arguments["lifted"].blocks ** bound.arguments["n"])
    return f"{name}[{engine}]"


# Functions whose arguments name the work done or the engine used.
ANNOTATE = {
    "linalg.spectral_radii": _spectral_matrices,
    "radius.rho_n_lifted": _lift_engine,
    "radius.rho_hat_n_lifted": _lift_engine,
}


def _wrap(spans: Spans, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = spans.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    spans.close(idx)
                spans.count(name + ".yields")
                yield item
        return traced_generator

    annotate = ANNOTATE.get(name)
    signature = inspect.signature(fn) if annotate else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if annotate is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = annotate(spans, name, bound)
        idx = spans.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(idx)
    return traced


def install(spans: Spans) -> None:
    """Wrap the public functions of each layer wherever they are looked up."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"markovjsr.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = _wrap(spans, f"{layer}.{attr}", fn)
    for modname, module in list(sys.modules.items()):
        if modname != "markovjsr" and not modname.startswith("markovjsr."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


def _minus_outermost(spans: Spans, dur, target: str, excluded) -> float:
    """Total duration of the target spans minus the time covered by their
    outermost descendants whose names satisfy ``excluded``."""
    import numpy as np

    nid = np.frombuffer(spans.name_id, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int64)
    if target not in spans.ids:
        return 0.0
    is_target = nid == spans.ids[target]
    excl_ids = [i for i, name in enumerate(spans.names) if excluded(name)]
    is_excl = np.isin(nid, excl_ids)
    marked = is_target | is_excl
    # nearest proper ancestor that is a target or an excluded span
    anc = parent.copy()
    while True:
        climb = (anc >= 0) & ~marked[np.maximum(anc, 0)]
        if not climb.any():
            break
        anc[climb] = parent[anc[climb]]
    hit = is_excl & (anc >= 0)
    hit[hit] = is_target[anc[hit]]
    covered = dur[hit].sum()
    return float(dur[is_target].sum() - covered)


def summarize(spans: Spans) -> dict:
    import numpy as np

    count = len(spans.start)
    nid = np.frombuffer(spans.name_id, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int64)
    dur = np.frombuffer(spans.end) - np.frombuffer(spans.start)
    child = parent >= 0
    child_sum = np.bincount(parent[child], weights=dur[child], minlength=count)
    self_time = dur - child_sum
    violations = int(np.count_nonzero(child_sum > dur + NESTING_SLACK_S))
    calls = np.bincount(nid, minlength=len(spans.names))
    total = np.bincount(nid, weights=dur, minlength=len(spans.names))
    own = np.bincount(nid, weights=self_time, minlength=len(spans.names))
    names = {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(spans.names)
    }
    derived = {
        "radius.sandwich_self_s": _minus_outermost(
            spans, dur, "radius.sandwich", lambda n: n.startswith("linalg.")),
        "kstep.direct_self_s": _minus_outermost(
            spans, dur, "kstep.radius_equivalence_check",
            lambda n: n == "radius.sandwich" or n.startswith("linalg.")),
    }
    return {
        "spans": count,
        "nesting_violations": violations,
        "names": names,
        "counters": dict(spans.counters),
        "derived": derived,
    }


def main() -> int:
    summary_path, target, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    spans = Spans()
    start = time.perf_counter()
    importlib.import_module("markovjsr.cli")
    spans.add("cli.import", start, time.perf_counter())
    install(spans)
    code = 0
    if target == "-m":
        from markovjsr.cli import main as cli_main

        idx = spans.open("cli.main")
        try:
            cli_main.main(args=rest[1:], prog_name=rest[0])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            spans.close(idx)
    else:
        sys.argv = [target, *rest]
        idx = spans.open("script")
        try:
            runpy.run_path(target, run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            spans.close(idx)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summarize(spans), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
