"""Span tracing for the benchmark's in-process runs.

`install` wraps every public function of the traced funcobs modules in a
span and rebinds the wrapper in every loaded funcobs module that holds the
original: ``from .lie import observability_set`` copies the name into the
importing module, so patching only ``funcobs.lie`` would miss those calls.
Nothing under ``src/`` changes.

Spans (name, start, end, parent, op) are kept in memory and written out when
the run ends.  Self time is a span's duration minus the time its children
cover; inclusive time of a name counts only spans with no ancestor of the
same name, so recursion is not counted twice.

Run ``python3 perfbench/tracing.py <spans.json>`` to print per-function
counts, inclusive and self time from an exported run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("expr", "system", "lie", "observability", "synthesis", "sim")
ROOT_SPAN = "cli.main"
HOOK_SPAN = "trace.hook"
ORDERS = 6  # lie.nodes_order_0 .. lie.nodes_order_5


class Recorder:
    """Spans of one traced run plus counters read from traced return values."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.max_nodes = [0] * ORDERS
        self._stack: list[int] = []
        self._t0 = time.perf_counter_ns()

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(i)
        return i

    def end(self, i: int):
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def spans(self) -> list[dict]:
        t0 = self._t0
        return [
            {
                "name": n,
                "start": (s - t0) / 1e9,
                "end": (e - t0) / 1e9,
                "parent": p,
                "op": o,
            }
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]

    def export(self, path):
        payload = {
            "spans": self.spans(),
            "counts": dict(self.counts),
            "max_nodes": self.max_nodes,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# counters read from return values


def count_nodes(e) -> int:
    """Number of expression-tree nodes under e (e included)."""
    n = 0
    stack = [e]
    while stack:
        x = stack.pop()
        n += 1
        for f in dataclasses.fields(x):
            val = getattr(x, f.name)
            if isinstance(val, tuple):
                stack.extend(v for v in val if dataclasses.is_dataclass(v))
            elif dataclasses.is_dataclass(val):
                stack.append(val)
    return n


def _on_table(rec: Recorder, bound, out):
    for k, row in enumerate(out.table[:ORDERS]):
        rec.max_nodes[k] = max([rec.max_nodes[k], *(count_nodes(e) for e in row)])


def _on_trace(rec: Recorder, bound, out):
    rec.counts["sim.steps"] += max(int(out.t.size) - 1, 0)


def _on_csv(rec: Recorder, bound, out):
    rec.counts["sim.csv_bytes"] += os.path.getsize(bound.arguments["path"])


def _on_equivalence(rec: Recorder, bound, out):
    rec.counts["expr.equivalence_skipped"] += out.n_skipped


def _on_index(rec: Recorder, bound, out):
    rec.counts["observability.samples_failed"] += out[1][0].n_failed


def _on_rank_check(rec: Recorder, bound, out):
    rec.counts["observability.samples_failed"] += out.base.n_failed


def _on_state_rank(rec: Recorder, bound, out):
    rec.counts["observability.samples_failed"] += out.n_failed


def _on_candidate(rec: Recorder, bound, out):
    checked = out.checks[0].n_checked if out.checks else 0
    rec.counts["observability.samples_failed"] += bound.arguments["n_samples"] - checked


HOOKS = {
    "lie.observability_set": _on_table,
    "sim.simulate_coupled": _on_trace,
    "sim.simulate_linear_observer": _on_trace,
    "sim.simulate_custom_observer": _on_trace,
    "sim.integrate_plant": _on_trace,
    "sim.write_csv": _on_csv,
    "expr.equivalent_numeric": _on_equivalence,
    "observability.observability_index": _on_index,
    "observability.functional_rank_check": _on_rank_check,
    "observability.state_observability_rank": _on_state_rank,
    "observability.functional_index_candidate": _on_candidate,
}


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(i)
        if hook is not None:
            # The hook gets its own span so that its cost (walking returned
            # tables) is not booked as self time of the calling function.
            j = rec.begin(HOOK_SPAN)
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(rec, bound, out)
            finally:
                rec.end(j)
        return out

    return traced


def install(rec: Recorder):
    """Wrap the traced modules' public functions; returns an undo callable."""
    wrapped = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"funcobs.{short}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = (fn, _wrap(rec, f"{short}.{attr}", fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "funcobs" and not modname.startswith("funcobs."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))

    def undo():
        for mod, attr, val in patched:
            setattr(mod, attr, val)

    return undo


# ---------------------------------------------------------------------------
# analysis of recorded spans


def _durations(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus the time covered by direct children (children of one
    span never overlap: the run is single-threaded)."""
    durations = _durations(spans)
    out = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] >= 0:
            out[s["parent"]] -= d
    return out


def outermost(spans: list[dict], names) -> list[int]:
    """Indices of spans named in `names` with no ancestor also in `names`."""
    names = set(names)
    keep = []
    for i, s in enumerate(spans):
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p < 0:
            keep.append(i)
    return keep


def inclusive(spans: list[dict], names) -> float:
    return sum(spans[i]["end"] - spans[i]["start"] for i in outermost(spans, names))


def calls(spans: list[dict], names) -> int:
    names = set(names)
    return sum(1 for s in spans if s["name"] in names)


def summary_rows(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per span name, by self time."""
    selfs = self_times(spans)
    n = Counter()
    own = defaultdict(float)
    for s, st in zip(spans, selfs):
        n[s["name"]] += 1
        own[s["name"]] += st
    rows = [(nm, n[nm], inclusive(spans, (nm,)), own[nm]) for nm in n]
    return sorted(rows, key=lambda r: -r[3])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 perfbench/tracing.py <spans.json>", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spans = json.load(fh)["spans"]
    print(f"{'span':44s} {'calls':>8s} {'incl s':>10s} {'self s':>10s}")
    for name, ncalls, incl, own in summary_rows(spans):
        print(f"{name:44s} {ncalls:8d} {incl:10.4f} {own:10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
