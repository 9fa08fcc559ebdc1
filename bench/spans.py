"""Spans around the calls into bracketc's layers, recorded from outside.

`Tracer.install` replaces the public functions of the bracketc modules with
wrappers that record a span (name, start, end, parent) and a few counts.
The wrappers are set on the module objects in `sys.modules`, because the
package re-exports `compress` under the name of its own module:
`import bracketc.compress` yields the function, and patching that would miss
the search layer.  Modules that import a function by name (`compress` takes
`closure` and `evaluate`) get the same wrapper.

Spans stay in memory as four flat arrays and are written out at the end.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Spans reported as layers; the benchmark's own spans (bench.*) are not.
LAYERS = (
    "engine.closure", "engine.expand_statement", "engine.match_endings",
    "engine.sample", "compress.compress", "compress.frontier_sweep",
    "compress.induce_slots", "compress.neighbors", "compress.evaluate_program",
    "syntax.program_str", "metrics.evaluate", "syntax.parse_program",
    "corpus.corpus_from_text", "encoders.cfg_to_bc", "encoders.horn_to_bc",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.units: dict[str, str] = {}  # of every metric layer_metrics made
        self.clear()
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own steps (set-up, one operation)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, bc) -> None:
        """Wrap the layers of the bracketc modules held by `bc`."""
        e, c = bc.engine, bc.compress

        def closure_counts(counts, args, result):
            counts["engine.closure.rounds"] += result.rounds_used
            counts["engine.closure.retained"] += (
                len(result.bracket_free) + len(result.residual) - len(args[0]))

        def produced(stem):
            def count(counts, args, result):
                counts[stem + ".produced"] += len(result)
            return count

        closure = self.wrap("engine.closure", e.closure, closure_counts)
        self._patch(e, "closure", closure)
        self._patch(c, "closure", closure)
        self._patch(e, "expand_statement", self.wrap(
            "engine.expand_statement", e.expand_statement,
            produced("engine.expand_statement")))
        match = self.wrap("engine.match_endings", e.match_endings)

        def match_endings(content, pool):
            if not hasattr(pool, "__len__"):
                pool = list(pool)
            self.counts["engine.match_endings.probes"] += len(pool)
            return match(content, pool)

        self._patch(e, "match_endings", match_endings)
        self._patch(e, "sample", self.wrap("engine.sample", e.sample))
        for fn in ("compress", "frontier_sweep", "induce_slots", "evaluate_program"):
            self._patch(c, fn, self.wrap(f"compress.{fn}", getattr(c, fn)))
        self._patch(c, "neighbors", self.wrap(
            "compress.neighbors", c.neighbors, produced("compress.neighbors")))
        evaluate = self.wrap("metrics.evaluate", bc.metrics.evaluate)
        self._patch(bc.metrics, "evaluate", evaluate)
        self._patch(c, "evaluate", evaluate)
        self._patch(bc.syntax.Program, "__str__", self.wrap(
            "syntax.program_str", bc.syntax.Program.__str__))
        self._patch(bc.syntax, "parse_program", self.wrap(
            "syntax.parse_program", bc.syntax.parse_program))
        self._patch(bc.corpus, "corpus_from_text", self.wrap(
            "corpus.corpus_from_text", bc.corpus.corpus_from_text))
        for fn in ("cfg_to_bc", "horn_to_bc"):
            self._patch(bc.encoders, fn, self.wrap(
                f"encoders.{fn}", getattr(bc.encoders, fn)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Calls, inclusive time, self time and counts per traced layer
        since the last `clear`; layers that were not called are left out.
        Times are multiplied by `time_scale`."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls: Counter[int] = Counter()
        total: Counter[int] = Counter()
        own: Counter[int] = Counter()
        for i, nid in enumerate(self.name_of):
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        out: dict[str, float] = {}
        for nid in calls:
            name = self.names[nid]
            if name not in LAYERS:
                continue
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = total[nid] * time_scale
            out[f"{name}.self_s"] = own[nid] * time_scale
            self.units.update({f"{name}.calls": "count", f"{name}.s": "s",
                               f"{name}.self_s": "s"})
        out.update(self.counts)
        self.units.update(dict.fromkeys(self.counts, "count"))
        if out.get("engine.expand_statement.produced"):
            out["engine.retained_per_produced"] = (
                out["engine.closure.retained"] / out["engine.expand_statement.produced"])
            self.units["engine.retained_per_produced"] = "ratio"
        if out.get("compress.neighbors.produced"):
            out["compress.scored_per_neighbor"] = (
                out["compress.evaluate_program.calls"] / out["compress.neighbors.produced"])
            self.units["compress.scored_per_neighbor"] = "ratio"
        return out

    def write(self, path) -> None:
        """All spans since the last `clear`, as gzip-compressed JSON."""
        spans = [[nid, s, e, p] for nid, s, e, p in
                 zip(self.name_of, self.start, self.end, self.parent)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)
