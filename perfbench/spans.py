"""In-memory spans around the benchmark's calls into the library.

A span records name ("layer.call"), start, end, parent span, query id and
phase ("setup" or "passN"). Spans are kept in memory and written out once,
when the run ends. Nothing here runs inside the library: each span wraps a
call the benchmark itself makes into one public function of one module.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

# The public calls the benchmark makes, by layer (one module of the package).
# `limits` and `errors` do no work and are not traced.
LIB_CALLS = {
    "tree": ["parse_newick", "to_newick", "perfect_tree", "iterate", "all_trees", "node"],
    "embedding": ["count_copies", "enumerate_copies", "induced_subtree", "leaf_lca_depth"],
    "triples": ["structure_of", "reconstruct"],
    "coloring": ["Coloring", "find_mono_copy"],
    "arrows": ["check_arrow", "min_arrow_height_scan", "build_reduction_chain",
               "extract_mono_k", "extract_mono_leafcolor"],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, query, phase]
        self._stack: list[int] = []
        self.query: str | None = None
        self.phase = "setup"

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.query, self.phase]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def self_ms(self) -> dict[int, float]:
        """Self time of each span: its duration minus its children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        return {s[0]: 1000.0 * (s[3] - s[2] - child[s[0]]) for s in self.spans}

    def totals_ms(self, phase: str) -> dict[str, float]:
        """Self time per span name within one phase."""
        own = self.self_ms()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[6] == phase:
                out[s[1]] += own[s[0]]
        return out

    def durations_ms(self, phase: str, name: str) -> list[tuple[str | None, float]]:
        """(query id, duration) of every span with this name in one phase."""
        return [(s[5], 1000.0 * (s[3] - s[2])) for s in self.spans
                if s[6] == phase and s[1] == name]

    def write(self, path) -> None:
        own = self.self_ms()
        layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            layers[s[6]][s[1].split(".")[0]] += own[s[0]]
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "query", "phase"],
            "spans": self.spans,
            "layer_self_ms": layers,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def bind(modules: dict, tracer: Tracer | None) -> SimpleNamespace:
    """The library calls of LIB_CALLS, wrapped in spans when a tracer is given,
    and `span(name)` for work the benchmark times itself (CLI processes)."""
    ns = SimpleNamespace(span=tracer.span if tracer is not None else lambda name: nullcontext())
    for layer, names in LIB_CALLS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            if tracer is not None:
                fn = _traced(tracer, f"{layer}.{name}", fn)
            setattr(ns, name, fn)
    return ns


def _traced(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return call
