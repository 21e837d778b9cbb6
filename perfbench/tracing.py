"""Span tracing from outside the program: wrap public names where callers look them up.

A span is (name, op id, parent span, start, end).  Spans are appended to
compact arrays while a traced pass runs, so a pass with hundreds of thousands
of leaf validations stays small in memory, and are written out when the
benchmark ends.  Nothing under ``src/`` is changed: the wrappers replace
module attributes for the traced pass only and ``Tracer.remove`` puts the
originals back.
"""
from __future__ import annotations

import functools
import json
import statistics
import threading
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, span name[, hook]): every place a caller looks a public
# name up; a hook turns the call's result into exact counts.
# search.py binds is_valid_labeling and labeling at import time,
# constructions.py binds induce, is_valid_labeling and find_isomorphism,
# hypergraph.py binds bk_set and labeling, and core.is_valid_labeling reaches
# induce and isomorphic through core's own globals.
SITES = (
    ("search", "search_spum", "search", "search"),
    ("search", "search_ispum", "search", "search"),
    ("search", "search_sd", "search", "search"),
    ("search", "search_isd", "search", "search"),
    ("search", "is_valid_labeling", "core.is_valid_labeling", "leaf"),
    ("search", "labeling", "core.labeling"),
    ("search", "identify", "families"),
    ("search", "generate", "families"),
    ("search", "known_values", "families"),
    ("core", "is_valid_labeling", "core.is_valid_labeling"),
    ("core", "induce", "core.induce", "induce"),
    ("core", "isomorphic", "core.isomorphic"),
    ("core", "find_isomorphism", "core.find_isomorphism"),
    ("constructions", "induce", "core.induce", "induce"),
    ("constructions", "is_valid_labeling", "core.is_valid_labeling"),
    ("constructions", "find_isomorphism", "core.find_isomorphism"),
    ("constructions", "labeling", "core.labeling"),
    ("constructions", "generate", "families"),
    ("constructions", "sd_general", "constructions.sd_general"),
    ("constructions", "sidon_set", "constructions.bk_set"),
    ("constructions", "bk_set", "constructions.bk_set"),
    ("constructions", "translate", "constructions.combinators"),
    ("constructions", "disjoint_union_scaled", "constructions.combinators"),
    ("constructions", "disjoint_union_translated", "constructions.combinators"),
    ("constructions", "join", "constructions.combinators"),
    ("constructions", "add_isolated", "constructions.combinators"),
    ("constructions", "add_vertex", "constructions.combinators"),
    ("constructions", "modify", "constructions.combinators"),
    ("hypergraph", "bk_set", "constructions.bk_set"),
    ("hypergraph", "labeling", "core.labeling"),
    ("hypergraph", "induce_hyper", "hypergraph.induce_hyper"),
    ("hypergraph", "hyper_general", "hypergraph.hyper_general"),
    ("hypergraph", "search_hyper_sd", "hypergraph.search_hyper_sd", "hyper_search"),
    ("cli", "main", "cli.main"),
    ("cli", "generate", "families"),
    ("cli", "identify", "families"),
    ("cli", "known_values", "families"),
    ("cli", "parse_spec", "families"),
)

# per-layer metrics, in the order BENCHMARK.json lists them
LAYER_SPANS = (
    ("search", ("calls", "busy_s", "self_s")),
    ("core.is_valid_labeling", ("calls", "busy_s", "self_s")),
    ("core.induce", ("calls", "busy_s")),
    ("core.labeling", ("calls", "busy_s")),
    ("core.isomorphic", ("calls", "busy_s")),
    ("core.find_isomorphism", ("calls", "busy_s")),
    ("constructions.sd_general", ("calls", "busy_s", "self_s")),
    ("constructions.bk_set", ("calls", "busy_s")),
    ("constructions.combinators", ("calls", "busy_s", "self_s")),
    ("hypergraph.search_hyper_sd", ("calls", "busy_s")),
    ("hypergraph.induce_hyper", ("calls", "busy_s")),
    ("hypergraph.hyper_general", ("calls", "busy_s", "self_s")),
    ("families", ("busy_s",)),
    ("cli.main", ("calls", "self_s")),
)
COUNTERS = (
    "search.nodes",
    "search.ranges",
    "search.leaves",
    "search.leaves_valid",
    "core.induce.labels",
    "core.induce.big_calls",
    "hypergraph.nodes",
)
CONSTRUCTION_SPANS = ("constructions.sd_general", "constructions.combinators")
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def range_start(window_bound_used: str) -> int:
    """The x a range ascent started from, as the certificate states it."""
    marker = "range ascent from x="
    return int(window_bound_used[window_bound_used.index(marker) + len(marker):])


class Tracer:
    """Records spans for calls made while an op is open."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._installed: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] | None = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear()

    # -- recording -----------------------------------------------------------

    def clear(self) -> None:
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.big_induce_spans: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self.op_id = -1
        self._op_stack = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread of the program: its parent is the span the
                # op's own thread has open (the search that started the pool)
                op_stack = self._op_stack
                parent = op_stack[-1] if op_stack else -1
            with self._lock:
                index = len(self.start)
                self.name.append(name_id)
                self.op.append(self.op_id)
                self.parent.append(parent)
                self.start.append(0.0)
                self.end.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.start[index] = start
                self.end[index] = end
            if after is not None:
                after(index, args, result)
            return result

        return traced

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- hooks that turn call results into exact counts ------------------------

    def _after_search(self, _index, _args, cert) -> None:
        self._count("search.nodes", cert.candidates_examined)
        if cert.value is not None:
            self._count(
                "search.ranges", cert.value - range_start(cert.window_bound_used) + 1
            )

    def _after_leaf(self, _index, _args, valid) -> None:
        self._count("search.leaves", 1)
        self._count("search.leaves_valid", int(bool(valid)))

    def _after_induce(self, index, args, _result) -> None:
        labels = len(args[0].labels)
        self._count("core.induce.labels", labels)
        if labels > self._modules["core"]._BIG_INDUCE_THRESHOLD:
            self._count("core.induce.big_calls", 1)
            with self._lock:
                self.big_induce_spans.append(index)

    def _after_hyper_search(self, _index, _args, cert) -> None:
        self._count("hypergraph.nodes", cert.candidates_examined)

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, *hook in SITES:
            module = self._modules[module_name]
            original = getattr(module, attr)
            after = getattr(self, f"_after_{hook[0]}") if hook else None
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, after))

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, busy time and self time per span name, plus the counters."""
        total = len(self.start)
        children: dict[int, list[int]] = {}
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        verify = 0.0
        construction_ids = {self._name_ids.get(n) for n in CONSTRUCTION_SPANS}
        for i in range(total):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            covered = _covered(
                [(self.start[c], self.end[c]) for c in children.get(i, ())],
                self.start[i],
                self.end[i],
            )
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - covered
            if self.name[i] in construction_ids:
                for c in children.get(i, ()):
                    if self.names[self.name[c]].startswith("core."):
                        verify += self.end[c] - self.start[c]
        out: dict[str, float] = {}
        for name, fields in LAYER_SPANS:
            values = {
                "calls": calls.get(name, 0),
                "busy_s": busy.get(name, 0.0),
                "self_s": self_time.get(name, 0.0),
            }
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        out.update(self.counts)
        out["core.induce.big_busy_s"] = sum(
            (self.end[i] - self.start[i] for i in self.big_induce_spans), 0.0
        )
        out["constructions.verify_s"] = verify
        nodes = self.counts["search.nodes"]
        leaves = self.counts["search.leaves"]
        search_busy = busy.get("search", 0.0)
        out["search.nodes_per_s"] = nodes / search_busy if search_busy else 0.0
        out["search.leaf_yield"] = self.counts["search.leaves_valid"] / leaves if leaves else 0.0
        out["search.leaves_per_node"] = leaves / nodes if nodes else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans: a JSON header plus one binary file per column."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        header = {"names": self.names, "spans": len(self.start), "columns": {}}
        for column, data in columns.items():
            target = path.with_name(f"{path.stem}.{column}.{data.typecode}")
            with open(target, "wb") as handle:
                data.tofile(handle)
            header["columns"][column] = target.name
        path.write_text(json.dumps(header, indent=1) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_lo, cur_hi = intervals[0]
    for a, b in intervals[1:]:
        if a > cur_hi:
            covered += min(cur_hi, hi) - max(cur_lo, lo)
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    covered += min(cur_hi, hi) - max(cur_lo, lo)
    return max(covered, 0.0)


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; exact counts must agree."""
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in COUNTERS or key.endswith(".calls"):
            if len(set(values)) != 1:
                raise ValueError(f"exact count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


def metric_unit(key: str) -> str:
    field = key.rsplit(".", 1)[-1]
    if field in UNITS:
        return UNITS[field]
    if key == "search.nodes_per_s":
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_yield", "_per_node")):
        return "ratio"
    return "count"
