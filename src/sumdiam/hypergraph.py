"""k-uniform sum hypergraphs: induction, bounds, construction, exact search."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

from .constructions import ConstructionError, ConstructionReport, _report, bk_set
# labeling is not called here; it stays bound because perfbench/tracing.py
# wraps hypergraph.labeling
from .core import (
    Domain,
    Labeling,
    _core_graph,
    _EdgeSet,
    _induced_subsets,
    _pair_degrees,
    _refined_map,
    _split_induced,
    json_edges,
    json_int,
    json_vertex_count,
    labeling,
    load_json,
)
from .search import DEFAULT_NODE_BUDGET, SearchCertificate, ascend, check_limits

SEARCH_MAX_RANGE = 16


@dataclass(frozen=True)
class Hypergraph(_EdgeSet):
    """Simple k-uniform hypergraph on vertices 0..n-1 with normalized edges."""

    n: int
    k: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        if self.k < 3:
            raise ValueError("uniformity must be >= 3; use SimpleGraph for pairs")
        normalized = set()
        for e in self.edges:
            key = tuple(sorted(e))
            if len(key) != self.k or len(set(key)) != self.k:
                raise ValueError(f"edge {e!r} needs exactly {self.k} distinct vertices")
            if not (0 <= key[0] and key[-1] < self.n):
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            normalized.add(key)
        object.__setattr__(self, "edges", frozenset(normalized))


def hypergraph(n: int, k: int, edges) -> Hypergraph:
    """Build a Hypergraph from any iterable of vertex k-tuples."""
    return Hypergraph(n, k, frozenset(tuple(e) for e in edges))


def hyper_to_json(h: Hypergraph) -> str:
    """Canonical JSON form {"n": ..., "k": ..., "edges": [[v, ...], ...]}."""
    return json.dumps(
        {"n": h.n, "k": h.k, "edges": [list(e) for e in h.edge_list()]}
    )


def hyper_from_json(text: str) -> Hypergraph:
    """Parse the canonical hypergraph JSON form."""
    data = load_json(text)
    if not isinstance(data, dict) or not {"n", "k", "edges"} <= set(data):
        raise ValueError('hypergraph JSON must be {"n": ..., "k": ..., "edges": [...]}')
    n = json_vertex_count(data["n"])
    k = json_int(data["k"], "uniformity")
    return hypergraph(n, k, json_edges(data["edges"], k))


@dataclass(frozen=True)
class InducedHyperResult:
    """Induced k-sum hypergraph of a labeling, split into core and isolates."""

    hypergraph: Hypergraph
    label_of: tuple[int, ...]
    isolated_labels: tuple[int, ...]
    core_hypergraph: Hypergraph
    core_label_of: tuple[int, ...]
    isolate_count: int


def induce_hyper(lab: Labeling, k: int) -> InducedHyperResult:
    """Induced k-sum hypergraph: edge when k distinct labels sum to a label."""
    if k < 3:
        raise ValueError("uniformity must be >= 3; use induce for pairs")
    labels = lab.labels
    if len(labels) < k:
        raise ValueError(f"need at least {k} labels for {k}-uniform induction")
    full, isolated, core, core_labels = _split_induced(
        labels, _induced_subsets(labels, k), partial(Hypergraph, k=k)
    )
    return InducedHyperResult(full, labels, isolated, core, core_labels, len(isolated))


def hyper_sd_lower_bound(h: Hypergraph) -> int:
    """Degree-forced floor n + k(k-1)/2 - 1 on the minimum labeling range."""
    h.require_isolate_free()
    return h.n + h.k * (h.k - 1) // 2 - 1


def hyper_general(h: Hypergraph) -> ConstructionReport:
    """B_k-based labeling of an arbitrary isolate-free k-uniform hypergraph.

    Vertex v gets k^2*s_v+1 and each edge the label k^2*(sum of its s) + k;
    the two residue classes mod k^2 keep edge labels from inducing anything
    beyond the intended k-subsets, so the edge labels are exactly the
    isolates.  For k >= 3 bk_set certifies that no coefficient of P^j
    exceeds j!, for each j <= k: its k-subset sums are distinct, so k vertex
    labels sum to an edge label only when they are that edge's.  That is all
    this needs; its k-multiset sums can collide, but no edge repeats a vertex.
    The report comes from constructions._report, the one step that builds
    and proves every construction's report: distinct vertex labels, each
    edge's label sum a label, and as many k-subsets summing to a label as h
    has edges.
    """
    h.require_isolate_free()
    k = h.k
    s = bk_set(h.n, k).elements
    vertex_label = [k * k * s[v] + 1 for v in range(h.n)]
    edge_labels = {k * k * sum(s[v] for v in e) + k for e in h.edges}
    if len(set(vertex_label) | edge_labels) != h.n + len(h.edges):
        raise ConstructionError("label collision in B_k construction")
    claimed = k**3 * s[-1] + k - (k * k * s[0] + 1)
    return _report(h, vertex_label, edge_labels, claimed)


def _incidence(h: Hypergraph) -> tuple[list[set[int]], list[int]]:
    """h's vertex-edge incidence graph as neighbor sets (vertex v is node v,
    the i-th sorted edge node n + i) and its start colors: each vertex its
    degree and each edge node -1, so no map mixes the two kinds."""
    adj: list[set[int]] = [set() for _ in range(h.n)]
    for node, e in enumerate(h.edge_list(), h.n):
        adj.append(set(e))
        for v in e:
            adj[v].add(node)
    return adj, list(h.degrees()) + [-1] * len(h.edges)


def _isomorphic_hyper(a: Hypergraph, b: Hypergraph) -> bool:
    """Are a and b isomorphic? A map of their incidence graphs that keeps
    the start colors and every incidence sends each edge of a onto an edge
    of b, and the edge counts are equal."""
    if a.n != b.n or a.k != b.k or len(a.edges) != len(b.edges):
        return False
    return _refined_map(*_incidence(a), *_incidence(b)) is not None


def _hyper_leaf_matches(
    labels: list[int], h: Hypergraph, target_degrees: list[int]
) -> bool:
    """Does the k-sum hypergraph of labels have a core isomorphic to h?

    labels are ascending and distinct, target_degrees is sorted(h.degrees()).
    The k-subsets summing to a label are listed as induce_hyper lists them
    (core._induced_subsets) and each label's degree counted; the core's
    sorted degree sequence, and with it its size, is compared before the
    core Hypergraph is built for _isomorphic_hyper. The result is that of
    _isomorphic_hyper(induce_hyper(labeling(labels), k).core_hypergraph, h),
    whose first refinement round compares the same degrees.
    """
    edges = _induced_subsets(labels, h.k)
    deg = _pair_degrees(edges, len(labels))
    # the core's sorted degrees; equal lists also mean equal core sizes
    if sorted(filter(None, deg)) != target_degrees:
        return False
    core_ids = [i for i, d in enumerate(deg) if d]
    return _isomorphic_hyper(_core_graph(edges, core_ids, partial(Hypergraph, k=h.k)), h)


def _hyper_window_first_hit(
    h: Hypergraph,
    lo: int,
    hi: int,
    *,
    node_cap: int,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """First core-isomorphic candidate containing lo and hi, in lex order.

    Returns (labels or None, nodes visited, aborted). An include-first loop
    over the interior labels in ascending order emits every label set that
    holds both ends and has at least n + 1 labels (positive labels always
    isolate the maximum), in lexicographic order; each one it tests is a
    node. A node cap is checked before each exclude branch is taken.

    sums[j] packs the j-subsets of the chosen labels by their sum: field s,
    width bits wide, counts those summing to s, and a count of j-subsets of
    the window's labels fits the width. Positive summands are smaller than
    their sum, so field v of sums[k] is final once every label below v is
    decided, and it counts the edges whose sum is v. A candidate whose edge
    count is not len(h.edges) is rejected on that count alone; one with the
    target's edge count lists its k-subsets summing to a label and is
    rejected on core size and sorted degree sequence before any Hypergraph
    is built (_hyper_leaf_matches). No leaf builds a Labeling or calls
    induce_hyper.
    """
    k = h.k
    top = hi - lo
    min_size = h.n + 1
    target_edges = len(h.edges)
    # the whole window: the cap first, then the size rule
    if node_cap < 0:
        return None, 0, True
    if top + 1 < min_size:
        return None, 0, False
    target_degrees = sorted(h.degrees())
    width = max(math.comb(top + 1, j) for j in range(k + 1)).bit_length()
    field = (1 << width) - 1
    hi_shift = hi * width

    chosen = [lo]
    sums = [1, 1 << lo * width] + [0] * (k - 1)
    edges = nodes = 0
    stack: list[tuple[int, list[int], int]] = []
    o = 1  # offset of the value decided next, v = lo + o
    while True:
        if o < top:
            v = lo + o
            shift = v * width
            stack.append((o, sums, edges))
            edges += sums[k] >> shift & field
            sums = [1] + [sums[j] + (sums[j - 1] << shift) for j in range(1, k + 1)]
            chosen.append(v)
            o += 1
            continue
        nodes += 1
        if edges + (sums[k] >> hi_shift & field) == target_edges:
            candidate = chosen + [hi]
            if _hyper_leaf_matches(candidate, h, target_degrees):
                return tuple(candidate), nodes, False
        # back to the deepest include whose exclude branch can still reach
        # min_size labels with hi
        while True:
            if not stack:
                return None, nodes, False
            o, sums, edges = stack.pop()
            chosen.pop()
            if nodes > node_cap:
                return None, nodes, True
            if len(chosen) + top - o >= min_size:
                break
        o += 1


def search_hyper_sd(
    h: Hypergraph,
    *,
    max_range: int = SEARCH_MAX_RANGE,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings inducing h plus free isolates."""
    check_limits(1, budget)
    h.require_isolate_free()
    if max_range > SEARCH_MAX_RANGE:
        raise ValueError(f"max_range is capped at {SEARCH_MAX_RANGE}")
    k, n = h.k, h.n
    pad = (k - 2) * (k - 1) // 2
    floor = max(hyper_sd_lower_bound(h), 1)
    return ascend(
        range(floor, max_range + 1),
        lambda x: range(1, (x - n + 1 - pad) // (k - 1) + 1),
        partial(_hyper_window_first_hit, h),
        jobs=1,
        budget=budget,
        domain=Domain.POSITIVE,
        bound_text=(
            f"|L| >= {n + 1}; min L in [1, (x-{n}+1-{pad})/{k - 1}]; "
            f"range ascent from x={floor}"
        ),
    )
