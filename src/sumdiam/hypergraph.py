"""k-uniform sum hypergraphs: induction, bounds, construction, tiny search."""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations

from .constructions import ConstructionError, ConstructionReport, bk_set
from .core import Domain, Labeling, label_range, labeling
from .search import DEFAULT_NODE_BUDGET, BudgetExceededError, SearchCertificate

SEARCH_MAX_N = 5
SEARCH_MAX_RANGE = 16


@dataclass(frozen=True)
class Hypergraph:
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
            if len(set(key)) != self.k:
                raise ValueError(f"edge {e!r} needs exactly {self.k} distinct vertices")
            if not (0 <= key[0] and key[-1] < self.n):
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            normalized.add(key)
        object.__setattr__(self, "edges", frozenset(normalized))

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    def isolated_vertices(self) -> tuple[int, ...]:
        deg = self.degrees()
        return tuple(v for v in range(self.n) if deg[v] == 0)

    def edge_list(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.edges))


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
    data = json.loads(text)
    if not isinstance(data, dict) or not {"n", "k", "edges"} <= set(data):
        raise ValueError('hypergraph JSON must be {"n": ..., "k": ..., "edges": [...]}')
    return hypergraph(
        int(data["n"]), int(data["k"]), [tuple(int(v) for v in e) for e in data["edges"]]
    )


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
    members = set(labels)
    edges = set()
    for combo in combinations(range(len(labels)), k):
        if sum(labels[i] for i in combo) in members:
            edges.add(combo)
    full = Hypergraph(len(labels), k, frozenset(edges))
    deg = full.degrees()
    core_ids = [i for i in range(len(labels)) if deg[i] > 0]
    remap = {old: new for new, old in enumerate(core_ids)}
    core = Hypergraph(
        len(core_ids),
        k,
        frozenset(tuple(remap[v] for v in e) for e in edges),
    )
    isolated = tuple(labels[i] for i in range(len(labels)) if deg[i] == 0)
    return InducedHyperResult(
        hypergraph=full,
        label_of=labels,
        isolated_labels=isolated,
        core_hypergraph=core,
        core_label_of=tuple(labels[i] for i in core_ids),
        isolate_count=len(isolated),
    )


def hyper_sd_lower_bound(h: Hypergraph) -> int:
    """Degree-forced floor n + k(k-1)/2 - 1 on the minimum labeling range."""
    if h.n == 0 or h.isolated_vertices():
        raise ValueError("lower bound needs an isolate-free nonempty hypergraph")
    return h.n + h.k * (h.k - 1) // 2 - 1


def hyper_general(h: Hypergraph) -> ConstructionReport:
    """B_k-based labeling of an arbitrary isolate-free k-uniform hypergraph.

    Vertex v gets k^2*s_v+1 and each edge the label k^2*(sum of its s) + k;
    the two residue classes mod k^2 keep edge labels from inducing anything
    beyond the intended k-subsets, so the edge labels are exactly the
    isolates.
    """
    if h.n == 0 or h.isolated_vertices():
        raise ValueError("target must be isolate-free and nonempty")
    k = h.k
    s = bk_set(h.n, k).elements
    vertex_labels = {v: k * k * s[v] + 1 for v in range(h.n)}
    edge_labels = {k * k * sum(s[v] for v in e) + k for e in h.edges}
    labels = sorted(set(vertex_labels.values()) | edge_labels)
    if len(labels) != h.n + len(h.edges):
        raise ConstructionError("label collision in B_k construction")
    lab = labeling(labels, Domain.POSITIVE)
    result = induce_hyper(lab, k)
    expected = {tuple(sorted(vertex_labels[v] for v in e)) for e in h.edges}
    got = {
        tuple(result.label_of[i] for i in e) for e in result.hypergraph.edges
    }
    if got != expected or result.isolate_count != len(h.edges):
        raise ConstructionError("B_k construction failed re-induction check")
    claimed = k**3 * s[-1] + k - (k * k * s[0] + 1)
    achieved = label_range(lab)
    if achieved > claimed:
        raise ConstructionError("B_k construction exceeded its claimed bound")
    return ConstructionReport(lab, h, claimed, achieved, True)


def _isomorphic_hyper(a: Hypergraph, b: Hypergraph) -> bool:
    """Brute-force isomorphism for tiny k-uniform hypergraphs."""
    if a.n != b.n or a.k != b.k or len(a.edges) != len(b.edges):
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    target = b.edges
    for perm in permutations(range(a.n)):
        mapped = frozenset(tuple(sorted(perm[v] for v in e)) for e in a.edges)
        if mapped == target:
            return True
    return False


def _hyper_window_first_hit(
    h: Hypergraph,
    lo: int,
    hi: int,
    *,
    node_cap: int,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """First core-isomorphic candidate containing lo and hi, in lex order."""
    interior = list(range(lo + 1, hi))
    min_size = h.n + 1  # positive labels always isolate the maximum
    state = {"nodes": 0}

    def test(chosen: list[int]) -> bool:
        state["nodes"] += 1
        result = induce_hyper(labeling(chosen, Domain.POSITIVE), h.k)
        return _isomorphic_hyper(result.core_hypergraph, h)

    def visit(idx: int, chosen: list[int]) -> tuple[int, ...] | None | str:
        if state["nodes"] >= node_cap:
            return "abort"
        if len(chosen) + (len(interior) - idx) + 1 < min_size:
            return None
        if idx == len(interior):
            candidate = chosen + [hi]
            if test(candidate):
                return tuple(candidate)
            return None
        chosen.append(interior[idx])
        found = visit(idx + 1, chosen)
        chosen.pop()
        if found is not None:
            return found
        return visit(idx + 1, chosen)

    found = visit(0, [lo])
    if found == "abort":
        return None, state["nodes"], True
    return found, state["nodes"], False


def search_hyper_sd(
    h: Hypergraph,
    *,
    max_range: int = SEARCH_MAX_RANGE,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings inducing h plus free isolates."""
    if h.n == 0 or h.isolated_vertices():
        raise ValueError("search targets must be isolate-free and nonempty")
    if h.n > SEARCH_MAX_N:
        raise ValueError(f"exhaustive hypergraph search is capped at n <= {SEARCH_MAX_N}")
    if max_range > SEARCH_MAX_RANGE:
        raise ValueError(f"max_range is capped at {SEARCH_MAX_RANGE}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    k, n = h.k, h.n
    pad = (k - 2) * (k - 1) // 2
    floor = max(hyper_sd_lower_bound(h), 1)
    bound_text = (
        f"|L| >= {n + 1}; min L in [1, (x-{n}+1-{pad})/{k - 1}]; "
        f"range ascent from x={floor}"
    )
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    examined = 0
    try:
        for x in range(floor, max_range + 1):
            top = (x - n + 1 - pad) // (k - 1)
            lows = list(range(1, top + 1))

            def worker(lo: int, x: int = x):
                # examined changes only between batches; an aborted window
                # reports remaining + 1 nodes, which trips the budget check
                cap = budget - examined + 1
                return _hyper_window_first_hit(h, lo, lo + x, node_cap=cap)

            for start in range(0, len(lows), jobs):
                batch = lows[start : start + jobs]
                if pool is not None and len(batch) > 1:
                    results = list(pool.map(worker, batch))
                else:
                    results = [worker(lo) for lo in batch]
                # serial-order reduction keeps value, witness, and counts
                # identical for every jobs setting
                for hit, nodes, _aborted in results:
                    if examined + nodes > budget:
                        raise BudgetExceededError(
                            f"budget of {budget} candidates exhausted at range {x}",
                            candidates_examined=budget,
                        )
                    examined += nodes
                    if hit is not None:
                        return SearchCertificate(
                            value=x,
                            witness=labeling(hit, Domain.POSITIVE),
                            window_bound_used=bound_text,
                            candidates_examined=examined,
                            exhausted_below=True,
                        )
        return SearchCertificate(
            value=None,
            witness=None,
            window_bound_used=bound_text,
            candidates_examined=examined,
            exhausted_below=True,
        )
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
