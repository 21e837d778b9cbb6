"""Core types and operations for sum-graph labelings.

A labeling is a finite set of distinct integer labels.  Two labels are
adjacent in the induced graph when their sum is again a label; a label is
never adjacent to itself.  In the positive domain all labels are >= 1, in
the integral domain any integers (including 0 and negatives) are allowed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

MAX_LABEL = 2**63 - 1  # labels must fit in a signed 64-bit integer
ISO_CAP_DEFAULT = 24  # generic isomorphism backtracking refuses larger graphs
_BIG_INDUCE_THRESHOLD = 1024  # above this many labels, use bitset convolution


class Domain(Enum):
    """Label domain: positive integers only, or all integers."""

    POSITIVE = "positive"
    INTEGRAL = "integral"


@dataclass(frozen=True)
class Labeling:
    """Sorted distinct labels plus their domain."""

    labels: tuple[int, ...]
    domain: Domain

    def __post_init__(self) -> None:
        labels = tuple(sorted(self.labels))
        if not labels:
            raise ValueError("a labeling needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        for v in labels:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"label {v!r} is not an integer")
            if abs(v) > MAX_LABEL:
                raise ValueError(f"label {v} exceeds the 64-bit signed range")
        if self.domain is Domain.POSITIVE and labels[0] < 1:
            raise ValueError("positive-domain labels must be >= 1")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)


def labeling(values, domain: Domain | None = None) -> Labeling:
    """Build a Labeling, inferring the domain when not given."""
    values = tuple(values)
    if domain is None:
        domain = Domain.POSITIVE if all(v >= 1 for v in values) else Domain.INTEGRAL
    return Labeling(values, domain)


def label_range(lab: Labeling) -> int:
    """Range of a labeling: max label minus min label."""
    return lab.labels[-1] - lab.labels[0]


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph on vertices 0..n-1 with normalized edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def isolated_vertices(self) -> tuple[int, ...]:
        deg = self.degrees()
        return tuple(v for v in range(self.n) if deg[v] == 0)

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def graph(n: int, edges) -> SimpleGraph:
    """Build a SimpleGraph from any iterable of (u, v) pairs."""
    return SimpleGraph(n, frozenset(tuple(e) for e in edges))


@dataclass(frozen=True)
class InducedResult:
    """Induced sum graph of a labeling, split into core and isolates."""

    graph: SimpleGraph
    label_of: tuple[int, ...]
    isolated_labels: tuple[int, ...]
    core_graph: SimpleGraph
    core_label_of: tuple[int, ...]
    isolate_count: int


def _induce_pairs_small(labels: tuple[int, ...]) -> list[tuple[int, int]]:
    """All index pairs i<j with labels[i]+labels[j] in the label set."""
    members = set(labels)
    k = len(labels)
    out = []
    for i in range(k):
        a = labels[i]
        for j in range(i + 1, k):
            if a + labels[j] in members:
                out.append((i, j))
    return out


def _induce_pairs_big(labels: tuple[int, ...]) -> list[tuple[int, int]]:
    """Same as _induce_pairs_small via bitset shifts; O(k^2/64) word ops."""
    mn = labels[0]
    index = {v: i for i, v in enumerate(labels)}
    indicator = 0
    for v in labels:
        indicator |= 1 << (v - mn)
    out = []
    for i, a in enumerate(labels):
        # bit q of shifted = membership of (q + mn) + a in the label set
        shifted = indicator >> a if a >= 0 else indicator << (-a)
        hits = indicator & shifted
        hits >>= a - mn + 1  # keep partners b with b > a
        hits <<= a - mn + 1
        while hits:
            low = hits & -hits
            q = low.bit_length() - 1
            out.append((i, index[q + mn]))
            hits ^= low
    return out


def induce(lab: Labeling) -> InducedResult:
    """Induced sum graph: vertex per label, edge when the pair sum is a label."""
    labels = lab.labels
    k = len(labels)
    if k <= _BIG_INDUCE_THRESHOLD:
        pairs = _induce_pairs_small(labels)
    else:
        pairs = _induce_pairs_big(labels)
    full = SimpleGraph(k, frozenset(pairs))
    deg = full.degrees()
    core_ids = [i for i in range(k) if deg[i] > 0]
    remap = {old: new for new, old in enumerate(core_ids)}
    core = SimpleGraph(len(core_ids), frozenset((remap[u], remap[v]) for u, v in pairs))
    isolated = tuple(labels[i] for i in range(k) if deg[i] == 0)
    return InducedResult(
        graph=full,
        label_of=labels,
        isolated_labels=isolated,
        core_graph=core,
        core_label_of=tuple(labels[i] for i in core_ids),
        isolate_count=len(isolated),
    )


# ---------------------------------------------------------------------------
# family structure predicates (string-keyed so other modules can delegate)
# ---------------------------------------------------------------------------


def _is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _matches_path(g: SimpleGraph, n: int) -> bool:
    if g.n != n or len(g.edges) != n - 1:
        return False
    if n == 1:
        return True
    counts = sorted(g.degrees())
    if counts[:2] != [1, 1] or any(d != 2 for d in counts[2:]):
        return False
    return _is_connected(g)


def _matches_cycle(g: SimpleGraph, n: int) -> bool:
    if n < 3 or g.n != n or len(g.edges) != n:
        return False
    if any(d != 2 for d in g.degrees()):
        return False
    return _is_connected(g)


def _matches_complete(g: SimpleGraph, n: int) -> bool:
    return g.n == n and len(g.edges) == n * (n - 1) // 2


def _matches_matching(g: SimpleGraph, n: int) -> bool:
    return g.n == 2 * n and len(g.edges) == n and all(d == 1 for d in g.degrees())


def _matches_star(g: SimpleGraph, n: int) -> bool:
    if n < 1 or g.n != n + 1 or len(g.edges) != n:
        return False
    counts = sorted(g.degrees())
    return counts == [1] * n + [n] if n > 1 else counts == [1, 1]


def _matches_complete_bipartite_balanced(g: SimpleGraph, n: int) -> bool:
    if n < 1 or g.n != 2 * n or len(g.edges) != n * n:
        return False
    if any(d != n for d in g.degrees()):
        return False
    adj = g.adjacency()
    side_b = adj[0]
    side_a = frozenset(range(g.n)) - side_b
    if len(side_a) != n or len(side_b) != n:
        return False
    return all(adj[a] == side_b for a in side_a)


def _matches_empty(g: SimpleGraph, n: int) -> bool:
    return g.n == n and not g.edges


_STRUCTURE_PREDICATES = {
    "path": _matches_path,
    "cycle": _matches_cycle,
    "complete": _matches_complete,
    "matching": _matches_matching,
    "star": _matches_star,
    "complete_bipartite_balanced": _matches_complete_bipartite_balanced,
    "empty": _matches_empty,
}

# canonical identification order; every predicate is isomorphism-invariant,
# so isomorphic graphs always identify identically
_IDENTIFY_ORDER = ("empty", "complete", "cycle", "path", "matching", "star",
                   "complete_bipartite_balanced")


def structure_matches(g: SimpleGraph, kind: str, n: int) -> bool:
    """Does g match the named family structure with parameter n, up to iso?"""
    try:
        predicate = _STRUCTURE_PREDICATES[kind]
    except KeyError:
        raise ValueError(f"unknown family kind {kind!r}") from None
    return predicate(g, n)


def identify_structure(g: SimpleGraph) -> tuple[str, int] | None:
    """Canonical (kind, parameter) for recognized families, else None."""
    for kind in _IDENTIFY_ORDER:
        predicate = _STRUCTURE_PREDICATES[kind]
        if kind == "matching":
            if g.n % 2 == 0 and g.n > 0 and predicate(g, g.n // 2):
                return (kind, g.n // 2)
        elif kind == "star":
            if g.n >= 2 and predicate(g, g.n - 1):
                return (kind, g.n - 1)
        elif kind == "complete_bipartite_balanced":
            if g.n % 2 == 0 and g.n > 0 and predicate(g, g.n // 2):
                return (kind, g.n // 2)
        else:
            if predicate(g, g.n):
                return (kind, g.n)
    return None


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _joint_colors(
    g: SimpleGraph, h: SimpleGraph
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Degree refinement on the disjoint union, so color ids are comparable."""
    adj = list(g.adjacency()) + [
        frozenset(w + g.n for w in s) for s in h.adjacency()
    ]
    colors = list(g.degrees()) + list(h.degrees())
    total = g.n + h.n
    for _ in range(total):
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(total)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    return tuple(colors[: g.n]), tuple(colors[g.n :])


def _bfs_order(g: SimpleGraph) -> list[int]:
    """Breadth-first order, each component started at its lowest (degree, id)."""
    adj = g.adjacency()
    deg = g.degrees()
    seen = [False] * g.n
    order: list[int] = []
    for root in sorted(range(g.n), key=lambda v: (deg[v], v)):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            for w in sorted(adj[order[head]]):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def find_isomorphism(
    g: SimpleGraph, h: SimpleGraph, cap: int = ISO_CAP_DEFAULT
) -> dict[int, int] | None:
    """Vertex map g -> h witnessing isomorphism, or None.

    Recognized families are matched at any size: two members of one family
    pair up along their breadth-first orders, and that map is returned once
    it carries every edge onto an edge. Other graphs go to a backtracking
    search that refuses more than cap vertices.
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degrees()) != sorted(h.degrees()):
        return None
    gid = identify_structure(g)
    hid = identify_structure(h)
    if gid != hid:
        return None
    if gid is not None:
        paired = dict(zip(_bfs_order(g), _bfs_order(h)))
        if all(
            (paired[u], paired[v]) in h.edges or (paired[v], paired[u]) in h.edges
            for u, v in g.edges
        ):
            return paired
    if g.n > cap:
        raise ValueError(f"explicit isomorphism search capped at {cap} vertices")
    gc, hc = _joint_colors(g, h)
    if sorted(gc) != sorted(hc):
        return None
    g_adj = g.adjacency()
    h_adj = h.adjacency()
    by_color: dict[int, list[int]] = {}
    for v in range(h.n):
        by_color.setdefault(hc[v], []).append(v)
    # map most-constrained colors first, ids ascending for determinism
    order = sorted(range(g.n), key=lambda v: (len(by_color.get(gc[v], ())), gc[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for w in by_color.get(gc[u], ()):
            if w in used:
                continue
            ok = True
            for prev, image in mapping.items():
                if (prev in g_adj[u]) != (image in h_adj[w]):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[u]
                used.remove(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


def isomorphic(g: SimpleGraph, h: SimpleGraph, cap: int = ISO_CAP_DEFAULT) -> bool:
    """Is g isomorphic to h? See find_isomorphism for the cap."""
    return find_isomorphism(g, h, cap=cap) is not None


# ---------------------------------------------------------------------------
# validity and bounds
# ---------------------------------------------------------------------------


def induce_if_valid(
    lab: Labeling, g: SimpleGraph, exact_isolates: int | None = None
) -> tuple[int, ...] | None:
    """The label of each vertex of g if lab induces g with the isolate count."""
    if g.n == 0:
        raise ValueError("target graph must have at least one vertex")
    if g.isolated_vertices():
        raise ValueError("target graph must not contain isolated vertices")
    result = induce(lab)
    if exact_isolates is not None and result.isolate_count != exact_isolates:
        return None
    if result.core_graph.n != g.n:
        return None
    mapping = find_isomorphism(g, result.core_graph)
    if mapping is None:
        return None
    return tuple(result.core_label_of[mapping[v]] for v in range(g.n))


def is_valid_labeling(
    lab: Labeling, g: SimpleGraph, exact_isolates: int | None = None
) -> bool:
    """Does lab induce g (as the core) with the required isolate count?"""
    return induce_if_valid(lab, g, exact_isolates) is not None


def sd_lower_bound(g: SimpleGraph) -> int:
    """Degree-based lower bound 2n - (max deg - min deg) - 2 for any domain."""
    if g.n < 2:
        raise ValueError("bound requires at least two vertices")
    if g.isolated_vertices():
        raise ValueError("bound requires a graph without isolated vertices")
    deg = g.degrees()
    return 2 * g.n - (max(deg) - min(deg)) - 2


def isd_lower_bound(g: SimpleGraph) -> int:
    """Integral-domain lower bound 2n - max deg - 3."""
    if g.n < 2:
        raise ValueError("bound requires at least two vertices")
    if g.isolated_vertices():
        raise ValueError("bound requires a graph without isolated vertices")
    return 2 * g.n - max(g.degrees()) - 3


@dataclass(frozen=True)
class OptimalityReport:
    """Structural facts a range-optimal labeling must satisfy."""

    min_label_is_vertex_label: bool
    equality_case_applies: bool
    interval_contained: bool | None


def optimality_witness_check(lab: Labeling, g: SimpleGraph) -> OptimalityReport:
    """Check necessary optimality structure; lab must validly induce g."""
    vertex_label = induce_if_valid(lab, g)
    if vertex_label is None:
        raise ValueError("labeling does not induce the target graph")
    core = set(vertex_label)
    min_is_vertex = lab.labels[0] in core
    equality = label_range(lab) == sd_lower_bound(g)
    interval: bool | None = None
    if equality and lab.domain is Domain.POSITIVE:
        a1 = min(core)
        interval = all(v in core for v in range(a1, 2 * a1 + 1))
    return OptimalityReport(
        min_label_is_vertex_label=min_is_vertex,
        equality_case_applies=equality,
        interval_contained=interval,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def load_json(text: str):
    """json.loads, reporting nesting too deep for the decoder as ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON is nested too deeply") from exc


def parse_labels(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list or a JSON array of integers."""
    text = text.strip()
    if not text:
        raise ValueError("empty label list")
    if text.startswith("["):
        data = load_json(text)
        if not isinstance(data, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in data
        ):
            raise ValueError("JSON labels must be an array of integers")
        return tuple(data)
    return tuple(int(part) for part in text.split(","))


def labels_to_text(labels) -> str:
    """Single-line comma-separated form of a label sequence."""
    return ",".join(str(v) for v in labels)


def graph_to_json(g: SimpleGraph) -> str:
    """Canonical JSON form {"n": ..., "edges": [[u, v], ...]}."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edge_list()]})


def graph_from_json(text: str) -> SimpleGraph:
    """Parse the canonical graph JSON form."""
    data = load_json(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must be {"n": ..., "edges": [...]}')
    return graph(int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]])
