"""Core types and operations for sum-graph labelings.

A labeling is a finite set of distinct integer labels.  Two labels are
adjacent in the induced graph when their sum is again a label; a label is
never adjacent to itself.  In the positive domain all labels are >= 1, in
the integral domain any integers (including 0 and negatives) are allowed.
"""
from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

MAX_LABEL = 2**63 - 1  # labels must fit in a signed 64-bit integer
# the most vertices, edges or labels built from one number given from
# outside, so that no input makes the program allocate without bound
MAX_BUILD_SIZE = 2**20
ISO_CAP_DEFAULT = 24  # generic isomorphism backtracking refuses larger graphs
# picks no induce path; perfbench/tracing.py files inductions of more labels
# than this under core.induce.big_*
_BIG_INDUCE_THRESHOLD = 1024
# induce by bitset when the label span is at most this many times the label
# count, pairwise otherwise: the bitset costs about k * span / 64 word
# operations, the pairwise loop about k**2 / 2 set lookups
_BITSET_SPAN_PER_LABEL = 200


class Domain(Enum):
    """Label domain: positive integers only, or all integers."""

    POSITIVE = "positive"
    INTEGRAL = "integral"


@dataclass(frozen=True)
class Labeling:
    """Sorted distinct labels plus their domain.

    A search kernel's leaf (_labeling_unchecked) holds no label tuple: it
    lists `labels` from its indicator the first time they are read and then
    keeps them, so a leaf that validation rejects on its kept pair count
    never lists them. Every other Labeling holds its labels from the start.
    """

    labels: tuple[int, ...]
    domain: Domain

    def __post_init__(self) -> None:
        labels = tuple(sorted(self.labels))
        if not labels:
            raise ValueError("a labeling needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        for v in labels:
            # the exact-type test passes plain ints without the two isinstance
            # calls; int subclasses other than bool still pass the second test
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError(f"label {v!r} is not an integer")
            if not -MAX_LABEL <= v <= MAX_LABEL:
                raise ValueError(f"label {v} exceeds the 64-bit signed range")
        if self.domain is Domain.POSITIVE and labels[0] < 1:
            raise ValueError("positive-domain labels must be >= 1")
        object.__setattr__(self, "labels", labels)

    def __getattr__(self, name: str):
        # reached only for attributes not in the instance dict; a kernel
        # leaf's labels are the set bits of its indicator, bit i for _low + i
        low = self.__dict__.get("_low")
        if name != "labels" or low is None:
            raise AttributeError(name)
        chosen = []
        rest = self.__dict__["_indicator"]
        while rest:  # peel the low bit: one step per label, ascending
            bit = rest & -rest
            chosen.append(low + bit.bit_length() - 1)
            rest ^= bit
        labels = self.__dict__["labels"] = tuple(chosen)
        return labels

    def __len__(self) -> int:
        return len(self.labels)

    def indicator(self) -> int:
        """Bit v - min label set for each label v; built once, then kept on
        the instance. It is span / 8 bytes, so only the bitset induce path,
        which the span rule keeps dense, asks for it."""
        ind = self.__dict__.get("_indicator")
        if ind is None:
            labels = self.labels
            low = labels[0]
            buf = bytearray(((labels[-1] - low) >> 3) + 1)
            for v in labels:
                o = v - low
                buf[o >> 3] |= 1 << (o & 7)
            ind = int.from_bytes(buf, "little")
            object.__setattr__(self, "_indicator", ind)
        return ind


def labeling(values, domain: Domain | None = None) -> Labeling:
    """Build a Labeling, inferring the domain when not given."""
    values = tuple(values)
    if domain is None:
        domain = Domain.POSITIVE if all(v >= 1 for v in values) else Domain.INTEGRAL
    return Labeling(values, domain)


def _labeling_unchecked(
    low: int, domain: Domain, indicator: int, pair_count: int
) -> Labeling:
    """A Labeling built without __post_init__'s sort and checks, and without
    its labels: they are listed from indicator the first time they are read.

    Only for a caller that holds the labels as an indicator (bit v - low set
    for each label v, bit 0 set), whose labels are within the 64-bit signed
    range and >= 1 when domain is POSITIVE, and the number of label pairs
    whose sum is a label: the search kernel's leaf. Everything else goes
    through labeling() or Labeling(...).

    The kernel counts each pair {a, b} once, when the largest of a, b and
    a + b is included, since the other two are chosen by then; its edge-cap
    prune rests on that same count. _induced_pairs rejects a labeling whose
    kept count differs from the edge count it is asked for before the labels
    are listed, and counts a labeling with a matching count again, so the
    kept count can reject a labeling but never accept one.
    """
    lab = object.__new__(Labeling)
    # one dict update in place of four object.__setattr__ calls: this runs
    # once per search leaf
    lab.__dict__.update(
        domain=domain, _low=low, _indicator=indicator, _counted_pairs=pair_count
    )
    return lab


def label_range(lab: Labeling) -> int:
    """Range of a labeling: max label minus min label."""
    return lab.labels[-1] - lab.labels[0]


class _EdgeSet:
    """What SimpleGraph and Hypergraph share: vertices 0..n-1 and `edges`, a
    frozenset of ascending vertex tuples."""

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex; computed once, then kept on the instance."""
        deg = self.__dict__.get("_degrees")
        if deg is None:
            deg = tuple(_pair_degrees(self.edges, self.n))
            object.__setattr__(self, "_degrees", deg)
        return deg

    def isolated_vertices(self) -> tuple[int, ...]:
        deg = self.degrees()
        return tuple(v for v in range(self.n) if deg[v] == 0)

    def edge_list(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class SimpleGraph(_EdgeSet):
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

    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)


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


def _pairwise_pairs(labels: tuple[int, ...]) -> list[tuple[int, int]]:
    """All index pairs i<j with labels[i]+labels[j] in the label set."""
    members = set(labels)
    top = labels[-1]
    out = []
    for i, a in enumerate(labels):
        if 2 * a + 1 > top:
            break  # a + b > top for every later b
        for j in range(i + 1, bisect_right(labels, top - a)):
            if a + labels[j] in members:
                out.append((i, j))
    return out


def _hit_masks(labels: tuple[int, ...], indicator: int) -> list[int]:
    """Partner mask of each label a up to the last with 2a + 1 <= max.

    Bit q of a's mask is set when b = a + 1 + q and a + b are both labels;
    the indicator ANDed with itself shifted by a marks every such b, and one
    more shift brings b = a + 1 to bit 0.
    """
    low, top = labels[0], labels[-1]
    masks = []
    for a in labels:
        if 2 * a + 1 > top:
            break  # a + b > top for every later b
        sums = indicator >> a if a >= 0 else indicator << -a
        masks.append((indicator & sums) >> (a + 1 - low))
    return masks


def _masked_pairs(labels: tuple[int, ...], masks: list[int]) -> list[tuple[int, int]]:
    """The index pairs the masks of _hit_masks mark."""
    index = {v: i for i, v in enumerate(labels)}
    out = []
    for i, mask in enumerate(masks):
        base = labels[i] + 1
        while mask:  # peel the top bit, so the mask shrinks as it goes
            q = mask.bit_length() - 1
            out.append((i, index[base + q]))
            mask ^= 1 << q
    return out


def _pair_count(
    lab: Labeling,
) -> tuple[int, Callable[[], list[tuple[int, int]]]]:
    """How many index pairs i<j of lab's labels sum to a label, and a
    function that lists them.

    The span rule picks the path. The bitset path counts its masks' bits and
    lists pairs only when asked; the pairwise path lists as it counts.
    """
    labels = lab.labels
    if labels[-1] - labels[0] > _BITSET_SPAN_PER_LABEL * len(labels):
        pairs = _pairwise_pairs(labels)
        return len(pairs), lambda: pairs
    masks = _hit_masks(labels, lab.indicator())
    return sum(map(int.bit_count, masks)), lambda: _masked_pairs(labels, masks)


def _induced_pairs(
    lab: Labeling, edge_count: int | None = None
) -> list[tuple[int, int]] | None:
    """Index pairs i<j of lab's sorted labels whose sum is a label.

    Given edge_count, None unless there are exactly that many pairs: at
    once when lab keeps a different pair count (_labeling_unchecked), and
    otherwise once the pairs are counted; the bitset path counts its masks'
    bits before it lists any pair.
    """
    if edge_count is not None:
        kept = lab.__dict__.get("_counted_pairs")
        if kept is not None and kept != edge_count:
            return None
    count, listed = _pair_count(lab)
    if edge_count is not None and count != edge_count:
        return None
    return listed()


def _induced_subsets(labels: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """Index k-tuples i1 < ... < ik of the sorted labels whose labels sum to a
    label; for k >= 3, as _pair_count serves k = 2.

    A subset summing to a label sums to at most the largest, so none holds a
    label above the largest minus the k - 1 smallest; those are left out.
    The label values are summed, not looked up by index, and only the hits
    are mapped to indices.
    """
    members = set(labels)
    usable = labels[: bisect_right(labels, labels[-1] - sum(labels[: k - 1]))]
    hits = [combo for combo in combinations(usable, k) if sum(combo) in members]
    index = {v: i for i, v in enumerate(labels)}.__getitem__
    return [tuple(map(index, combo)) for combo in hits]


def _pair_degrees(edges, n: int) -> list[int]:
    """Degree of each of n labels under the induced index tuples (any size)."""
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def _core_graph(edges, core_ids: list[int], build=SimpleGraph):
    """The induced index tuples renumbered onto the non-isolated labels
    core_ids, as build(n=..., edges=...): a SimpleGraph unless the caller
    passes another edge-set type."""
    remap = {old: new for new, old in enumerate(core_ids)}.__getitem__
    return build(n=len(core_ids), edges=frozenset(tuple(map(remap, e)) for e in edges))


def _split_induced(labels: tuple[int, ...], edges, build=SimpleGraph):
    """The induced index tuples of the sorted labels, split four ways: the
    full edge set, the isolated labels, the core and the core's labels;
    build makes both edge sets, as for _core_graph."""
    deg = _pair_degrees(edges, len(labels))
    core_ids = [i for i, d in enumerate(deg) if d]
    isolated = tuple(labels[i] for i, d in enumerate(deg) if not d)
    core = _core_graph(edges, core_ids, build)
    full = build(n=len(labels), edges=frozenset(edges))
    return full, isolated, core, tuple(labels[i] for i in core_ids)


def induce(lab: Labeling) -> InducedResult:
    """Induced sum graph: vertex per label, edge when the pair sum is a label."""
    labels = lab.labels
    full, isolated, core, core_labels = _split_induced(labels, _induced_pairs(lab))
    return InducedResult(full, labels, isolated, core, core_labels, len(isolated))


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


# kind -> (predicate, parameter of a member on n vertices), in canonical
# identification order; every predicate is isomorphism-invariant, so
# isomorphic graphs always identify identically. A parameter below 1
# identifies nothing, and the predicate refuses an n no member has
_STRUCTURES = {
    "empty": (_matches_empty, lambda n: n),
    "complete": (_matches_complete, lambda n: n),
    "cycle": (_matches_cycle, lambda n: n),
    "path": (_matches_path, lambda n: n),
    "matching": (_matches_matching, lambda n: n // 2),
    "star": (_matches_star, lambda n: n - 1),
    "complete_bipartite_balanced": (
        _matches_complete_bipartite_balanced, lambda n: n // 2
    ),
}


def structure_matches(g: SimpleGraph, kind: str, n: int) -> bool:
    """Does g match the named family structure with parameter n, up to iso?"""
    try:
        predicate, _ = _STRUCTURES[kind]
    except KeyError:
        raise ValueError(f"unknown family kind {kind!r}") from None
    return predicate(g, n)


def identify_structure(g: SimpleGraph) -> tuple[str, int] | None:
    """Canonical (kind, parameter) for recognized families, else None."""
    for kind, (predicate, parameter) in _STRUCTURES.items():
        p = parameter(g.n)
        if p >= 1 and predicate(g, p):
            return (kind, p)
    return None


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _joint_colors(
    g: SimpleGraph, h: SimpleGraph
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Degree refinement on the disjoint union, so color ids are comparable.

    None as soon as a round leaves g's sorted colors unequal to h's: each
    new color determines its old one, so the counts would still differ when
    refinement ends. The caller has compared the degrees, the first colors.
    """
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
        if sorted(colors[: g.n]) != sorted(colors[g.n :]):
            return None
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
    colors = _joint_colors(g, h)
    if colors is None:
        return None
    gc, hc = colors
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
    """The label of each vertex of g if lab induces g with the isolate count.

    The edge count is compared before any pair is listed, then the core size,
    isolate count and degree sequence on the induced pairs before any graph is
    built; find_isomorphism makes the same checks first, so the result is the
    same as running it directly. A search leaf whose kept pair count differs
    from the edge count is rejected before its labels are read, so they are
    never listed.
    """
    if g.n == 0:
        raise ValueError("target graph must have at least one vertex")
    target_deg = g.degrees()
    if 0 in target_deg:
        raise ValueError("target graph must not contain isolated vertices")
    pairs = _induced_pairs(lab, len(g.edges))
    if pairs is None:
        return None
    labels = lab.labels
    deg = _pair_degrees(pairs, len(labels))
    core_ids = [i for i in range(len(labels)) if deg[i] > 0]
    if len(core_ids) != g.n:
        return None
    if exact_isolates is not None and len(labels) - g.n != exact_isolates:
        return None
    if sorted(deg[i] for i in core_ids) != sorted(target_deg):
        return None
    mapping = find_isomorphism(g, _core_graph(pairs, core_ids))
    if mapping is None:
        return None
    return tuple(labels[core_ids[mapping[v]]] for v in range(g.n))


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


def json_int(value, what: str) -> int:
    """value when it is a JSON integer; a float, string or bool is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def json_vertex_count(value) -> int:
    """A vertex count read from JSON, refused above MAX_BUILD_SIZE before
    anything of that size is built."""
    n = json_int(value, "vertex count")
    if n > MAX_BUILD_SIZE:
        raise ValueError(f"{n} vertices exceed the cap of {MAX_BUILD_SIZE}")
    return n


_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str, what: str = "value") -> int:
    """A decimal integer: an optional minus sign and ASCII digits, with
    surrounding whitespace ignored. int() would also take underscores, a
    plus sign and other scripts' digits; those are refused."""
    item = text.strip()
    if not _INTEGER.fullmatch(item):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(item)


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
    return tuple(parse_int(part, "label") for part in text.split(","))


def labels_to_text(labels) -> str:
    """Single-line comma-separated form of a label sequence."""
    return ",".join(str(v) for v in labels)


def graph_to_json(g: SimpleGraph) -> str:
    """Canonical JSON form {"n": ..., "edges": [[u, v], ...]}."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edge_list()]})


def json_edges(value, k: int) -> list[tuple[int, ...]]:
    """Edges of k vertex ids each, read from JSON for a graph (k = 2) or a
    hypergraph: the list shape and each edge's length before any id."""
    if not isinstance(value, list) or not all(isinstance(e, list) for e in value):
        raise ValueError("edges must be a list of vertex lists")
    for e in value:
        if len(e) != k:
            raise ValueError(f"edge {e!r} needs exactly {k} distinct vertices")
    return [tuple(json_int(v, "vertex id") for v in e) for e in value]


def graph_from_json(text: str) -> SimpleGraph:
    """Parse the canonical graph JSON form."""
    data = load_json(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must be {"n": ..., "edges": [...]}')
    n = json_vertex_count(data["n"])
    return graph(n, json_edges(data["edges"], 2))
