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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from math import comb

MAX_LABEL = 2**63 - 1  # labels must fit in a signed 64-bit integer
# the most vertices, edges or labels built from one number given from
# outside, so that no input makes the program allocate without bound
MAX_BUILD_SIZE = 2**20
# picks no induce path; perfbench/tracing.py files inductions of more labels
# than this under core.induce.big_*
_BIG_INDUCE_THRESHOLD = 1024
# induce by bitset when the label span is at most this many times the
# summand count (the labels the residue filter keeps, _summands), pairwise
# otherwise: for s summands the bitset costs about s * span / 64 word
# operations, the pairwise loop about s**2 / 2 set lookups
_BITSET_SPAN_PER_LABEL = 200
# the induced-edge counters leave out the labels of residue classes mod k**2
# that cannot hold a summand (_summand_classes) only on label sets with at
# least this many k-subsets. A counter's work grows with that number (pair
# lookups, or mask words under the span rule, or k-subsets), the filter's
# with the label count: about 1.5 us plus 0.06 us a label (Python 3.11.7),
# and on sd_general outputs, whose count then takes the pairwise path over
# the vertex labels, it breaks even near 60 to 75 labels, where C(n, 2) is
# 1,800 to 2,700. The rule reads n >= 92 for pairs, 31 for
# triples and 20 for 4-subsets, so no hypergraph search leaf (17 labels at
# most) runs it
_RESIDUE_MIN_SUBSETS = 4096


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
    prune rests on that same count. is_valid_labeling rejects a labeling
    whose kept count differs from the edge count it is asked for before the
    labels are listed, and the pairs of a labeling with a matching count
    are listed again, so the kept count can reject a labeling but never
    accept one.
    """
    lab = object.__new__(Labeling)
    # the instance dict assigned whole, in place of four object.__setattr__
    # calls or an update of a dict made first: this runs once per search leaf
    object.__setattr__(
        lab,
        "__dict__",
        {"domain": domain, "_low": low, "_indicator": indicator, "_counted_pairs": pair_count},
    )
    return lab


def label_range(lab: Labeling) -> int:
    """Range of a labeling: max label minus min label."""
    return lab.labels[-1] - lab.labels[0]


class _EdgeSet:
    """What SimpleGraph and Hypergraph share: vertices 0..n-1 and `edges`, a
    frozenset of ascending vertex tuples.

    A fact derived from the edges is computed once and kept on the instance
    as an immutable value (_kept). The dataclass compares, hashes and prints
    only its fields, so a kept fact changes none of these.
    """

    def _kept(self, name: str, build):
        """build(self) on the first call for name, then the kept value; build
        reads only the edges, so the kept value is what a new call would build."""
        try:
            return self.__dict__[name]
        except KeyError:
            value = build(self)
            object.__setattr__(self, name, value)
            return value

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex; computed once, then kept on the instance.
        Read on every search leaf, so it looks itself up without _kept."""
        deg = self.__dict__.get("_degrees")
        if deg is None:
            deg = tuple(_pair_degrees(self.edges, self.n))
            object.__setattr__(self, "_degrees", deg)
        return deg

    def isolated_vertices(self) -> tuple[int, ...]:
        deg = self.degrees()
        return tuple(v for v in range(self.n) if deg[v] == 0)

    def require_isolate_free(self) -> None:
        """Refuse a target with no vertex or an isolated vertex, the one rule
        of every invariant, bound, search and construction; a one-vertex
        graph has an isolated vertex."""
        if not self.n or 0 in self.degrees():
            raise ValueError("target must have a vertex and no isolated vertex")

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
        """Neighbor set of each vertex; computed once, then kept."""
        return self._kept("_adjacency", _neighbor_sets)

    def component_facts(self) -> tuple[int, bool]:
        """(component count, bipartite) from one BFS 2-coloring; computed once, then kept."""
        return self._kept("_component_facts", _two_coloring)


def _neighbor_sets(g: SimpleGraph) -> tuple[frozenset[int], ...]:
    # lists, each frozen once: cheaper than growing one set per vertex
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(frozenset, adj))


def _two_coloring(g: SimpleGraph) -> tuple[int, bool]:
    adj = g.adjacency()
    side = [-1] * g.n
    components, bipartite = 0, True
    for root in range(g.n):
        if side[root] < 0:
            components += 1
            side[root] = 0
            queue = [root]
            for u in queue:  # the loop reaches what it appends: breadth first
                other = 1 - side[u]
                for w in adj[u]:
                    if side[w] < 0:
                        side[w] = other
                        queue.append(w)
                    elif side[w] != other:
                        bipartite = False
    return components, bipartite


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


def _summand_classes(labels: Sequence[int], k: int) -> int | None:
    """Bit r set for each residue class r mod k*k that can hold a summand
    of k distinct labels summing to a label, or None when no class is ruled
    out or the filter does not run.

    The class of a sum is the sum of its summands' classes. So a class r
    can hold a summand only when r plus the classes of some k - 1 labels,
    repeats allowed, is the class of a label; allowing repeats makes the
    set of such r a superset, so leaving out the labels of every other class
    drops no hit. Python's % gives residues in [0, k*k) for negative labels
    too.

    The general constructions keep their edge labels in such classes:
    sd_general's 4s + 1 and 4(s_u + s_v) + 2 leave only class 1 (2 + 1 and
    2 + 2 are 3 and 0 mod 4), hyper_general's k^2 s + 1 and k^2(sum s) + k
    only class 1 mod k^2.

    Size rule: the filter runs only on label sets with at least
    _RESIDUE_MIN_SUBSETS k-subsets, and its scan stops, with None, once
    every class is present, since then each class can hold a summand; so
    small sets and sets of labels spread over every class pay at most a
    short scan.
    """
    m = k * k
    if comb(len(labels), k) < _RESIDUE_MIN_SUBSETS:
        return None
    full = (1 << m) - 1
    present = 0
    for v in labels:
        present |= 1 << v % m
        if present == full:
            return None
    # bit s of reach: a class s of a sum of j labels, j = 0 .. k - 1;
    # reach << r, folded at m, adds the class r to each of them
    reach = 1
    for _ in range(k - 1):
        step = 0
        for r in range(m):
            if present >> r & 1:
                step |= reach << r
        reach = (step | step >> m) & full
    # r plus a class in reach is a label's class when reach meets present
    # turned back by r, the bits r .. r + m - 1 of present written twice
    twice = present | present << m
    live = 0
    for r in range(m):
        if present >> r & 1 and reach & twice >> r:
            live |= 1 << r
    return None if live == present else live


def _summands(labels: tuple[int, ...]) -> Sequence[int]:
    """The labels that can be a summand of a pair summing to a label: those
    of a class mod 4 that _summand_classes keeps, under its size rule, or
    all of them when it rules no class out. Each pair count and listing
    makes this list once and hands it to the span rule and to its path."""
    live = _summand_classes(labels, 2)
    if live is None:
        return labels
    keep = [live >> r & 1 for r in range(4)]
    return [v for v in labels if keep[v & 3]]


def _hit_lists(labels: tuple[int, ...], summands: Sequence[int]) -> Iterator[list[int]]:
    """The partner list of each summand a up to the last with 2a + 1 <= max,
    one at a time: the later summands b with a + b a label, ascending."""
    members = set(labels)
    top = labels[-1]
    for i, a in enumerate(summands):
        if 2 * a + 1 > top:
            break  # a + b > top for every later b
        yield [b for b in summands[i + 1 : bisect_right(summands, top - a)] if a + b in members]


def _hit_masks(labels: tuple[int, ...], summands: Sequence[int], indicator: int) -> Iterator[int]:
    """The partner mask of each summand a up to the last with 2a + 1 <= max,
    one at a time, so no more than one mask is held.

    Bit q of a's mask is set when b = a + 1 + q and a + b are both labels;
    the indicator ANDed with itself shifted by a marks every such b, and one
    more shift brings b = a + 1 to bit 0. A label b left out of the summands
    sets no bit: no label is then a + b.
    """
    low, top = labels[0], labels[-1]
    for a in summands:
        if 2 * a + 1 > top:
            break  # a + b > top for every later b
        sums = indicator >> a if a >= 0 else indicator << -a
        yield (indicator & sums) >> (a + 1 - low)


def _listed_pairs(
    labels: tuple[int, ...], summands: Sequence[int], lists: Iterable[list[int]]
) -> Iterator[tuple[int, int]]:
    """Each index pair the partner lists of _hit_lists name."""
    index = {v: i for i, v in enumerate(labels)}
    for a, partners in zip(summands, lists):
        i = index[a]
        for b in partners:
            yield i, index[b]


def _masked_pairs(
    labels: tuple[int, ...], summands: Sequence[int], masks: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """Each index pair the partner masks of _hit_masks mark."""
    index = {v: i for i, v in enumerate(labels)}
    for a, mask in zip(summands, masks):
        i = index[a]
        base = a + 1
        while mask:  # peel the top bit, so the mask shrinks as it goes
            q = mask.bit_length() - 1
            yield i, index[base + q]
            mask ^= 1 << q


def _sparse(labels: tuple[int, ...], summands: Sequence[int]) -> bool:
    """The span rule: the pairwise path for a label span above
    _BITSET_SPAN_PER_LABEL times the summand count, the bitset path
    otherwise."""
    return labels[-1] - labels[0] > _BITSET_SPAN_PER_LABEL * len(summands)


def _pair_count(lab: Labeling) -> int:
    """How many index pairs i<j of lab's labels sum to a label.

    The residue filter runs first (_summands), and the span rule compares
    the span with the number of summands it keeps, not of labels. The
    pairwise path adds up the lengths of the summands' partner lists, the
    bitset path the popcounts of their partner masks, as they stream, and
    no index pair is built. An sd_general output's summands are its vertex
    labels, so its proof counts over them alone; every count is the same
    as without the filter. Memory stays linear in the label count.
    """
    labels = lab.labels
    summands = _summands(labels)
    if _sparse(labels, summands):
        return sum(map(len, _hit_lists(labels, summands)))
    return sum(map(int.bit_count, _hit_masks(labels, summands, lab.indicator())))


def _induced_pairs(lab: Labeling) -> Iterator[tuple[int, int]]:
    """Each index pair i<j of lab's sorted labels whose sum is a label, from
    the path the span rule picks by the summand count, as for _pair_count;
    the partner lists or masks are expanded as they stream, so a caller
    that needs only the first few pairs stops there, and no list or mask is
    kept past its own pairs."""
    labels = lab.labels
    summands = _summands(labels)
    if _sparse(labels, summands):
        return _listed_pairs(labels, summands, _hit_lists(labels, summands))
    return _masked_pairs(labels, summands, _hit_masks(labels, summands, lab.indicator()))


def _induced_subsets(labels: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """Index k-tuples i1 < ... < ik of the sorted labels whose labels sum to a
    label; for k >= 3, as _pair_count serves k = 2.

    A subset summing to a label sums to at most the largest, so none holds a
    label above the largest minus the k - 1 smallest; those are left out,
    and so are the labels of a class mod k*k that cannot hold a summand,
    under the size rule of _summand_classes. A hyper_general output thus
    combines its vertex labels alone: the C(9, 4) = 126 4-subsets of its 9
    vertex labels for K9^(4), of 135 labels. The label values are summed,
    not looked up by index, and only the hits are mapped to indices.
    """
    members = set(labels)
    usable = labels[: bisect_right(labels, labels[-1] - sum(labels[: k - 1]))]
    live = _summand_classes(labels, k)
    if live is not None:
        usable = [v for v in usable if live >> v % (k * k) & 1]
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


def _degree_profile(edges, deg, ids) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Sorted (degree, sorted neighbor degrees) of the vertices ids under the
    pairs edges, given every vertex's degree deg: the first round of color
    refinement from degree colors, so isomorphic graphs have equal profiles
    and unequal profiles rule an isomorphism out."""
    seen: list[list[int]] = [[] for _ in deg]
    for u, v in edges:
        seen[u].append(deg[v])
        seen[v].append(deg[u])
    return tuple(sorted((deg[v], tuple(sorted(seen[v]))) for v in ids))


def _graph_profile(g: SimpleGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return _degree_profile(g.edges, g.degrees(), range(g.n))


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
    full, isolated, core, core_labels = _split_induced(labels, list(_induced_pairs(lab)))
    return InducedResult(full, labels, isolated, core, core_labels, len(isolated))


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _refine(adj, colors: list[int], n: int) -> list[int] | None:
    """Refine the joint coloring of g (nodes below n) and h (the rest) until
    a round adds no color; each round recolors a node by its color and its
    neighbors' sorted colors, with ids in sorted signature order, so they
    compare across the sides. None after the first round that leaves the
    sides with different color counts: each new color determines its old
    one, so the counts would still differ when refinement ends."""
    count = len(set(colors))
    while True:
        signatures = [
            (c, tuple(sorted([colors[w] for w in nbrs]))) for c, nbrs in zip(colors, adj)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        if sorted(colors[:n]) != sorted(colors[n:]):
            return None
        if len(palette) == count:
            return colors
        count = len(palette)


def _refined_map(g_adj, g_colors, h_adj, h_colors) -> dict[int, int] | None:
    """Node map g -> h, two graphs of one size given as neighbor sets, that
    keeps the start colors and carries every edge onto an edge, or None.

    Individualization and refinement, the core of nauty and Traces (McKay
    and Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
    2014), depth first on an explicit stack: a stable joint coloring that
    is not discrete gives the first g-node of g's smallest non-singleton
    cell a fresh color together with each h-node of that cell in ascending
    order, and refines again. A discrete coloring pairs the two nodes of
    each color; refinement has matched the degrees, so the pairing is an
    isomorphism once it carries every edge of g onto an edge of h.
    """
    n = len(g_adj)
    adj = list(g_adj) + [[w + n for w in nbrs] for nbrs in h_adj]
    colors = _refine(adj, list(g_colors) + list(h_colors), n)
    stack = []
    while True:
        if colors is not None:
            cells: dict[int, list[int]] = {}
            for v in range(n):
                cells.setdefault(colors[v], []).append(v)
            cell = min((c for c in cells.values() if len(c) > 1), key=len, default=None)
            if cell is None:
                image = {colors[w]: w - n for w in range(n, 2 * n)}
                paired = {v: image[colors[v]] for v in range(n)}
                if all(paired[w] in h_adj[paired[v]] for v in range(n) for w in g_adj[v]):
                    return paired
            else:
                c = colors[cell[0]]
                stack.append((colors, cell[0], [w for w in range(n, 2 * n) if colors[w] == c]))
        while stack and not stack[-1][2]:
            stack.pop()  # every candidate of this cell is tried
        if not stack:
            return None
        base, u, candidates = stack[-1]
        colors = list(base)
        colors[u] = colors[candidates.pop(0)] = len(base)
        colors = _refine(adj, colors, n)


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


def find_isomorphism(g: SimpleGraph, h: SimpleGraph) -> dict[int, int] | None:
    """Vertex map g -> h witnessing isomorphism, or None, at any size.

    Graphs of different size, sorted degrees or component facts have no
    map. Otherwise the pairing of their breadth-first orders is returned
    once it carries every edge onto an edge, as it does for two members of
    one family; other pairs go to _refined_map, with degrees as start colors.
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degrees()) != sorted(h.degrees()) or g.component_facts() != h.component_facts():
        return None
    paired = dict(zip(_bfs_order(g), _bfs_order(h)))
    if all(
        (paired[u], paired[v]) in h.edges or (paired[v], paired[u]) in h.edges
        for u, v in g.edges
    ):
        return paired
    return _refined_map(g.adjacency(), g.degrees(), h.adjacency(), h.degrees())


def isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Is g isomorphic to h? See find_isomorphism."""
    return find_isomorphism(g, h) is not None


# ---------------------------------------------------------------------------
# validity and bounds
# ---------------------------------------------------------------------------


def induce_if_valid(
    lab: Labeling, g: SimpleGraph, exact_isolates: int | None = None
) -> tuple[int, ...] | None:
    """The label of each vertex of g if lab induces g with the isolate count.

    The induced pairs are listed as they stream, and a labeling with more
    pairs than g has edges is rejected one pair past the edge count, with
    the rest never found; one with fewer is rejected once they run out.
    Then on the induced pairs come the core size, isolate count, degree
    sequence and degree profile (_degree_profile, kept on g) before any
    graph is built. Each is an isomorphism invariant, so the result is the
    same as running find_isomorphism directly. A search leaf's kept pair
    count is not read here; is_valid_labeling rejects on it first.
    """
    g.require_isolate_free()
    target_deg = g.degrees()
    pairs = list(islice(_induced_pairs(lab), len(g.edges) + 1))
    if len(pairs) != len(g.edges):
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
    if _degree_profile(pairs, deg, core_ids) != g._kept("_profile", _graph_profile):
        return None
    mapping = find_isomorphism(g, _core_graph(pairs, core_ids))
    if mapping is None:
        return None
    return tuple(labels[core_ids[mapping[v]]] for v in range(g.n))


def is_valid_labeling(
    lab: Labeling, g: SimpleGraph, exact_isolates: int | None = None
) -> bool:
    """Does lab induce g (as the core) with the required isolate count?

    A search leaf (_labeling_unchecked) whose kept pair count differs from
    g's edge count is rejected here, in one call that lists no label or
    pair. Any other labeling, a leaf whose kept count matches included, and
    a target with no vertex or an isolated vertex, for which
    induce_if_valid raises, goes on to induce_if_valid, which lists the
    pairs afresh.
    """
    kept = lab.__dict__.get("_counted_pairs")
    # the test of _EdgeSet.require_isolate_free, inline: calling it here, on
    # every search leaf, read slower on random-graphs
    if kept is not None and kept != len(g.edges) and g.n and 0 not in g.degrees():
        return False
    return induce_if_valid(lab, g, exact_isolates) is not None


def sd_lower_bound(g: SimpleGraph) -> int:
    """Degree-based lower bound 2n - (max deg - min deg) - 2 for any domain."""
    g.require_isolate_free()
    deg = g.degrees()
    return 2 * g.n - (max(deg) - min(deg)) - 2


def isd_lower_bound(g: SimpleGraph) -> int:
    """Integral-domain lower bound 2n - max deg - 3."""
    g.require_isolate_free()
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
