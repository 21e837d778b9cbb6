"""Closed-form labelings, Sidon/B_k machinery, and labeling combinators.

Every construction returns one _report call: it states the label of every
target vertex, its isolates and its range claim, and _report builds the
labeling, proves it by those exact labeled edges, counted rather than
listed (_relabeled), and refuses a range above the claim. So a returned
report is always self-verified, by the count that construct --verify re-runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# induce, is_valid_labeling and find_isomorphism are not called here; they
# stay bound because perfbench/tracing.py wraps constructions.induce,
# constructions.is_valid_labeling and constructions.find_isomorphism
from .core import (
    MAX_BUILD_SIZE,
    MAX_LABEL,
    Domain,
    Labeling,
    SimpleGraph,
    _EdgeSet,
    _induced_subsets,
    _pair_count,
    find_isomorphism,
    graph,
    induce,
    induce_if_valid,
    is_valid_labeling,
    label_range,
    labeling,
)
from .families import FamilyKind, FamilySpec, generate

# the certifier refuses inputs whose coefficient bound n**k reaches 2**63
_BK_MAX_COEFFICIENT_BITS = 63


@dataclass(frozen=True)
class ConstructionReport:
    """A labeling, the graph it induces, its range accounting, and the
    label of each target vertex as the builder proved it. Every builder's
    report comes from _report; vertex_label is None only in the report the
    CLI wraps around translate's labeling, which has no vertex map to prove."""

    labeling: Labeling
    target: object
    claimed_range_bound: int
    achieved_range: int
    valid: bool
    vertex_label: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SidonSet:
    """Increasing positive integers whose k-fold sums stay multiplicity-free."""

    elements: tuple[int, ...]
    order_k: int


class ConstructionError(RuntimeError):
    """A construction's self-verification failed (indicates an internal bug)."""


def induces_as_labeled(lab: Labeling, target: _EdgeSet, vertex_label) -> bool:
    """Does lab induce target, with label vertex_label[i] on vertex i and
    every other label isolated? In either domain.

    target is a SimpleGraph or a k-uniform Hypergraph; an edge is induced
    when the labels of its vertices sum to a label. With distinct vertex
    labels in lab, the image E of target's edges has one set of distinct
    labels per target edge, and each such set is in the induced edge set I
    when its sum is a label. So E is a subset of I, and an induced edge
    count equal to len(target.edges) makes the two sets equal. A graph's
    edge sums are formed pair by pair. Pairs are counted as they stream,
    never listed or kept (_pair_count), k-subsets for k >= 3 listed only
    where they sum to a label (_induced_subsets); it checks the builder's
    own vertex map, so it searches for no isomorphism. Both counts try as a
    summand only the labels whose residue class mod k^2 can hold one
    (core._summand_classes, on label sets past its size rule): for the
    outputs of sd_general and hyper_general, whose edge labels sit in a
    class no k labels sum into, that is the vertex labels alone, and the
    pair count picks its path by comparing the span with their number, so
    an sd_general proof takes the pairwise path over its vertex labels.
    """
    members = set(lab.labels)
    distinct = set(vertex_label)
    pairs = isinstance(target, SimpleGraph)
    if pairs:
        sums = {vertex_label[u] + vertex_label[v] for u, v in target.edges}
    else:
        sums = {sum(map(vertex_label.__getitem__, e)) for e in target.edges}
    return (
        len(distinct) == target.n
        and members.issuperset(distinct)
        and members.issuperset(sums)
        and len(target.edges) == (
            _pair_count(lab) if pairs else len(_induced_subsets(lab.labels, target.k))
        )
    )


def _relabeled(
    target: _EdgeSet, vertex_label, isolates, domain: Domain = Domain.POSITIVE
) -> Labeling:
    """Labels vertex_label[i] on target vertex i plus the isolates, proved
    by induces_as_labeled."""
    lab = labeling(sorted(set(vertex_label) | isolates), domain)
    if not induces_as_labeled(lab, target, vertex_label):
        raise ConstructionError("construction output failed re-induction check")
    return lab


def _report(
    target: _EdgeSet, vertex_label, isolates, claimed: int,
    domain: Domain = Domain.POSITIVE,
) -> ConstructionReport:
    """The one step that builds a report: the labeling with label
    vertex_label[i] on target vertex i plus the isolates, proved by
    _relabeled, with a range of at most claimed."""
    lab = _relabeled(target, vertex_label, isolates, domain)
    achieved = label_range(lab)
    if achieved > claimed:
        raise ConstructionError("construction exceeded its claimed range bound")
    return ConstructionReport(
        labeling=lab,
        target=target,
        claimed_range_bound=claimed,
        achieved_range=achieved,
        valid=True,
        vertex_label=tuple(vertex_label),
    )


# ---------------------------------------------------------------------------
# Sidon sets and B_k sets
# ---------------------------------------------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _smallest_prime_at_least(n: int) -> int:
    candidate = max(n, 2)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _refuse_overflow(n: int, k: int) -> None:
    """Refuse n**k >= 2**63, without the power from k = 63 on when n >= 2.

    Exact counts cannot overflow, so this is a cap on library input, kept
    at its old boundary: each element added to a B_k count walks every
    power of the set up to P**k, O(k**2) passes over up to n**j sums each,
    so an order of 10**7 is refused at once rather than counted for hours.
    """
    if n >= 2 and (k >= _BK_MAX_COEFFICIENT_BITS or n**k >= 2**_BK_MAX_COEFFICIENT_BITS):
        raise ValueError(
            f"B_k certification refused: n**k is at least 2**{_BK_MAX_COEFFICIENT_BITS}, "
            "which caps the work of the exact counts"
        )


def _add_counted(powers: list[dict[int, int]], c: int, limits) -> bool:
    """Add c to P if no coefficient of (P + z^c)^j passes limits[j], j >= 1.

    powers[j] holds P^j exactly as {sum: count}, powers[0] = {0: 1}.
    (P + z^c)^j adds binom(j, i) * P^(j - i) shifted by i * c for
    i = 1..j.  The new counts at the sums this touches are gathered order
    by order, highest first, since it refuses the most candidates, and the
    first count that passes its order's limit refuses c, leaving powers as
    they were.  Counts only grow as elements are added, so a refused c
    stays refused for any superset of P.
    """
    changed = []
    for j in range(len(powers) - 1, 0, -1):
        old = powers[j].get
        limit = limits[j]
        new: dict[int, int] = {}
        get = new.get
        for i in range(1, j + 1):
            weight, shift = math.comb(j, i), i * c
            for s, count in powers[j - i].items():
                t = s + shift
                total = (get(t) or old(t, 0)) + weight * count
                if total > limit:
                    return False
                new[t] = total
        changed.append((powers[j], new))
    for power, new in changed:
        power.update(new)
    return True


def is_bk_set(elements, k: int) -> bool:
    """Certify the B_k property: coefficients of the k-th power stay <= k!.

    At most one element is B_k for every k: its powers all have coefficient
    1.  At k = 2 the property says the n(n+1)/2 sums a + b with a <= b are
    distinct, which is checked directly.  For k >= 3 the elements are added
    in order to exact counts of the coefficients of P^j, P the sum of z^a
    over the elements (_add_counted), and True means that no coefficient of
    P^k exceeds k!; the orders below k are not tested.  That makes
    every k-subset sum distinct (two k-subsets with one sum would give it
    2 * k! ordered tuples) but not every k-multiset sum:
    is_bk_set((1, 2, 4, 8), 3) is True although 1 + 1 + 8 = 2 + 4 + 4.
    """
    if type(k) is not int or k < 2:
        raise ValueError("B_k order must be an integer >= 2")
    elements = tuple(elements)
    if (
        any(type(a) is not int for a in elements)
        or len(set(elements)) != len(elements)
        or min(elements, default=1) < 1
    ):
        raise ValueError("B_k sets contain distinct positive integers")
    elements = sorted(elements)
    if len(elements) <= 1:
        return True
    _refuse_overflow(len(elements), k)
    if k == 2:
        n = len(elements)
        sums = {a + b for i, a in enumerate(elements) for b in elements[i:]}
        return len(sums) == n * (n + 1) // 2
    powers = [{0: 1}] + [{} for _ in range(k)]
    limits = [math.inf] * k + [math.factorial(k)]
    return all(_add_counted(powers, a, limits) for a in elements)


def is_sidon_set(elements) -> bool:
    """Sidon = B_2: pairwise sums (with repetition) are all distinct."""
    return is_bk_set(elements, 2)


def _greedy_bk_elements(n: int, k: int) -> tuple[int, ...]:
    """Smallest-next-element greedy under joint B_2..B_k certification.

    Certifying only order k can strand the greedy: the order-4-certified
    prefix {1,2,3} blocks every later candidate (any c adds coefficient
    24 + 4 > 4! at z^(c+6)).  A jointly certified prefix never wedges: for
    any candidate c beyond twice the current span, the new order-j sums
    split by the multiplicity of c into regions whose coefficients reduce
    to lower-order coefficients of the prefix, all certified.

    Order 2 is tested on the prefix's pairwise sums: the prefix is B_2, so
    adding c keeps it B_2 exactly when no new sum c + a (a chosen) is already
    one; 2c exceeds every old sum.  For k >= 3 a candidate that passes order
    2 is added to exact counts of the prefix's powers with limit j! at each
    order j (_add_counted).  So the output has no coefficient of P^j above
    j!, for each j <= k: its j-subset sums are distinct, its k-multiset sums
    need not be.
    """
    _refuse_overflow(n + 1, k)
    limits = [math.factorial(j) for j in range(k + 1)]
    powers = [{0: 1}] + [{} for _ in range(k)]  # used for k >= 3
    chosen: list[int] = []
    pair_sums: set[int] = set()  # a + b over chosen a <= b
    candidate = 1
    while len(chosen) < n:
        if pair_sums.isdisjoint(candidate + a for a in chosen) and (
            k == 2 or _add_counted(powers, candidate, limits)
        ):
            chosen.append(candidate)
            pair_sums.update(candidate + a for a in chosen)
        candidate += 1
    return tuple(chosen)


def sidon_set(n: int) -> SidonSet:
    """Sidon set of size n inside [1, 2p^2], p the smallest prime >= n."""
    if type(n) is not int or n < 1:
        raise ValueError("Sidon set size must be an integer >= 1")
    p = _smallest_prime_at_least(n)
    elements = tuple(sorted(2 * p * i + (i * i) % p for i in range(1, p + 1)))[:n]
    if not is_bk_set(elements, 2):
        raise ConstructionError("Erdos-Turan set failed its Sidon check")
    return SidonSet(elements, 2)


def bk_set(n: int, k: int) -> SidonSet:
    """Greedy-from-1 B_k set of size n, certified element by element:
    order 2 on pairwise sums, orders 3..k on exact coefficient counts.

    For k >= 3 the certificate is that no coefficient of P^j exceeds j!,
    for each j <= k.  Every k-subset sum is then distinct, but k-multiset
    sums can collide: bk_set(4, 3) is (1, 2, 4, 8), and 1 + 1 + 8 = 2 + 4 + 4.
    """
    if type(n) is not int or n < 1:
        raise ValueError("B_k set size must be an integer >= 1")
    if type(k) is not int or k < 2:
        raise ValueError("B_k order must be an integer >= 2")
    return SidonSet(_greedy_bk_elements(n, k), k)


# ---------------------------------------------------------------------------
# closed-form family labelings
# ---------------------------------------------------------------------------


def _check_label(extreme: int, count: int) -> None:
    """Refuse an output with too big a label or too many labels, before building it."""
    if abs(extreme) > MAX_LABEL:
        raise ValueError(f"label {extreme} exceeds the 64-bit signed range")
    if count > MAX_BUILD_SIZE:
        raise ValueError(f"{count} labels exceed the cap of {MAX_BUILD_SIZE}")


def spum_path_even(n: int) -> ConstructionReport:
    """Even-path labeling {1,3,...,2n-3} + {2n-4, 2n}: range 2n-1, one isolate;
    vertex 0 gets 2n-4, vertex i+1 gets 1+2i (i even) or 2n-3-2i (i odd)."""
    if n < 4 or n % 2:
        raise ValueError("defined for even n >= 4")
    _check_label(2 * n, n + 1)
    tail = [2 * n - 3 - 2 * i if i % 2 else 1 + 2 * i for i in range(n - 1)]
    target = generate(FamilySpec(FamilyKind.PATH, n))
    return _report(target, [2 * n - 4] + tail, {2 * n}, 2 * n - 1)


def sd_path(n: int) -> ConstructionReport:
    """Path labeling [n-1, 2n-2] + {3n-4, 3n-3}: range 2n-2, two isolates;
    vertex i gets 2n-2-i/2 (i even) or n-1+(i-1)/2 (i odd)."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    _check_label(3 * n - 3, n + 2)
    order = [n - 1 + i // 2 if i % 2 else 2 * n - 2 - i // 2 for i in range(n)]
    target = generate(FamilySpec(FamilyKind.PATH, n))
    return _report(target, order, {3 * n - 4, 3 * n - 3}, 2 * n - 2)


def spum_cycle4() -> ConstructionReport:
    """The 4-cycle at its exact minimum: [3,6] + [8,10], range 7; vertices
    0..3 get 3, 5, 4, 6."""
    target = generate(FamilySpec(FamilyKind.CYCLE, 4))
    return _report(target, [3, 5, 4, 6], {8, 9, 10}, 7)


def ispum_cycle_odd(n: int) -> ConstructionReport:
    """Odd-cycle integral labeling with no isolates; range 16k = 8(n-9) for
    k = (n-9)/2. Vertices 0..2k+1 get the pairs -8k+i, 5k-i (i = 0..k), the
    last seven -7k+1, -k-1, 8k, -3k, -5k, -3k+1, 7k-1."""
    if n < 15 or n % 2 == 0:
        raise ValueError("defined for odd n >= 15")
    k = (n - 9) // 2
    _check_label(-8 * k, n)
    order = [a for i in range(k + 1) for a in (-8 * k + i, 5 * k - i)]
    order += [-7 * k + 1, -k - 1, 8 * k, -3 * k, -5 * k, -3 * k + 1, 7 * k - 1]
    target = generate(FamilySpec(FamilyKind.CYCLE, n))
    return _report(target, order, set(), 16 * k, Domain.INTEGRAL)


def spum_matching(p: int) -> ConstructionReport:
    """Matching labeling [2p-1, 4p-2] + {6p-3}: range 4p-2, one isolate;
    edge i (vertices 2i, 2i+1) gets 2p-1+i and 4p-2-i."""
    if p < 1:
        raise ValueError("defined for p >= 1")
    _check_label(6 * p - 3, 2 * p + 1)
    order = [a for i in range(p) for a in (2 * p - 1 + i, 4 * p - 2 - i)]
    target = generate(FamilySpec(FamilyKind.MATCHING, p))
    return _report(target, order, {6 * p - 3}, 4 * p - 2)


def ispum_matching(p: int) -> ConstructionReport:
    """Matching labeling {-1,1,3,...,4p-5} + {4p-4}: range 4p-3, no isolates;
    edge 0 gets -1 and 4p-4, edge i+1 gets 1+2i and 4p-5-2i."""
    if p < 3:
        raise ValueError("defined for p >= 3")
    _check_label(4 * p - 4, 2 * p)
    order = [-1, 4 * p - 4]
    order += [a for i in range(p - 1) for a in (1 + 2 * i, 4 * p - 5 - 2 * i)]
    target = generate(FamilySpec(FamilyKind.MATCHING, p))
    return _report(target, order, set(), 4 * p - 3, Domain.INTEGRAL)


def sd_general(g: SimpleGraph) -> ConstructionReport:
    """Sidon-based labeling of an arbitrary isolate-free graph.

    Vertex v gets 4*s_v+1 and each edge uv the label 4*s_u+4*s_v+2; edge
    labels are exactly the isolates, and the range stays below 64n^2-64n+9.
    """
    g.require_isolate_free()
    s = sidon_set(g.n).elements
    vertex_label = [4 * s[v] + 1 for v in range(g.n)]
    edge_labels = {4 * s[u] + 4 * s[v] + 2 for u, v in g.edges}
    if len(set(vertex_label) | edge_labels) != g.n + len(g.edges):
        raise ConstructionError("label collision in Sidon construction")
    return _report(g, vertex_label, edge_labels, 64 * g.n * g.n - 64 * g.n + 9)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Input:
    """A caller's positive labeling of g, read once by _input."""

    g: SimpleGraph
    vertex_label: tuple[int, ...]  # the label of each vertex of g
    sums: frozenset[int]  # the labels g's edges sum to
    others: frozenset[int]  # the labels on no vertex: its isolates
    r: int  # its range
    low: int  # its least label

    def placed(self, x: int) -> tuple[list[int], set[int]]:
        """The translation step: vertex labels moved by x, edge sums by 2x.
        For x >= r - 1 - low they induce g with the edge sums as the only
        isolates."""
        return [a + x for a in self.vertex_label], {t + 2 * x for t in self.sums}


def _input(lab: Labeling, g: SimpleGraph) -> _Input:
    """Validate a caller's positive labeling of g and read what every
    combinator uses from it."""
    if lab.labels[0] < 1:
        raise ValueError("combinators require positive-domain labelings")
    vertex_label = induce_if_valid(lab, g)
    if vertex_label is None:
        raise ValueError("labeling does not induce the stated graph")
    sums = frozenset(vertex_label[u] + vertex_label[v] for u, v in g.edges)
    others = frozenset(lab.labels).difference(vertex_label)
    return _Input(g, vertex_label, sums, others, label_range(lab), lab.labels[0])


def translate(lab: Labeling, g: SimpleGraph, x: int) -> Labeling:
    """Shift core labels by x and pair-sum labels by 2x; drops idle isolates.

    Requires x >= range - 1 - min(label); the image induces g again with the
    pair-sum labels as the only isolates.
    """
    a = _input(lab, g)
    threshold = a.r - 1 - a.low
    if x < threshold:
        raise ValueError(f"translation needs x >= {threshold}")
    return _relabeled(g, *a.placed(x))


def disjoint_union_graph(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """g1 and g2 side by side, g2 vertices shifted by g1.n."""
    edges = set(g1.edges) | {(u + g1.n, v + g1.n) for u, v in g2.edges}
    return graph(g1.n + g2.n, edges)


def disjoint_union_scaled(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """L1 together with (4*r1-2)*L2; the scale keeps the parts independent."""
    a, b = _input(lab1, g1), _input(lab2, g2)
    c = 4 * a.r - 2
    vertex_label = list(a.vertex_label) + [c * v for v in b.vertex_label]
    isolates = a.others | {c * v for v in b.others}
    claimed = 2 * (2 * a.r - 1) * (2 * b.r - 1) - 1
    return _report(disjoint_union_graph(g1, g2), vertex_label, isolates, claimed)


def disjoint_union_translated(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """Both parts translated into disjoint blocks; range <= 11*r1 + r2 + 2."""
    a, b = _input(lab1, g1), _input(lab2, g2)
    if b.r > a.r:
        a, b = b, a
    vertex1, sums1 = a.placed(a.r + 1 - a.low)
    vertex2, sums2 = b.placed(6 * a.r + 2 - b.low)
    target = disjoint_union_graph(a.g, b.g)
    return _report(target, vertex1 + vertex2, sums1 | sums2, 11 * a.r + b.r + 2)


def add_isolated(lab: Labeling, g: SimpleGraph, k: int) -> ConstructionReport:
    """Guarantee at least k isolated vertices alongside g.

    Already enough isolates: the input, proved like every other output.
    k <= 2: append the single label 4r-2, which never collides (pair sums
    stay below it).  k >= 3: translate to separate vertex and sum labels,
    then fill the gap between the blocks with fresh isolates; range stays
    within 2r + k - 3.
    """
    if k < 1:
        raise ValueError("isolate count must be >= 1")
    a = _input(lab, g)
    r = a.r
    claimed = max(k, 4 * r) + k - 5
    if len(a.others) >= k:  # the input, unchanged
        return _report(g, a.vertex_label, a.others, claimed)
    if k <= 2:
        return _report(g, a.vertex_label, a.others | {4 * r - 2}, claimed)
    m = max(r - 1, k + r - 1 - len(a.sums))
    x = m - a.low
    # vertex labels end at m + r - 1 <= 2m, the gap fill at 2m, the sums above
    extreme = max(2 * m, max(a.sums, default=0) + 2 * x)
    _check_label(extreme, g.n + len(a.sums) + m - r + 1)
    vertex_label, sums = a.placed(x)
    return _report(g, vertex_label, sums | set(range(m + r, 2 * m + 1)), claimed)


def _fresh_vertex(a: _Input, rest, neighbors, target: SimpleGraph) -> ConstructionReport:
    """Input vertices rest plus a fresh last vertex adjacent to neighbors.

    Labels are translated by r - min label and doubled, so all are even; the
    fresh vertex gets the odd label b = 2r + 1 and each neighbor w the odd
    isolate b + doubled[w], onto which nothing sums. Range <= 4r - 1.
    """
    b = 2 * a.r + 1
    vertex_label, sums = a.placed(a.r - a.low)
    doubled = [2 * v for v in vertex_label]
    isolates = {2 * t for t in sums} | {b + doubled[w] for w in neighbors}
    return _report(target, [doubled[w] for w in rest] + [b], isolates, 4 * a.r - 1)


def add_vertex(
    lab: Labeling, g: SimpleGraph, neighbors
) -> ConstructionReport:
    """Extend g by one vertex adjacent to `neighbors`; range <= 4r-1.

    Works by translating and doubling (all labels even), then inserting the
    odd label 2r+1 for the new vertex plus one odd edge label per neighbor
    (_fresh_vertex). An empty neighborhood leaves the new vertex isolated.
    """
    neighbors = sorted(set(neighbors))
    if any(not 0 <= u < g.n for u in neighbors):
        raise ValueError("neighbor ids must be vertices of the graph")
    a = _input(lab, g)
    target = graph(g.n + 1, set(g.edges) | {(u, g.n) for u in neighbors})
    return _fresh_vertex(a, range(g.n), neighbors, target)


def join_graph(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides."""
    cross = {(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)}
    return graph(g1.n + g2.n, disjoint_union_graph(g1, g2).edges | cross)


def join(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """Join labeling: two translated blocks plus a full interval of cross sums."""
    a, b = _input(lab1, g1), _input(lab2, g2)
    if a.r > b.r:
        a, b = b, a
    r1, r2 = a.r, b.r
    claimed = 11 * r1 + 8 * r2 - 5
    cross = range(7 * r1 + 5 * r2 - 2, 8 * r1 + 6 * r2 - 3)
    # the second block's sums end at 12*r1 + 9*r2 - 5 at most, and the
    # cross sums fill r1 + r2 - 1 labels
    count = a.g.n + b.g.n + len(a.sums) + len(b.sums) + len(cross)
    _check_label(12 * r1 + 9 * r2 - 5, count)
    vertex1, sums1 = a.placed(r1 + r2 - a.low)
    vertex2, sums2 = b.placed(6 * r1 + 4 * r2 - 2 - b.low)
    target = join_graph(a.g, b.g)
    return _report(target, vertex1 + vertex2, sums1 | sums2 | set(cross), claimed)


MODIFY_OPERATIONS = (
    "delete-vertex",
    "induced-subgraph",
    "delete-edge",
    "contract-edge",
    "add-edge",
)


def _checked_target(n: int, edges) -> SimpleGraph:
    target = graph(n, edges)
    target.require_isolate_free()
    return target


def modify(
    lab: Labeling,
    g: SimpleGraph,
    operation: str,
    *,
    vertex: int | None = None,
    vertices=None,
    edge: tuple[int, int] | None = None,
) -> ConstructionReport:
    """Derive a labeling for g after a small edit; see MODIFY_OPERATIONS."""
    if operation not in MODIFY_OPERATIONS:
        raise ValueError(f"unknown modify operation {operation!r}")
    a = _input(lab, g)
    adjacency = g.adjacency()

    if operation in ("delete-vertex", "induced-subgraph"):
        if operation == "delete-vertex":
            if vertex is None or not 0 <= vertex < g.n:
                raise ValueError("delete-vertex needs an existing vertex id")
            keep = [v for v in range(g.n) if v != vertex]
        else:
            if not vertices:
                raise ValueError("induced-subgraph needs a vertex list")
            keep = sorted(set(vertices))
            if any(not 0 <= v < g.n for v in keep):
                raise ValueError("subgraph vertices must exist in the graph")
        remap = {v: i for i, v in enumerate(keep)}
        kept_edges = [
            (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
        ]
        target = _checked_target(len(keep), kept_edges)
        # the minimal translation making vertex and sum labels disjoint blocks
        vertex_label, sums = a.placed(a.r - 1 - a.low)
        return _report(target, [vertex_label[v] for v in keep], sums, 2 * a.r - 2)

    if edge is None or len(edge) != 2:
        raise ValueError(f"{operation} needs an edge as two vertex ids")
    u, v = sorted(edge)
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ValueError("edge endpoints must be two distinct vertices")
    present = (u, v) in g.edges
    if operation == "add-edge":
        if present:
            raise ValueError("edge to add is already present")
        new_neighbors = set(adjacency[u]) | {v}
        removed = (u,)
    elif operation == "delete-edge":
        if not present:
            raise ValueError("edge to modify does not exist")
        new_neighbors = set(adjacency[u]) - {v}
        removed = (u,)
    else:  # contract-edge
        if not present:
            raise ValueError("edge to modify does not exist")
        new_neighbors = (set(adjacency[u]) | set(adjacency[v])) - {u, v}
        removed = (u, v)

    # vertex u (and v when contracting) is replaced by a fresh vertex whose
    # neighborhood is new_neighbors (_fresh_vertex); every edge at u, the
    # edited one too, leaves with it
    rest = [w for w in range(g.n) if w not in removed]
    remap = {w: i for i, w in enumerate(rest)}
    new_id = len(rest)
    target_edges = {
        (remap[a], remap[b]) for a, b in g.edges if a in remap and b in remap
    } | {(remap[w], new_id) for w in new_neighbors}
    target = _checked_target(len(rest) + 1, target_edges)
    return _fresh_vertex(a, rest, new_neighbors, target)
