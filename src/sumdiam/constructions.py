"""Closed-form labelings, Sidon/B_k machinery, and labeling combinators.

Every construction checks its output against the promised target and
raises if it does not match, so a returned report is always self-verified.
Combinators, sd_general and hypergraph.hyper_general check their output by
its exact labeled edges, counted rather than listed (_relabeled); the
closed-form family labelings check theirs through the family recognizers.
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
# closed forms and add_isolated build at most this many labels, so that one
# integer argument cannot make them allocate without bound
_MAX_BUILD_LABELS = MAX_BUILD_SIZE


@dataclass(frozen=True)
class ConstructionReport:
    """A labeling, the graph it induces, its range accounting, and the
    label of each target vertex as the builder proved it (None: no target)."""

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


def _report(
    lab: Labeling, target: _EdgeSet, claimed: int, vertex_label
) -> ConstructionReport:
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


def _family_report(
    lab: Labeling, kind: FamilyKind, n: int, claimed: int, isolates: int
) -> ConstructionReport:
    """Report on a closed-form family labeling, checked by the family recognizers."""
    target = generate(FamilySpec(kind, n))
    vertex_label = induce_if_valid(lab, target, exact_isolates=isolates)
    if vertex_label is None:
        raise ConstructionError("construction output failed re-induction check")
    return _report(lab, target, claimed, vertex_label)


def induces_as_labeled(lab: Labeling, target: _EdgeSet, vertex_label) -> bool:
    """Does lab induce target, with label vertex_label[i] on vertex i and
    every other label isolated? In either domain.

    target is a SimpleGraph or a k-uniform Hypergraph; an edge is induced
    when the labels of its vertices sum to a label. With distinct vertex
    labels in lab, the image E of target's edges has one set of distinct
    labels per target edge, and each such set is in the induced edge set I
    when its sum is a label. So E is a subset of I, and an induced edge
    count equal to len(target.edges) makes the two sets equal. Pairs are
    counted, never listed (_pair_count), k-subsets for k >= 3 listed only
    where they sum to a label (_induced_subsets), and no isomorphism search
    is involved, so there is no size cap.
    """
    members = set(lab.labels)
    distinct = set(vertex_label)
    sums = {sum(map(vertex_label.__getitem__, e)) for e in target.edges}
    pairs = isinstance(target, SimpleGraph)
    return (
        len(distinct) == target.n
        and members.issuperset(distinct)
        and members.issuperset(sums)
        and len(target.edges) == (
            _pair_count(lab)[0] if pairs else len(_induced_subsets(lab.labels, target.k))
        )
    )


def _relabeled(target: _EdgeSet, vertex_label, isolates) -> Labeling:
    """Labels vertex_label[i] on target vertex i plus the isolates, proved
    by induces_as_labeled."""
    lab = labeling(sorted(set(vertex_label) | isolates), Domain.POSITIVE)
    if not induces_as_labeled(lab, target, vertex_label):
        raise ConstructionError("construction output failed re-induction check")
    return lab


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


def _field_width(n: int, k: int) -> int:
    """Bits per coefficient field for powers up to k of an n-term 0/1 polynomial.

    A coefficient of P**j counts ordered j-tuples, so it is at most n**j, and
    the field check adds 2**(width - 1) - 1 - j!; both stay below
    2**(width - 1) when width is one more than the larger one's bit length.
    """
    return max(n**k, math.factorial(k)).bit_length() + 1


def _field_masks(fields: int, limit: int, width: int) -> tuple[int, int]:
    """(bias, top bits) that test the low `fields` width-bit fields against limit.

    Adding 2**(width - 1) - 1 - limit to a field sets its top bit exactly when
    the field exceeds limit.  The caller sizes width so that every field and
    limit stay below 2**(width - 1), so the sum never carries into the next
    field.  A field above value's highest one reads 0 + bias, below its top
    bit, so masks with more fields than value needs give the same answer.
    """
    ones = ((1 << (width * fields)) - 1) // ((1 << width) - 1)
    return ((1 << (width - 1)) - 1 - limit) * ones, ones << (width - 1)


def _fields_within(value: int, max_index: int, limit: int, width: int) -> bool:
    """Check that every width-bit little-endian field of value stays <= limit."""
    bias, top_bits = _field_masks(max_index + 1, limit, width)
    return (value + bias) & top_bits == 0


def is_bk_set(elements, k: int) -> bool:
    """Certify the B_k property: coefficients of the k-th power stay <= k!.

    At k = 2 that says the n(n+1)/2 sums a + b with a <= b are distinct,
    which is checked directly; higher orders take the packed power.  For
    k >= 3 True means that no coefficient of P^k, P the sum of z^a over the
    elements, exceeds k!; the orders below k are not tested.  That makes
    every k-subset sum distinct (two k-subsets with one sum would give it
    2 * k! ordered tuples) but not every k-multiset sum:
    is_bk_set((1, 2, 4, 8), 3) is True although 1 + 1 + 8 = 2 + 4 + 4.
    """
    if k < 2:
        raise ValueError("B_k order must be >= 2")
    elements = tuple(sorted(elements))
    if not elements:
        return True
    if len(set(elements)) != len(elements) or elements[0] < 1:
        raise ValueError("B_k sets contain distinct positive integers")
    if len(elements) ** k >= 2**_BK_MAX_COEFFICIENT_BITS:
        raise ValueError("coefficient fields could overflow for this input size")
    if k == 2:
        n = len(elements)
        sums = {a + b for i, a in enumerate(elements) for b in elements[i:]}
        return len(sums) == n * (n + 1) // 2
    width = _field_width(len(elements), k)
    packed = 0
    for a in elements:
        packed += 1 << (width * a)
    return _fields_within(packed**k, k * elements[-1], math.factorial(k), width)


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
    one; 2c exceeds every old sum.  Orders 3 to k take packed powers of the
    prefix, and only for candidates that pass order 2.  So for k >= 3 the
    output has no coefficient of P^j above j!, for each j <= k: its j-subset
    sums are distinct, its k-multiset sums need not be.
    """
    if (n + 1) ** k >= 2**_BK_MAX_COEFFICIENT_BITS:
        raise ValueError("coefficient fields could overflow for this input size")
    width = _field_width(n + 1, k)
    limits = [math.factorial(j) for j in range(k + 1)]
    binoms = [[math.comb(j, i) for i in range(j + 1)] for j in range(k + 1)]
    chosen: list[int] = []
    pair_sums: set[int] = set()  # a + b over chosen a <= b
    packed = 0
    powers = [1] + [0] * k  # powers[j] = prefix polynomial ** j, kept for k >= 3
    # masks[j] = (fields, bias, top bits) for order j, rebuilt at twice the
    # fields needed once (P + z^c)^j, of degree j * c, outgrows them
    masks = [(0, 0, 0)] * (k + 1)
    candidate = 1
    while len(chosen) < n:
        if pair_sums.isdisjoint(candidate + a for a in chosen):
            for j in range(3, k + 1):
                # (P + z^c)^j expanded binomially from cached powers of P
                total = powers[j]
                for i in range(1, j + 1):
                    total += (binoms[j][i] * powers[j - i]) << (width * i * candidate)
                fields, bias, top_bits = masks[j]
                if j * candidate >= fields:
                    fields = 2 * j * candidate + 1
                    bias, top_bits = _field_masks(fields, limits[j], width)
                    masks[j] = fields, bias, top_bits
                if (total + bias) & top_bits:
                    break
            else:  # every order passed
                chosen.append(candidate)
                pair_sums.update(candidate + a for a in chosen)
                if k > 2:
                    packed += 1 << (width * candidate)
                    for j in range(1, k + 1):
                        powers[j] = powers[j - 1] * packed
        candidate += 1
    return tuple(chosen)


def sidon_set(n: int) -> SidonSet:
    """Sidon set of size n inside [1, 2p^2], p the smallest prime >= n."""
    if n < 1:
        raise ValueError("Sidon set size must be >= 1")
    p = _smallest_prime_at_least(n)
    elements = tuple(sorted(2 * p * i + (i * i) % p for i in range(1, p + 1)))[:n]
    if not is_bk_set(elements, 2):
        raise ConstructionError("Erdos-Turan set failed its Sidon check")
    return SidonSet(elements, 2)


def bk_set(n: int, k: int) -> SidonSet:
    """Greedy-from-1 B_k set of size n, certified element by element.

    For k >= 3 the certificate is that no coefficient of P^j exceeds j!,
    for each j <= k.  Every k-subset sum is then distinct, but k-multiset
    sums can collide: bk_set(4, 3) is (1, 2, 4, 8), and 1 + 1 + 8 = 2 + 4 + 4.
    """
    if n < 1:
        raise ValueError("B_k set size must be >= 1")
    if k < 2:
        raise ValueError("B_k order must be >= 2")
    return SidonSet(_greedy_bk_elements(n, k), k)


# ---------------------------------------------------------------------------
# closed-form family labelings
# ---------------------------------------------------------------------------


def _check_label(extreme: int, count: int) -> None:
    """Refuse an output with too big a label or too many labels, before building it."""
    if abs(extreme) > MAX_LABEL:
        raise ValueError(f"label {extreme} exceeds the 64-bit signed range")
    if count > _MAX_BUILD_LABELS:
        raise ValueError(f"{count} labels exceed the cap of {_MAX_BUILD_LABELS}")


def spum_path_even(n: int) -> ConstructionReport:
    """Even-path labeling {1,3,...,2n-3} + {2n-4, 2n}: range 2n-1, one isolate."""
    if n < 4 or n % 2:
        raise ValueError("defined for even n >= 4")
    _check_label(2 * n, n + 1)
    labels = set(range(1, 2 * n - 2, 2)) | {2 * n - 4, 2 * n}
    lab = labeling(sorted(labels), Domain.POSITIVE)
    return _family_report(lab, FamilyKind.PATH, n, 2 * n - 1, 1)


def sd_path(n: int) -> ConstructionReport:
    """Path labeling [n-1, 2n-2] + {3n-4, 3n-3}: range 2n-2, two isolates."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    _check_label(3 * n - 3, n + 2)
    labels = list(range(n - 1, 2 * n - 1)) + [3 * n - 4, 3 * n - 3]
    lab = labeling(labels, Domain.POSITIVE)
    return _family_report(lab, FamilyKind.PATH, n, 2 * n - 2, 2)


def spum_cycle4() -> ConstructionReport:
    """The 4-cycle at its exact minimum: [3,6] + [8,10], range 7."""
    lab = labeling([3, 4, 5, 6, 8, 9, 10], Domain.POSITIVE)
    return _family_report(lab, FamilyKind.CYCLE, 4, 7, 3)


def ispum_cycle_odd(n: int) -> ConstructionReport:
    """Odd-cycle integral labeling with no isolates; range 16k = 8(n-9)."""
    if n < 15 or n % 2 == 0:
        raise ValueError("defined for odd n >= 15")
    k = (n - 9) // 2
    _check_label(-8 * k, n)
    labels = (
        list(range(-8 * k, -7 * k + 2))
        + list(range(4 * k, 5 * k + 1))
        + [-3 * k, -3 * k + 1, -5 * k, -k - 1, 7 * k - 1, 8 * k]
    )
    lab = labeling(labels, Domain.INTEGRAL)
    return _family_report(lab, FamilyKind.CYCLE, n, 8 * (n - 9), 0)


def spum_matching(p: int) -> ConstructionReport:
    """Matching labeling [2p-1, 4p-2] + {6p-3}: range 4p-2, one isolate."""
    if p < 1:
        raise ValueError("defined for p >= 1")
    _check_label(6 * p - 3, 2 * p + 1)
    labels = list(range(2 * p - 1, 4 * p - 1)) + [6 * p - 3]
    lab = labeling(labels, Domain.POSITIVE)
    return _family_report(lab, FamilyKind.MATCHING, p, 4 * p - 2, 1)


def ispum_matching(p: int) -> ConstructionReport:
    """Matching labeling {-1,1,3,...,4p-5} + {4p-4}: range 4p-3, no isolates."""
    if p < 3:
        raise ValueError("defined for p >= 3")
    _check_label(4 * p - 4, 2 * p)
    labels = [-1] + list(range(1, 4 * p - 4, 2)) + [4 * p - 4]
    lab = labeling(labels, Domain.INTEGRAL)
    return _family_report(lab, FamilyKind.MATCHING, p, 4 * p - 3, 0)


def sd_general(g: SimpleGraph) -> ConstructionReport:
    """Sidon-based labeling of an arbitrary isolate-free graph.

    Vertex v gets 4*s_v+1 and each edge uv the label 4*s_u+4*s_v+2; edge
    labels are exactly the isolates, and the range stays below 64n^2-64n+9.
    """
    if g.n < 2:
        raise ValueError("target needs at least two vertices")
    if g.isolated_vertices():
        raise ValueError("target must be isolate-free")
    s = sidon_set(g.n).elements
    vertex_label = [4 * s[v] + 1 for v in range(g.n)]
    edge_labels = {4 * s[u] + 4 * s[v] + 2 for u, v in g.edges}
    if len(set(vertex_label) | edge_labels) != g.n + len(g.edges):
        raise ConstructionError("label collision in Sidon construction")
    claimed = 64 * g.n * g.n - 64 * g.n + 9
    lab = _relabeled(g, vertex_label, edge_labels)
    return _report(lab, g, claimed, vertex_label)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def _input_labels(lab: Labeling, g: SimpleGraph) -> tuple[int, ...]:
    """Validate a caller's positive labeling of g; the label of each vertex."""
    if lab.labels[0] < 1:
        raise ValueError("combinators require positive-domain labelings")
    vertex_label = induce_if_valid(lab, g)
    if vertex_label is None:
        raise ValueError("labeling does not induce the stated graph")
    return vertex_label


def _sums(vertex_label, g: SimpleGraph) -> set[int]:
    """The labels summed over g's edges: the pair-sum labels of the input."""
    return {vertex_label[u] + vertex_label[v] for u, v in g.edges}


def translate(lab: Labeling, g: SimpleGraph, x: int) -> Labeling:
    """Shift core labels by x and pair-sum labels by 2x; drops idle isolates.

    Requires x >= range - 1 - min(label); the image induces g again with the
    pair-sum labels as the only isolates.
    """
    vertex_label = _input_labels(lab, g)
    threshold = label_range(lab) - 1 - lab.labels[0]
    if x < threshold:
        raise ValueError(f"translation needs x >= {threshold}")
    return _relabeled(
        g, [a + x for a in vertex_label], {t + 2 * x for t in _sums(vertex_label, g)}
    )


def disjoint_union_graph(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """g1 and g2 side by side, g2 vertices shifted by g1.n."""
    edges = set(g1.edges) | {(u + g1.n, v + g1.n) for u, v in g2.edges}
    return graph(g1.n + g2.n, edges)


def disjoint_union_scaled(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """L1 together with (4*r1-2)*L2; the scale keeps the parts independent."""
    vl1, vl2 = _input_labels(lab1, g1), _input_labels(lab2, g2)
    r1, r2 = label_range(lab1), label_range(lab2)
    c = 4 * r1 - 2
    target = disjoint_union_graph(g1, g2)
    vertex_label = list(vl1) + [c * a for a in vl2]
    isolates = set(lab1.labels).difference(vl1)
    isolates |= {c * v for v in set(lab2.labels).difference(vl2)}
    claimed = 2 * (2 * r1 - 1) * (2 * r2 - 1) - 1
    lab = _relabeled(target, vertex_label, isolates)
    return _report(lab, target, claimed, vertex_label)


def disjoint_union_translated(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """Both parts translated into disjoint blocks; range <= 11*r1 + r2 + 2."""
    vl1, vl2 = _input_labels(lab1, g1), _input_labels(lab2, g2)
    if label_range(lab2) > label_range(lab1):
        lab1, g1, vl1, lab2, g2, vl2 = lab2, g2, vl2, lab1, g1, vl1
    r1, r2 = label_range(lab1), label_range(lab2)
    x1 = r1 + 1 - lab1.labels[0]
    x2 = 6 * r1 + 2 - lab2.labels[0]
    target = disjoint_union_graph(g1, g2)
    vertex_label = [a + x1 for a in vl1] + [a + x2 for a in vl2]
    isolates = {t + 2 * x1 for t in _sums(vl1, g1)} | {t + 2 * x2 for t in _sums(vl2, g2)}
    lab = _relabeled(target, vertex_label, isolates)
    return _report(lab, target, 11 * r1 + r2 + 2, vertex_label)


def add_isolated(lab: Labeling, g: SimpleGraph, k: int) -> ConstructionReport:
    """Guarantee at least k isolated vertices alongside g.

    Already enough isolates: unchanged.  k <= 2: append the single label
    4r-2, which never collides (pair sums stay below it).  k >= 3:
    translate to separate vertex and sum labels, then fill the gap between
    the blocks with fresh isolates; range stays within 2r + k - 3.
    """
    if k < 1:
        raise ValueError("isolate count must be >= 1")
    vertex_label = _input_labels(lab, g)
    r = label_range(lab)
    mu = lab.labels[0]
    claimed = max(k, 4 * r) + k - 5
    if len(lab) - g.n >= k:
        return _report(lab, g, claimed, vertex_label)  # the input, validated above
    if k <= 2:
        isolates = set(lab.labels).difference(vertex_label) | {4 * r - 2}
        return _report(_relabeled(g, vertex_label, isolates), g, claimed, vertex_label)
    sums = _sums(vertex_label, g)
    m = max(r - 1, k + r - 1 - len(sums))
    x = m - mu
    # vertex labels end at m + r - 1 <= 2m, the gap fill at 2m, the sums above
    extreme = max(2 * m, max(sums, default=0) + 2 * x)
    _check_label(extreme, g.n + len(sums) + m - r + 1)
    isolates = {t + 2 * x for t in sums} | set(range(m + r, 2 * m + 1))
    shifted = [a + x for a in vertex_label]
    return _report(_relabeled(g, shifted, isolates), g, claimed, shifted)


def _fresh_vertex(
    lab: Labeling, vertex_label, sums, rest, neighbors, target: SimpleGraph
) -> ConstructionReport:
    """Input vertices rest plus a fresh last vertex adjacent to neighbors.

    Labels are translated by r - min label and doubled, so all are even; the
    fresh vertex gets the odd label b = 2r + 1 and each neighbor w the odd
    isolate b + doubled[w], onto which nothing sums. Range <= 4r - 1.
    """
    r = label_range(lab)
    x = r - lab.labels[0]
    b = 2 * r + 1
    doubled = [2 * (a + x) for a in vertex_label]
    isolates = {2 * (t + 2 * x) for t in sums} | {b + doubled[w] for w in neighbors}
    vertex_label = [doubled[w] for w in rest] + [b]
    lab = _relabeled(target, vertex_label, isolates)
    return _report(lab, target, 4 * r - 1, vertex_label)


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
    vertex_label = _input_labels(lab, g)
    target = graph(g.n + 1, set(g.edges) | {(u, g.n) for u in neighbors})
    sums = _sums(vertex_label, g)
    return _fresh_vertex(lab, vertex_label, sums, range(g.n), neighbors, target)


def join_graph(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides."""
    edges = set(g1.edges) | {(u + g1.n, v + g1.n) for u, v in g2.edges}
    edges |= {(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)}
    return graph(g1.n + g2.n, edges)


def join(
    lab1: Labeling, g1: SimpleGraph, lab2: Labeling, g2: SimpleGraph
) -> ConstructionReport:
    """Join labeling: two translated blocks plus a full interval of cross sums."""
    vl1, vl2 = _input_labels(lab1, g1), _input_labels(lab2, g2)
    if label_range(lab1) > label_range(lab2):
        lab1, g1, vl1, lab2, g2, vl2 = lab2, g2, vl2, lab1, g1, vl1
    r1, r2 = label_range(lab1), label_range(lab2)
    x1 = r1 + r2 - lab1.labels[0]
    x2 = 6 * r1 + 4 * r2 - 2 - lab2.labels[0]
    target = join_graph(g1, g2)
    vertex_label = [a + x1 for a in vl1] + [a + x2 for a in vl2]
    isolates = {t + 2 * x1 for t in _sums(vl1, g1)} | {t + 2 * x2 for t in _sums(vl2, g2)}
    isolates |= set(range(7 * r1 + 5 * r2 - 2, 8 * r1 + 6 * r2 - 3))
    lab = _relabeled(target, vertex_label, isolates)
    return _report(lab, target, 11 * r1 + 8 * r2 - 5, vertex_label)


MODIFY_OPERATIONS = (
    "delete-vertex",
    "induced-subgraph",
    "delete-edge",
    "contract-edge",
    "add-edge",
)


def _checked_target(n: int, edges) -> SimpleGraph:
    target = graph(n, edges)
    if target.n < 2 or target.isolated_vertices():
        raise ValueError("modified graph would contain isolated vertices")
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
    vertex_label = _input_labels(lab, g)
    sums = _sums(vertex_label, g)
    r = label_range(lab)
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
        x = r - 1 - lab.labels[0]
        kept = [vertex_label[v] + x for v in keep]
        lab2 = _relabeled(target, kept, {t + 2 * x for t in sums})
        return _report(lab2, target, 2 * r - 2, kept)

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
    return _fresh_vertex(lab, vertex_label, sums, rest, new_neighbors, target)
