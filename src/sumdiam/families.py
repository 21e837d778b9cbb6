"""Named graph families: generators, recognizers, and published invariants."""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .core import MAX_BUILD_SIZE, SimpleGraph, graph, parse_int


class FamilyKind(Enum):
    """Graph families with closed-form members."""

    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    MATCHING = "matching"
    STAR = "star"
    COMPLETE_BIPARTITE_BALANCED = "complete_bipartite_balanced"
    EMPTY = "empty"


@dataclass(frozen=True)
class FamilySpec:
    """A family together with its size parameter."""

    kind: FamilyKind
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("family parameter must be >= 1")
        if self.kind is FamilyKind.CYCLE and self.n < 3:
            raise ValueError("cycles need at least 3 vertices")

    def text(self) -> str:
        return f"{self.kind.value}:{self.n}"


def parse_spec(text: str) -> FamilySpec:
    """Parse the textual form "kind:n", e.g. "path:7"."""
    kind_text, sep, n_text = text.partition(":")
    if not sep:
        raise ValueError(f"family spec {text!r} must look like 'path:7'")
    try:
        kind = FamilyKind(kind_text.strip())
    except ValueError:
        names = ", ".join(k.value for k in FamilyKind)
        raise ValueError(f"unknown family {kind_text!r}; expected one of: {names}") from None
    return FamilySpec(kind, parse_int(n_text, "family parameter"))


class _Family(NamedTuple):
    """A kind's member with parameter p: vertices(p), edge_count(p), edges(p); a
    member on n vertices has parameter(n). member(g, p) decides membership of a
    graph with the member's counts from its degrees and component facts alone."""

    vertices: Callable[[int], int]
    edge_count: Callable[[int], int]
    edges: Callable[[int], Iterable[tuple[int, int]]]
    parameter: Callable[[int], int]
    member: Callable[[SimpleGraph, int], bool]


# one row per kind, in identification order: identify names a graph by the first
# row that recognizes it, so C3 = K3 gets one name. The comment above a row shows
# that its membership test is exact on a graph with the member's counts
_FAMILIES = {
    # no edges on p vertices is the empty graph
    FamilyKind.EMPTY: _Family(
        lambda p: p, lambda p: 0, lambda p: (), lambda n: n, lambda g, p: True),
    # all p(p - 1)/2 pairs of p vertices are edges
    FamilyKind.COMPLETE: _Family(
        lambda p: p, lambda p: p * (p - 1) // 2, lambda p: combinations(range(p), 2), lambda n: n,
        lambda g, p: True),
    # p edges at degrees <= 2 make every degree 2, so cycles; one if connected
    FamilyKind.CYCLE: _Family(
        lambda p: p, lambda p: p, lambda p: ((i, (i + 1) % p) for i in range(p)), lambda n: n,
        lambda g, p: max(g.degrees()) == 2 and g.component_facts()[0] == 1),
    # connected with p - 1 edges is a tree, and a tree of degrees <= 2 a path
    FamilyKind.PATH: _Family(
        lambda p: p, lambda p: p - 1, lambda p: ((i, i + 1) for i in range(p - 1)), lambda n: n,
        lambda g, p: max(g.degrees()) <= 2 and g.component_facts()[0] == 1),
    # p edges on 2p vertices with no shared endpoint cover every vertex once
    FamilyKind.MATCHING: _Family(
        lambda p: 2 * p, lambda p: p, lambda p: ((2 * i, 2 * i + 1) for i in range(p)),
        lambda n: n // 2, lambda g, p: max(g.degrees()) == 1),
    # a vertex of degree p meets all p other vertices, on all p edges
    FamilyKind.STAR: _Family(
        lambda p: p + 1, lambda p: p, lambda p: ((0, i) for i in range(1, p + 1)),
        lambda n: n - 1, lambda g, p: p in g.degrees()),
    # degree sum 2p^2 at min degree p is p-regular; each side then meets p^2
    # edges at p a vertex, so has p vertices, each adjacent to the other p
    FamilyKind.COMPLETE_BIPARTITE_BALANCED: _Family(
        lambda p: 2 * p, lambda p: p * p,
        lambda p: ((i, p + j) for i in range(p) for j in range(p)), lambda n: n // 2,
        lambda g, p: min(g.degrees()) == p and g.component_facts()[1]),
}


def _is_member(row: _Family, g: SimpleGraph, p: int) -> bool:
    return g.n == row.vertices(p) and len(g.edges) == row.edge_count(p) and row.member(g, p)


def generate(spec: FamilySpec) -> SimpleGraph:
    """Member of the family on vertices 0..n-1, refused before it is built
    when it has more than MAX_BUILD_SIZE vertices or edges."""
    row = _FAMILIES[spec.kind]
    n = row.vertices(spec.n)
    if max(n, row.edge_count(spec.n)) > MAX_BUILD_SIZE:
        raise ValueError(f"{spec.text()} has over {MAX_BUILD_SIZE} vertices or edges")
    return graph(n, row.edges(spec.n))


def recognize(g: SimpleGraph, spec: FamilySpec) -> bool:
    """Is g isomorphic to the family member (structural, any size)?"""
    return _is_member(_FAMILIES[spec.kind], g, spec.n)


def identify(g: SimpleGraph) -> FamilySpec | None:
    """Canonical FamilySpec for a recognized graph, else None; kept per graph."""
    return g._kept("_family", _first_family)


def _first_family(g: SimpleGraph) -> FamilySpec | None:
    for kind, row in _FAMILIES.items():
        p = row.parameter(g.n)
        if p >= 1 and _is_member(row, g, p):
            return FamilySpec(kind, p)
    return None


@dataclass(frozen=True)
class ValueRange:
    """Closed integer interval; exact values are degenerate intervals."""

    lower: int | None
    upper: int | None

    @classmethod
    def point(cls, value: int) -> ValueRange:
        return cls(value, value)


@dataclass(frozen=True)
class KnownValues:
    """Published invariants for a family member; absent fields are open."""

    sigma: int | None
    zeta: int | None
    spum: ValueRange | None
    ispum: ValueRange | None
    sd: ValueRange | None
    isd: ValueRange | None


_NOTHING = KnownValues(None, None, None, None, None, None)

# exact minimum ranges with exactly sigma isolates, paths on 3..15 vertices
SPUM_PATH_TABLE = {
    3: 3, 4: 5, 5: 7, 6: 9, 7: 12, 8: 15, 9: 19, 10: 19, 11: 23, 12: 23,
    13: 27, 14: 27, 15: 31,
}

# exact integral minimum ranges with exactly zeta isolates, cycles on 4..14
ISPUM_CYCLE_TABLE = {
    4: 7, 5: 5, 6: 8, 7: 11, 8: 14, 9: 17, 10: 17, 11: 21, 12: 25, 13: 26,
    14: 31,
}

# graph-coincident specs resolve to one canonical family so identical graphs
# always report identical values
_DELEGATIONS = {
    (FamilyKind.PATH, 2): (FamilyKind.COMPLETE, 2),
    (FamilyKind.MATCHING, 1): (FamilyKind.COMPLETE, 2),
    (FamilyKind.STAR, 1): (FamilyKind.COMPLETE, 2),
    (FamilyKind.COMPLETE_BIPARTITE_BALANCED, 1): (FamilyKind.COMPLETE, 2),
    (FamilyKind.STAR, 2): (FamilyKind.PATH, 3),
    (FamilyKind.COMPLETE_BIPARTITE_BALANCED, 2): (FamilyKind.CYCLE, 4),
    (FamilyKind.CYCLE, 3): (FamilyKind.COMPLETE, 3),
    (FamilyKind.PATH, 1): (FamilyKind.COMPLETE, 1),
    (FamilyKind.EMPTY, 1): (FamilyKind.COMPLETE, 1),
}


def _path_values(n: int) -> KnownValues:
    point = ValueRange.point
    spum = point(SPUM_PATH_TABLE[n]) if n <= 15 else ValueRange(
        2 * n - 2, 2 * n + 1 if n % 2 else 2 * n - 1
    )
    if n == 3:
        ispum = ValueRange(1, None)
    elif n == 4:
        ispum = ValueRange(3, 4)
    elif n == 5:
        ispum = ValueRange(5, None)
    elif n == 6:
        ispum = ValueRange(7, 8)
    else:
        ispum = ValueRange(2 * n - 5, 5 * (n - 3) // 2 if n % 2 else 2 * n - 3)
    if n <= 6:
        sd = point(2 * n - 3)
    elif n <= 13:
        sd = point(2 * n - 2)
    else:
        sd = ValueRange(2 * n - 3, 2 * n - 2)
    if n == 4:
        isd = ValueRange(3, 4)
    elif n == 6:
        isd = ValueRange(7, 8)
    else:
        isd = ValueRange(2 * n - 5, 2 * n - 2 if n % 2 else 2 * n - 3)
    return KnownValues(sigma=1, zeta=0, spum=spum, ispum=ispum, sd=sd, isd=isd)


def _cycle_values(n: int) -> KnownValues:
    point = ValueRange.point
    if n == 4:
        return KnownValues(
            sigma=3, zeta=3, spum=point(7), ispum=point(7),
            sd=ValueRange(6, 7), isd=ValueRange(3, 7),
        )
    if n == 5:
        # Pinned by exhaustive search: range 9 admits no labeling of the
        # cycle with exactly two isolates, so the odd-cycle spum formula
        # breaks here; sd still lands on 9 via a three-isolate labeling.
        return KnownValues(
            sigma=2, zeta=0, spum=point(10), ispum=point(5),
            sd=point(9), isd=point(5),
        )
    if n <= 14:
        ispum = point(ISPUM_CYCLE_TABLE[n])
    elif n % 2:
        ispum = ValueRange(2 * n - 5, 8 * (n - 9))
    else:
        ispum = ValueRange(2 * n - 5, 3 * (3 * n - 14) // 2)
    return KnownValues(
        sigma=2, zeta=0, spum=point(2 * n - 1), ispum=ispum,
        sd=ValueRange(2 * n - 2, 2 * n - 1), isd=ValueRange(2 * n - 5, 2 * n - 1),
    )


def _complete_values(n: int) -> KnownValues:
    point = ValueRange.point
    if n == 1:
        return KnownValues(None, None, None, None, sd=point(0), isd=None)
    if n == 2:
        return KnownValues(1, 0, point(2), point(1), point(2), point(1))
    if n == 3:
        return KnownValues(2, 0, point(6), point(2), point(6), point(2))
    v = point(4 * n - 6)
    return KnownValues(2 * n - 3, 2 * n - 3, v, v, v, v)


def _matching_values(p: int) -> KnownValues:
    point = ValueRange.point
    ispum = point(4) if p == 2 else point(4 * p - 3)
    return KnownValues(
        sigma=1, zeta=0, spum=point(4 * p - 2), ispum=ispum, sd=None, isd=None
    )


def known_values(spec: FamilySpec) -> KnownValues:
    """Published sigma/zeta and minimum-range values or intervals."""
    key = (spec.kind, spec.n)
    if key in _DELEGATIONS:
        kind, n = _DELEGATIONS[key]
        return known_values(FamilySpec(kind, n))
    kind, n = spec.kind, spec.n
    if kind is FamilyKind.PATH and n >= 3:
        return _path_values(n)
    if kind is FamilyKind.CYCLE:
        return _cycle_values(n)
    if kind is FamilyKind.COMPLETE:
        return _complete_values(n)
    if kind is FamilyKind.MATCHING:
        return _matching_values(n)
    return _NOTHING
