"""Named graph families: generators, recognizers, and published invariants."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    MAX_BUILD_SIZE,
    SimpleGraph,
    graph,
    identify_structure,
    parse_int,
    structure_matches,
)


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


def generate(spec: FamilySpec) -> SimpleGraph:
    """Member of the family on vertices 0..n-1, refused before it is built
    when it has more than MAX_BUILD_SIZE vertices or edges."""
    kind, n = spec.kind, spec.n
    balanced = FamilyKind.COMPLETE_BIPARTITE_BALANCED
    vertices = {FamilyKind.MATCHING: 2 * n, FamilyKind.STAR: n + 1, balanced: 2 * n}
    # the other kinds have at most as many edges as vertices
    edges = {FamilyKind.COMPLETE: n * (n - 1) // 2, balanced: n * n}
    if max(vertices.get(kind, n), edges.get(kind, 0)) > MAX_BUILD_SIZE:
        raise ValueError(f"{spec.text()} has over {MAX_BUILD_SIZE} vertices or edges")
    if kind is FamilyKind.PATH:
        return graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind is FamilyKind.CYCLE:
        return graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind is FamilyKind.COMPLETE:
        return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind is FamilyKind.MATCHING:
        return graph(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
    if kind is FamilyKind.STAR:
        return graph(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind is FamilyKind.COMPLETE_BIPARTITE_BALANCED:
        return graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    return graph(n, [])


def recognize(g: SimpleGraph, spec: FamilySpec) -> bool:
    """Is g isomorphic to the family member (structural, any size)?"""
    return structure_matches(g, spec.kind.value, spec.n)


def identify(g: SimpleGraph) -> FamilySpec | None:
    """Canonical FamilySpec for a recognized graph, else None."""
    found = identify_structure(g)
    if found is None:
        return None
    kind, n = found
    return FamilySpec(FamilyKind(kind), n)


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
