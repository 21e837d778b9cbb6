"""Exact minimum-range search by pruned enumeration over proven label windows."""
from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .core import (
    Domain,
    Labeling,
    SimpleGraph,
    _labeling_unchecked,
    is_valid_labeling,
    isd_lower_bound,
    labeling,
    sd_lower_bound,
)
from .families import FamilyKind, FamilySpec, generate, identify, known_values

DEFAULT_NODE_BUDGET = 2**32


class Invariant(Enum):
    """The four minimum-range quantities this module computes."""

    SPUM = "spum"
    ISPUM = "ispum"
    SD = "sd"
    ISD = "isd"


# the named searches, name -> (invariant, family, first n); every member is
# searched through run_search, and a conjecture's value is the upper end of
# the member's known_values interval for the invariant
_TABLES = {
    "spum-paths": (Invariant.SPUM, FamilyKind.PATH, 3),
    "ispum-cycles": (Invariant.ISPUM, FamilyKind.CYCLE, 4),
}
_CONJECTURES = {
    "spum-paths-odd": (Invariant.SPUM, FamilyKind.PATH, 8),
    "sd-paths": (Invariant.SD, FamilyKind.PATH, 3),
}
TABLE_NAMES = tuple(_TABLES)
CONJECTURE_NAMES = tuple(_CONJECTURES)


class BudgetExceededError(RuntimeError):
    """Raised when the candidate budget is exhausted before a verdict."""

    def __init__(self, message: str, *, candidates_examined: int) -> None:
        super().__init__(message)
        self.candidates_examined = candidates_examined


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome of a search; value None means infeasible within max_range."""

    value: int | None
    witness: Labeling | None
    window_bound_used: str
    candidates_examined: int
    exhausted_below: bool


@dataclass(frozen=True)
class TableRow:
    """One reproduced table row."""

    n: int
    labels: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class ConjectureReport:
    """Searched value against the conjectured one; never assumes it."""

    name: str
    n: int
    conjectured_value: int
    searched_value: int
    matches: bool
    witness: Labeling


def _degree_capacity(g: SimpleGraph) -> tuple[int, ...]:
    """capacity[d] = number of vertices of g with degree > d, for d < max degree."""
    degrees = g.degrees()
    capacity = [0] * max(degrees)
    for d in degrees:
        for i in range(d):
            capacity[i] += 1
    return tuple(capacity)


def _window_first_hit(
    g: SimpleGraph,
    lo: int,
    hi: int,
    *,
    exact_size: int | None,
    min_size: int,
    exact_isolates: int | None,
    domain: Domain,
    node_cap: int,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Lexicographically first valid label set in [lo, hi] holding both ends.

    Returns (labels or None, nodes visited, aborted). Include-first DFS over
    ascending values emits candidates in ascending lexicographic order, so the
    first full hit is the window minimum; no candidate is a prefix of another
    because all of them contain hi.

    The DFS is one loop over Python-int bitmasks, so its depth is not bounded
    by the recursion limit. Bit i of `mask` is set when label lo + i is
    chosen, and bit top - i of `rev` mirrors it; levels[d - 1] holds the chosen
    labels of degree >= d. Each include pushes its frame (offset, and the
    levels, isolate masks and earliest deadline before it, edges it added),
    and backtracking pops to the deepest live exclude.

    With a fixed isolate count, an include is refused once more than
    exact_isolates chosen labels are hopeless: of degree 0 with no pair left
    that could give them an edge. With nxt the next undecided value, a label
    a outside the band [nxt - hi, hi - nxt] has every possible partner
    decided: for a >= 0 a chosen b != a, b <= hi - a, whose sum a + b is
    still undecided; for a < 0 an undecided b whose sum c = a + b <= a + hi
    is chosen. The largest such b or c stays on the path for the whole
    subtree, so the offset of a + b or c - a is a deadline fixed for it:
    past it, a is hopeless, and with no b or c it is hopeless at once. The
    band only shrinks, so hopelessness is monotone down the path. An include
    frame holds `dead` (labels found hopeless), `live` (labels judged with a
    deadline still ahead, kept in `deadline` by offset) and `due` (the
    earliest live deadline); an include judges only the idle labels outside
    the band in neither mask, and re-reads live only once due has passed.

    The window is checked against the domain and the 64-bit range before
    the first node, so each leaf is handed to is_valid_labeling as built:
    mask is its indicator, edges its exact pair count to reject it on, and
    its labels are listed off the mask, ascending, only when validation
    reads them, which a leaf rejected on its count never does.
    """
    Labeling((lo, hi), domain)  # raises for a window outside the domain
    capacity = g._kept("_capacity", _degree_capacity)
    delta = len(capacity)
    edge_cap = len(g.edges)
    top = hi - lo
    # an include below hi must leave room for hi, count + 2 <= exact_size;
    # hi itself always fits, since every include below it left that room.
    # With no exact size the test passes, as count <= o <= top
    size_cap = top if exact_size is None else exact_size - 2
    # an exclude at o is live while count + (top - o) >= min_size
    need = min_size - top
    positive = lo >= 1
    # offsets of the negative labels, and of label 0 when the window holds it
    negative = (1 << -lo) - 1 if lo < 0 else 0
    zero_bit = 1 << -lo if lo <= 0 <= hi else 0

    mask = rev = 0
    levels = [0] * delta
    count = edges = nodes = 0
    # label lo + i can gain a degree only while the value at offset
    # deadline[i] is undecided; valid while bit i is in live
    dead = live = 0
    due = top + 1
    deadline: dict[int, int] = {}
    stack: list[tuple[int, list[int], int, int, int, int]] = []
    o = 0  # offset of the value decided next, v = lo + o
    while True:
        nodes += 1
        if nodes > node_cap:
            return None, nodes, True
        if o > top:
            if count >= min_size and (exact_size is None or count == exact_size):
                # inside the window checked above; lo is always chosen, so
                # mask is the labels' indicator, and edges counts their
                # induced pairs. The labels are listed only if read
                candidate = _labeling_unchecked(lo, domain, mask, edges)
                if is_valid_labeling(candidate, g, exact_isolates):
                    return candidate.labels, nodes, False
            o = top  # hi is always chosen and has no exclude branch
        elif count <= size_cap or o == top:
            vbit = 1 << o
            # endpoints of the pairs a < b of chosen labels with a + b = v,
            # v = lo + o: b's bit in rev, shifted onto a's bit in mask
            t = o - lo
            ends = 0
            if t >= 0:
                shift = hi - o
                ends = mask & (rev >> shift if shift >= 0 else rev << -shift)
                if not t & 1:  # v / 2 is not its own partner
                    ends &= ~(1 << (t >> 1))
            added = ends.bit_count() // 2
            # pairs (a, v) with a <= 0 whose sum a + v is a chosen label:
            # a + v's bit shifted onto a's, and a chosen 0 (0 + v = v)
            k = 0
            if lo <= 0:
                v = lo + o
                sums = mask >> v if v >= 0 else mask << -v
                sub = mask & (negative & sums | zero_bit)
                if sub:
                    ends |= sub
                    k = sub.bit_count()
                    added += k
            ok = edges + added <= edge_cap
            new_levels = levels
            if ok and ends:
                # an endpoint already at degree delta can take no further
                # edge, so that include fails before levels is copied
                if ends & levels[-1] or k > delta:
                    ok = False
                else:
                    # thermometer increment: each endpoint gains one degree
                    # and v gains k; degrees only grow within one include,
                    # so a level past its capacity as the carry sets it
                    # stays past it. No endpoint is in levels[-1], so the
                    # carry is spent within delta levels
                    new_levels = levels.copy()
                    if k:
                        for e in range(k):
                            new_levels[e] |= vbit
                    carry = ends
                    d = 0
                    while carry:
                        below = new_levels[d]
                        now = below | carry
                        if now.bit_count() > capacity[d]:
                            ok = False
                            break
                        new_levels[d] = now
                        carry &= below
                        d += 1
                    else:
                        while d < k:  # levels that only v reaches
                            if new_levels[d].bit_count() > capacity[d]:
                                ok = False
                                break
                            d += 1
            if ok and exact_isolates is not None:
                new_dead, new_live, new_due = dead, live, due
                chosen = mask | vbit
                idle = chosen & ~new_levels[0]
                # labels in [nxt - hi, hi - nxt] can still pair with an
                # undecided partner for an undecided sum; in a positive
                # window that band starts at offset 0
                last = top - o - 1 - lo
                if last >= 0:
                    if positive:
                        idle &= -(2 << last)
                    else:
                        first = o + 1 - top - lo
                        if first < 0:
                            first = 0
                        if first <= last:
                            idle &= ~((1 << (last + 1)) - (1 << first))
                left = idle.bit_count()
                if left > exact_isolates:
                    if o >= due:
                        # a live deadline has passed: its label is dead, and
                        # a label that gained a degree leaves live
                        rest = live & idle
                        new_live = 0
                        new_due = top + 1
                        while rest:
                            bit = rest & -rest
                            rest ^= bit
                            when = deadline[bit.bit_length() - 1]
                            if when <= o:
                                new_dead |= bit
                            else:
                                new_live |= bit
                                if when < new_due:
                                    new_due = when
                    hopeless = new_dead.bit_count()
                    fresh = idle & ~(new_dead | new_live)
                    left = fresh.bit_count()
                    # judge each fresh label a: the largest chosen b != a,
                    # b <= hi - a (a >= 0), or c <= a + hi (a < 0), is at
                    # offset partner <= top - |a|, and a + b or c - a at
                    # partner + |a|. The loop stops once the count is past
                    # exact_isolates or the labels left cannot lift it past
                    while hopeless <= exact_isolates < hopeless + left:
                        bit = fresh & -fresh
                        fresh ^= bit
                        left -= 1
                        i = bit.bit_length() - 1
                        a = lo + i
                        if a < 0:
                            partners, a = chosen, -a
                        else:
                            partners = chosen ^ bit
                        partner = -1
                        if a <= top:
                            below = partners & ((2 << (top - a)) - 1)
                            partner = below.bit_length() - 1
                        if partner >= 0 and partner + a > o:
                            when = deadline[i] = partner + a
                            new_live |= bit
                            if when < new_due:
                                new_due = when
                        else:
                            new_dead |= bit
                            hopeless += 1
                    if hopeless > exact_isolates:
                        ok = False
            if ok:
                stack.append((o, levels, added, dead, live, due))
                mask |= vbit
                rev |= 1 << (top - o)
                levels = new_levels
                edges += added
                if exact_isolates is not None:  # sd and isd keep no isolate frame
                    dead, live, due = new_dead, new_live, new_due
                count += 1
                o += 1
                continue
        # o's include branch is done: take its exclude branch if it is live,
        # else undo includes back to the deepest one whose exclude is
        while o == 0 or o == top or count - o < need:
            if not stack:
                return None, nodes, False
            o, levels, added, dead, live, due = stack.pop()
            mask ^= 1 << o
            rev ^= 1 << (top - o)
            edges -= added
            count -= 1
        o += 1


def _window_lows(n: int, x: int, integral: bool, exact_isolates: int | None):
    """Ascending minima of all windows that can hold a range-x labeling.

    Positive domain: min label is at most x-n+1 because the largest of n
    distinct non-isolated labels exceeds min+n-2 and its smallest edge sum
    must stay within max = min+x. Integral searches add mixed windows and,
    unless the isolate count is pinned to zero, the all-negative mirror block
    (a positive labeling always isolates its maximum, so zero-isolate
    solutions are mixed-sign only). The minima are produced lazily, so a
    range of any size costs nothing until its windows run.
    """
    top = x - n + 1
    if not integral:
        return range(1, top + 1)
    mixed = range(-x, min(0, top) + 1)
    if exact_isolates == 0:
        return mixed
    return itertools.chain(range(n - 1 - 2 * x, -x), mixed, range(1, top + 1))


# each invariant is at least the one it maps to: spum >= sd >= isd, ispum >= isd
_AT_LEAST = {
    Invariant.SPUM: Invariant.SD,
    Invariant.SD: Invariant.ISD,
    Invariant.ISPUM: Invariant.ISD,
}

# the paper's lower bounds on family members as identify names them,
# (kind, invariant) -> bound(n); identify calls P_2 and the one-edge
# matching K_2, so paths here have 3 or more vertices, matchings 2 or more edges
_STATED_FLOORS = {
    (FamilyKind.PATH, Invariant.SPUM): lambda p: 2 * p - 3 if p <= 6 else 2 * p - 2,
    (FamilyKind.PATH, Invariant.SD): lambda p: 2 * p - 3,
    (FamilyKind.PATH, Invariant.ISD): lambda p: 2 * p - 5,
    (FamilyKind.CYCLE, Invariant.SD): lambda p: 6 if p == 3 else 2 * p - 2,
    (FamilyKind.CYCLE, Invariant.ISD): lambda p: 2 if p == 3 else 2 * p - 5,
    (FamilyKind.COMPLETE, Invariant.SD): lambda p: 4 * p - 6,
    (FamilyKind.COMPLETE, Invariant.ISD): lambda p: p - 1 if p <= 3 else 4 * p - 6,
    (FamilyKind.MATCHING, Invariant.SPUM): lambda p: 4 * p - 2,
    (FamilyKind.MATCHING, Invariant.ISPUM): lambda p: 4 if p == 2 else 4 * p - 3,
}


def _theorem_floor(g: SimpleGraph, invariant: Invariant) -> int:
    """Theorem-backed ascent floor; never seeded from searched table data.

    A bound stated for one invariant also bounds every invariant that is at
    least it, so the floor is the largest bound along the _AT_LEAST chain.
    """
    spec = identify(g)
    floor = 0
    while spec is not None and invariant is not None:
        stated = _STATED_FLOORS.get((spec.kind, invariant))
        if stated is not None:
            floor = max(floor, stated(spec.n))
        invariant = _AT_LEAST.get(invariant)
    return floor


def check_limits(jobs: int, budget: int) -> None:
    """Reject a jobs count outside 1..sys.maxsize or a negative budget."""
    if not 1 <= jobs <= sys.maxsize:
        raise ValueError(f"jobs must be between 1 and {sys.maxsize}")
    if budget < 0:
        raise ValueError("budget must be non-negative")


def ascend(
    xs: Iterable[int],
    lows: Callable[[int], Iterable[int]],
    window: Callable[..., tuple[tuple[int, ...] | None, int, bool]],
    *,
    jobs: int,
    budget: int,
    domain: Domain,
    bound_text: str,
) -> SearchCertificate:
    """Certificate for the first range x in xs at which a label window hits.

    lows(x) yields the window minima of range x in search order, and
    window(lo, hi, node_cap=cap) searches [lo, hi] within cap + 1 nodes,
    returning (labels or None, nodes visited, aborted). Each window is capped
    at the budget still left when it starts, so an exhausted search visits at
    most budget + 1 nodes. Windows run in batches of jobs: every window of a
    batch runs, and the first hit in serial order wins, so the certificate is
    the same for every jobs value. Its callers pass jobs and budget through
    check_limits before any search work.
    """
    examined = 0
    for x in xs:
        row = iter(lows(x))
        while batch := list(itertools.islice(row, jobs)):
            results = []
            spent = examined
            for lo in batch:
                if spent > budget:  # an aborted window ends its batch
                    break
                hit, nodes, _aborted = window(lo, lo + x, node_cap=budget - spent)
                spent += nodes
                results.append((hit, nodes))
            for hit, nodes in results:
                if examined + nodes > budget:
                    raise BudgetExceededError(
                        f"budget of {budget} candidates exhausted at range {x}",
                        candidates_examined=budget,
                    )
                examined += nodes
                if hit is not None:
                    return SearchCertificate(
                        value=x,
                        witness=labeling(hit, domain),
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


def _search(
    g: SimpleGraph,
    invariant: Invariant,
    isolates: int | None,
    *,
    max_range: int | None,
    jobs: int,
    budget: int,
) -> SearchCertificate:
    """One cell of the domain x isolate-count grid.

    spum and sd are positive, ispum and isd integral; spum and ispum fix the
    isolate count to isolates, sd and isd (isolates None) leave it free. A
    positive labeling isolates its maximum, so it has at least n + 1 labels.
    A range-x labeling has at most x + 1 labels, so the ascent starts at
    min_size - 1 or at a degree or theorem bound, whichever is largest.
    """
    check_limits(jobs, budget)
    integral = invariant in (Invariant.ISPUM, Invariant.ISD)
    domain = Domain.INTEGRAL if integral else Domain.POSITIVE
    if isolates is None:
        exact_size = None
        min_size = g.n if integral else g.n + 1
        sizes = f"|L| >= {min_size}"
    else:
        exact_size = min_size = g.n + isolates
        sizes = f"|L| = {exact_size}"
    degree_bound = isd_lower_bound(g) if integral else sd_lower_bound(g)
    floor = max(min_size - 1, degree_bound, _theorem_floor(g, invariant), 1)
    if isolates is not None and isolates > budget and (
        max_range is None or max_range >= floor
    ):
        # range floor has at least `isolates` windows, each visits a node and
        # a hit visits more than exact_size, so the ascent ends right here
        raise BudgetExceededError(
            f"budget of {budget} candidates exhausted at range {floor}",
            candidates_examined=budget,
        )
    span = (
        f"min L in [{g.n}-1-2x, x-{g.n}+1] over negative/mixed/positive blocks"
        if integral
        else f"min L in [1, x-{g.n}+1]"
    )
    return ascend(
        itertools.count(floor) if max_range is None else range(floor, max_range + 1),
        lambda x: _window_lows(g.n, x, integral, isolates),
        partial(
            _window_first_hit,
            g,
            exact_size=exact_size,
            min_size=min_size,
            exact_isolates=isolates,
            domain=domain,
        ),
        jobs=jobs,
        budget=budget,
        domain=domain,
        bound_text=f"{sizes}; {span}; range ascent from x={floor}",
    )


def search_spum(
    g: SimpleGraph,
    sigma: int,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings of g with exactly sigma isolates."""
    g.require_isolate_free()
    if sigma < 1:
        raise ValueError("positive labelings isolate their maximum; sigma >= 1")
    return _search(
        g, Invariant.SPUM, sigma, max_range=max_range, jobs=jobs, budget=budget
    )


def search_ispum(
    g: SimpleGraph,
    zeta: int,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over integral labelings of g with exactly zeta isolates."""
    g.require_isolate_free()
    if zeta < 0:
        raise ValueError("zeta must be non-negative")
    return _search(
        g, Invariant.ISPUM, zeta, max_range=max_range, jobs=jobs, budget=budget
    )


def search_sd(
    g: SimpleGraph,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings of g with any isolate count."""
    g.require_isolate_free()
    return _search(
        g, Invariant.SD, None, max_range=max_range, jobs=jobs, budget=budget
    )


def search_isd(
    g: SimpleGraph,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over integral labelings of g with any isolate count."""
    g.require_isolate_free()
    return _search(
        g, Invariant.ISD, None, max_range=max_range, jobs=jobs, budget=budget
    )


def run_search(
    invariant: Invariant,
    g: SimpleGraph,
    *,
    sigma: int | None = None,
    zeta: int | None = None,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Search g; a sigma or zeta left as None comes from known_values(identify(g))."""
    limits = dict(max_range=max_range, jobs=jobs, budget=budget)
    if invariant is Invariant.SD:
        return search_sd(g, **limits)
    if invariant is Invariant.ISD:
        return search_isd(g, **limits)
    name, count = ("sigma", sigma) if invariant is Invariant.SPUM else ("zeta", zeta)
    if count is None:
        spec = identify(g)
        count = None if spec is None else getattr(known_values(spec), name)
    if count is None:
        raise ValueError(f"{name} is unknown for this target; supply it")
    if invariant is Invariant.SPUM:
        return search_spum(g, count, **limits)
    return search_ispum(g, count, **limits)


def _named(searches: dict, what: str, name: str, n: int) -> tuple:
    """(invariant, family, first n) of a named search, refused below its first n."""
    if name not in searches:
        raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(searches)}")
    invariant, kind, first = searches[name]
    if n < first:
        raise ValueError(f"{name} starts at n={first}")
    return invariant, kind, first


def reproduce_table(
    name: str,
    n_max: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[TableRow, ...]:
    """Recompute the initial-values tables row by row via search."""
    invariant, kind, first = _named(_TABLES, "table", name, n_max)
    rows = []
    for n in range(first, n_max + 1):
        g = generate(FamilySpec(kind, n))
        cert = run_search(invariant, g, jobs=jobs, budget=budget)
        rows.append(TableRow(n, cert.witness.labels, cert.value))
    return tuple(rows)


def check_conjecture(
    name: str,
    n: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ConjectureReport:
    """Search the stated instance and compare it with the conjectured value."""
    invariant, kind, _ = _named(_CONJECTURES, "conjecture", name, n)
    spec = FamilySpec(kind, n)
    conjectured = getattr(known_values(spec), invariant.value).upper
    cert = run_search(invariant, generate(spec), jobs=jobs, budget=budget)
    return ConjectureReport(
        name=name,
        n=n,
        conjectured_value=conjectured,
        searched_value=cert.value,
        matches=cert.value == conjectured,
        witness=cert.witness,
    )
