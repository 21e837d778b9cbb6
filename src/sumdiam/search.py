"""Exact minimum-range search by pruned enumeration over proven label windows."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .core import (
    Domain,
    Labeling,
    SimpleGraph,
    is_valid_labeling,
    isd_lower_bound,
    labeling,
    sd_lower_bound,
)
from .families import FamilyKind, FamilySpec, generate, identify, known_values

DEFAULT_NODE_BUDGET = 2**32

TABLE_NAMES = ("spum-paths", "ispum-cycles")
CONJECTURE_NAMES = ("spum-paths-odd", "sd-paths")


class Invariant(Enum):
    """The four minimum-range quantities this module computes."""

    SPUM = "spum"
    ISPUM = "ispum"
    SD = "sd"
    ISD = "isd"


class BudgetExceededError(RuntimeError):
    """Raised when the candidate budget is exhausted before a verdict."""

    def __init__(self, message: str, *, candidates_examined: int) -> None:
        super().__init__(message)
        self.candidates_examined = candidates_examined


@dataclass(frozen=True)
class SearchProblem:
    """One search instance; sigma/zeta may be left to family lookup."""

    invariant: Invariant
    target: SimpleGraph | FamilySpec
    max_range: int | None = None
    jobs: int = 1
    sigma: int | None = None
    zeta: int | None = None


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
    """Searched value against a conjectured closed form; never assumes it."""

    name: str
    n: int
    conjectured_value: int
    searched_value: int
    matches: bool
    witness: Labeling


def _degree_capacity(g: SimpleGraph) -> list[int]:
    """capacity[d] = number of vertices of g with degree >= d."""
    degrees = g.degrees()
    delta = max(degrees)
    capacity = [0] * (delta + 1)
    for d in degrees:
        for i in range(1, d + 1):
            capacity[i] += 1
    capacity[0] = g.n
    return capacity


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
    labels of degree >= d. Each include pushes (offset, levels before it,
    edges it added), and backtracking pops to the deepest live exclude.
    """
    capacity = _degree_capacity(g)
    delta = len(capacity) - 1
    edge_cap = len(g.edges)
    top = hi - lo
    # offsets of the negative labels, and of label 0 when the window holds it
    negative = (1 << -lo) - 1 if lo < 0 else 0
    zero_bit = 1 << -lo if lo <= 0 <= hi else 0

    mask = rev = 0
    levels = [0] * delta
    count = edges = nodes = 0
    stack: list[tuple[int, list[int], int]] = []
    o = 0  # offset of the value decided next, v = lo + o
    while True:
        nodes += 1
        if nodes > node_cap:
            return None, nodes, True
        if o > top:
            if count >= min_size and (exact_size is None or count == exact_size):
                chosen = [lo + i for i in range(top + 1) if mask >> i & 1]
                candidate = labeling(chosen, domain)
                if is_valid_labeling(candidate, g, exact_isolates=exact_isolates):
                    return tuple(chosen), nodes, False
            o = top  # hi is always chosen and has no exclude branch
        elif exact_size is None or count + (1 if o == top else 2) <= exact_size:
            v = lo + o
            vbit = 1 << o
            # endpoints of the pairs a < b of chosen labels with a + b = v:
            # b's bit in rev, shifted onto a's bit in mask
            t = v - 2 * lo
            ends = 0
            if t >= 0:
                shift = top - t
                ends = mask & (rev >> shift if shift >= 0 else rev << -shift)
                if not t & 1:  # v / 2 is not its own partner
                    ends &= ~(1 << (t >> 1))
            added = ends.bit_count() // 2
            # pairs (a, v) with a <= 0 whose sum a + v is a chosen label:
            # a + v's bit shifted onto a's, and a chosen 0 (0 + v = v)
            k = 0
            if lo <= 0:
                sums = mask >> v if v >= 0 else mask << -v
                sub = mask & (negative & sums | zero_bit)
                if sub:
                    ends |= sub
                    k = sub.bit_count()
                    added += k
            ok = edges + added <= edge_cap
            new_levels = levels
            if ok and ends:
                # thermometer increment: each endpoint gains one degree
                # and v gains k; degrees only grow within one include, so
                # checking the final counts is exact
                new_levels = levels.copy()
                carry = ends
                d = 0
                while carry and d < delta:
                    below = new_levels[d]
                    new_levels[d] = below | carry
                    carry &= below
                    d += 1
                if carry or k > delta:
                    ok = False
                else:
                    for e in range(k):
                        new_levels[e] |= vbit
                    for e in range(max(d, k)):
                        if new_levels[e].bit_count() > capacity[e + 1]:
                            ok = False
                            break
            if ok and exact_isolates is not None:
                chosen = mask | vbit
                idle = chosen & ~new_levels[0]
                # labels in [nxt - hi, hi - nxt] can still pair with an
                # undecided partner for an undecided sum
                last = top - o - 1 - lo
                if last >= 0:
                    first = o + 1 - top - lo
                    if first < 0:
                        first = 0
                    if first <= last:
                        idle &= ~((1 << (last + 1)) - (1 << first))
                if idle.bit_count() > exact_isolates:
                    # the rest are hopeless unless a chosen partner b != a
                    # has an undecided sum, b in [nxt - a, hi - a], or,
                    # for a < 0, an undecided partner has a chosen sum,
                    # in [a + nxt, a + hi]; both ranges are top - o wide
                    width = (1 << (top - o)) - 1
                    hopeless = 0
                    while idle:
                        bit = idle & -idle
                        idle ^= bit
                        i = bit.bit_length() - 1
                        first = o + 1 - lo - i
                        others = chosen ^ bit
                        near = others >> first if first >= 0 else others << -first
                        if near & width:
                            continue
                        if i < -lo:
                            first = i + lo + o + 1
                            near = chosen >> first if first >= 0 else chosen << -first
                            if near & width:
                                continue
                        hopeless += 1
                        if hopeless > exact_isolates:
                            ok = False
                            break
            if ok:
                stack.append((o, levels, added))
                mask |= vbit
                rev |= 1 << (top - o)
                levels = new_levels
                edges += added
                count += 1
                o += 1
                continue
        # o's include branch is done: take its exclude branch if it is live,
        # else undo includes back to the deepest one whose exclude is
        while o == 0 or o == top or count + (top - o) < min_size:
            if not stack:
                return None, nodes, False
            o, levels, added = stack.pop()
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
    solutions are mixed-sign only).
    """
    top = x - n + 1
    if not integral:
        return list(range(1, top + 1))
    lows = []
    if exact_isolates != 0:
        lows.extend(range(n - 1 - 2 * x, -x))
    lows.extend(range(-x, min(0, top) + 1))
    if exact_isolates != 0:
        lows.extend(range(1, top + 1))
    return lows


def _family_floors(g: SimpleGraph) -> dict[str, int]:
    """Theorem-backed ascent floors; never seeded from searched table data."""
    floors = {"spum": 0, "ispum": 0, "sd": 0, "isd": 0}
    spec = identify(g)
    if spec is None:
        return floors
    kind, p = spec.kind, spec.n
    if kind is FamilyKind.PATH and p >= 3:
        floors["spum"] = 2 * p - 3 if p <= 6 else 2 * p - 2
        floors["sd"] = 2 * p - 3
        floors["ispum"] = 2 * p - 5
        floors["isd"] = 2 * p - 5
    elif kind is FamilyKind.CYCLE:
        if p == 3:
            floors["spum"] = floors["sd"] = 6
            floors["ispum"] = floors["isd"] = 2
        else:
            floors["sd"] = 2 * p - 2
            floors["isd"] = 2 * p - 5
    elif kind is FamilyKind.COMPLETE and p >= 2:
        floors["spum"] = floors["sd"] = 4 * p - 6
        floors["ispum"] = floors["isd"] = p - 1 if p <= 3 else 4 * p - 6
    elif kind is FamilyKind.MATCHING:
        floors["spum"] = 4 * p - 2
        floors["ispum"] = 4 if p == 2 else 4 * p - 3
    return floors


def _require_searchable(g: SimpleGraph) -> None:
    if g.n < 2 or g.isolated_vertices():
        raise ValueError("search targets must be isolate-free with an edge")


def _run(
    g: SimpleGraph,
    *,
    invariant: Invariant,
    exact_isolates: int | None,
    exact_size: int | None,
    min_size: int,
    floor: int,
    max_range: int | None,
    jobs: int,
    budget: int,
) -> SearchCertificate:
    integral = invariant in (Invariant.ISPUM, Invariant.ISD)
    domain = Domain.INTEGRAL if integral else Domain.POSITIVE
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    floor = max(floor, 1)
    sizes = (
        f"|L| = {exact_size}" if exact_size is not None else f"|L| >= {min_size}"
    )
    span = (
        f"min L in [{g.n}-1-2x, x-{g.n}+1] over negative/mixed/positive blocks"
        if integral
        else f"min L in [1, x-{g.n}+1]"
    )
    bound_text = f"{sizes}; {span}; range ascent from x={floor}"
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    examined = 0
    try:
        x = floor
        while max_range is None or x <= max_range:
            lows = _window_lows(g.n, x, integral, exact_isolates)

            def worker(lo: int, x: int = x):
                # examined changes only between batches; an aborted window
                # reports remaining + 1 nodes, which trips the budget check
                return _window_first_hit(
                    g,
                    lo,
                    lo + x,
                    exact_size=exact_size,
                    min_size=min_size,
                    exact_isolates=exact_isolates,
                    domain=domain,
                    node_cap=budget - examined,
                )

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
                            witness=labeling(hit, domain),
                            window_bound_used=bound_text,
                            candidates_examined=examined,
                            exhausted_below=True,
                        )
            x += 1
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


def search_spum(
    g: SimpleGraph,
    sigma: int,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings of g with exactly sigma isolates."""
    _require_searchable(g)
    if sigma < 1:
        raise ValueError("positive labelings isolate their maximum; sigma >= 1")
    fam = _family_floors(g)
    floor = max(g.n + sigma - 1, sd_lower_bound(g), fam["spum"], fam["sd"], fam["isd"])
    return _run(
        g,
        invariant=Invariant.SPUM,
        exact_isolates=sigma,
        exact_size=g.n + sigma,
        min_size=g.n + sigma,
        floor=floor,
        max_range=max_range,
        jobs=jobs,
        budget=budget,
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
    _require_searchable(g)
    if zeta < 0:
        raise ValueError("zeta must be non-negative")
    fam = _family_floors(g)
    floor = max(g.n + zeta - 1, isd_lower_bound(g), fam["ispum"], fam["isd"])
    return _run(
        g,
        invariant=Invariant.ISPUM,
        exact_isolates=zeta,
        exact_size=g.n + zeta,
        min_size=g.n + zeta,
        floor=floor,
        max_range=max_range,
        jobs=jobs,
        budget=budget,
    )


def search_sd(
    g: SimpleGraph,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over positive labelings of g with any isolate count."""
    _require_searchable(g)
    fam = _family_floors(g)
    floor = max(g.n, sd_lower_bound(g), fam["sd"], fam["isd"])
    return _run(
        g,
        invariant=Invariant.SD,
        exact_isolates=None,
        exact_size=None,
        min_size=g.n + 1,
        floor=floor,
        max_range=max_range,
        jobs=jobs,
        budget=budget,
    )


def search_isd(
    g: SimpleGraph,
    *,
    max_range: int | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchCertificate:
    """Minimum range over integral labelings of g with any isolate count."""
    _require_searchable(g)
    fam = _family_floors(g)
    floor = max(g.n - 1, isd_lower_bound(g), fam["isd"])
    return _run(
        g,
        invariant=Invariant.ISD,
        exact_isolates=None,
        exact_size=None,
        min_size=g.n,
        floor=floor,
        max_range=max_range,
        jobs=jobs,
        budget=budget,
    )


def run_search(problem: SearchProblem, *, budget: int = DEFAULT_NODE_BUDGET) -> SearchCertificate:
    """Dispatch a SearchProblem, resolving family targets and sigma/zeta."""
    target = problem.target
    spec = target if isinstance(target, FamilySpec) else None
    g = generate(spec) if spec is not None else target
    if problem.invariant is Invariant.SD:
        return search_sd(g, max_range=problem.max_range, jobs=problem.jobs, budget=budget)
    if problem.invariant is Invariant.ISD:
        return search_isd(g, max_range=problem.max_range, jobs=problem.jobs, budget=budget)
    if spec is None:
        spec = identify(g)
    values = known_values(spec) if spec is not None else None
    if problem.invariant is Invariant.SPUM:
        sigma = problem.sigma if problem.sigma is not None else (
            values.sigma if values is not None else None
        )
        if sigma is None:
            raise ValueError("sigma is unknown for this target; supply it")
        return search_spum(
            g, sigma, max_range=problem.max_range, jobs=problem.jobs, budget=budget
        )
    zeta = problem.zeta if problem.zeta is not None else (
        values.zeta if values is not None else None
    )
    if zeta is None:
        raise ValueError("zeta is unknown for this target; supply it")
    return search_ispum(
        g, zeta, max_range=problem.max_range, jobs=problem.jobs, budget=budget
    )


def reproduce_table(
    name: str,
    n_max: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[TableRow, ...]:
    """Recompute the initial-values tables row by row via search."""
    if name not in TABLE_NAMES:
        raise ValueError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
    rows = []
    if name == "spum-paths":
        if n_max < 3:
            raise ValueError("spum-paths starts at n=3")
        for n in range(3, n_max + 1):
            g = generate(FamilySpec(FamilyKind.PATH, n))
            cert = search_spum(g, 1, jobs=jobs, budget=budget)
            rows.append(TableRow(n, cert.witness.labels, cert.value))
    else:
        if n_max < 4:
            raise ValueError("ispum-cycles starts at n=4")
        for n in range(4, n_max + 1):
            g = generate(FamilySpec(FamilyKind.CYCLE, n))
            zeta = known_values(FamilySpec(FamilyKind.CYCLE, n)).zeta
            cert = search_ispum(g, zeta, jobs=jobs, budget=budget)
            rows.append(TableRow(n, cert.witness.labels, cert.value))
    return tuple(rows)


def check_conjecture(
    name: str,
    n: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ConjectureReport:
    """Search the stated instance and compare against the conjectured formula."""
    if name not in CONJECTURE_NAMES:
        raise ValueError(
            f"unknown conjecture {name!r}; expected one of {CONJECTURE_NAMES}"
        )
    if name == "spum-paths-odd":
        if n < 8:
            raise ValueError("the spum path conjecture starts at n=8")
        conjectured = 2 * n + 1 if n % 2 else 2 * n - 1
        cert = search_spum(
            generate(FamilySpec(FamilyKind.PATH, n)), 1, jobs=jobs, budget=budget
        )
    else:
        if n < 3:
            raise ValueError("the sd path conjecture starts at n=3")
        conjectured = 2 * n - 3 if n <= 6 else 2 * n - 2
        cert = search_sd(
            generate(FamilySpec(FamilyKind.PATH, n)), jobs=jobs, budget=budget
        )
    return ConjectureReport(
        name=name,
        n=n,
        conjectured_value=conjectured,
        searched_value=cert.value,
        matches=cert.value == conjectured,
        witness=cert.witness,
    )
