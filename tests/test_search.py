"""Search tests: oracle equivalence, frozen optima, determinism, budgets."""
from __future__ import annotations

import random
import threading
import sys
from itertools import combinations, islice

import pytest

from oracles import naive_induce, naive_isomorphic, naive_search
from sumdiam import search
from sumdiam.core import MAX_LABEL, Domain, graph, is_valid_labeling, labeling
from sumdiam.families import FamilyKind, FamilySpec, generate, known_values
from sumdiam.hypergraph import hypergraph, search_hyper_sd
from sumdiam.search import (
    BudgetExceededError,
    ConjectureReport,
    Invariant,
    TableRow,
    check_conjecture,
    reproduce_table,
    run_search,
    search_isd,
    search_ispum,
    search_sd,
    search_spum,
)


def family(kind, n):
    return generate(FamilySpec(kind, n))


K2 = family(FamilyKind.PATH, 2)
P3 = family(FamilyKind.PATH, 3)
P4 = family(FamilyKind.PATH, 4)
K3 = family(FamilyKind.COMPLETE, 3)
K4 = family(FamilyKind.COMPLETE, 4)
C4 = family(FamilyKind.CYCLE, 4)
# a range whose window count does not fit in a machine-sized integer
X_HUGE = sys.maxsize + 10
M2 = family(FamilyKind.MATCHING, 2)
STAR4 = graph(4, [(0, 1), (0, 2), (0, 3)])
PAW = graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
DIAMOND = graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
# golden random-graphs class 191: a degree-6 hub over a triangle's edges
CLASS_191 = graph(
    7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (2, 3)]
)

ALL_SMALL = {
    "K2": K2,
    "P3": P3,
    "K3": K3,
    "2K2": M2,
    "P4": P4,
    "star4": STAR4,
    "C4": C4,
    "paw": PAW,
    "diamond": DIAMOND,
    "K4": K4,
}
SMALL_CAP = {name: (10 if name == "K4" else 8) for name in ALL_SMALL}
TRUE_COUNTS = {
    "K2": (1, 0),
    "P3": (1, 0),
    "K3": (2, 0),
    "2K2": (1, 0),
    "P4": (1, 0),
    "C4": (3, 3),
    "K4": (5, 5),
}


class TestFrozenOptima:
    def test_spum_small_paths(self):
        cert = search_spum(P3, 1)
        assert (cert.value, cert.witness.labels) == (3, (1, 2, 3, 4))
        cert = search_spum(P4, 1)
        assert (cert.value, cert.witness.labels) == (5, (1, 2, 3, 4, 6))
        cert = search_spum(family(FamilyKind.PATH, 5), 1)
        assert (cert.value, cert.witness.labels) == (7, (1, 2, 4, 5, 6, 8))

    def test_spum_cycle_four(self):
        cert = search_spum(C4, 3)
        assert (cert.value, cert.witness.labels) == (7, (3, 4, 5, 6, 8, 9, 10))

    # n=5 needs range 10: exhaustive window enumeration proves 9 infeasible.
    @pytest.mark.parametrize(
        ("n", "want"), [(4, 7), (5, 10), (6, 11), (7, 13), (8, 15)]
    )
    def test_spum_cycles(self, n, want):
        cert = search_spum(family(FamilyKind.CYCLE, n), 2 if n > 4 else 3)
        assert cert.value == want
        assert cert.exhausted_below

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_spum_matchings_closed_form(self, p):
        cert = search_spum(family(FamilyKind.MATCHING, p), 1)
        assert cert.value == 4 * p - 2

    @pytest.mark.parametrize(
        ("p", "want"), [(1, 1), (2, 4), (3, 9), (4, 13)]
    )
    def test_ispum_matchings_closed_form(self, p, want):
        cert = search_ispum(family(FamilyKind.MATCHING, p), 0)
        assert cert.value == want

    def test_ispum_matching_two_witness(self):
        cert = search_ispum(M2, 0)
        assert cert.witness.labels == (-2, -1, 1, 2)

    def test_ispum_single_edge(self):
        cert = search_ispum(K2, 0)
        assert (cert.value, cert.witness.labels) == (1, (-1, 0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sd_complete_closed_form(self, n):
        cert = search_sd(family(FamilyKind.COMPLETE, n))
        assert cert.value == 4 * n - 6

    @pytest.mark.parametrize(
        ("n", "want"), [(3, 3), (4, 5), (5, 7), (6, 9), (7, 12)]
    )
    def test_sd_paths(self, n, want):
        cert = search_sd(family(FamilyKind.PATH, n))
        assert cert.value == want

    def test_isd_small_completes(self):
        cert = search_isd(K2)
        assert (cert.value, cert.witness.labels) == (1, (-1, 0))
        cert = search_isd(K3)
        assert (cert.value, cert.witness.labels) == (2, (-1, 0, 1))
        assert search_isd(K4).value == 10

    def test_witnesses_validate(self):
        cert = search_spum(C4, 3)
        assert is_valid_labeling(cert.witness, C4, exact_isolates=3)
        cert = search_sd(P4)
        assert is_valid_labeling(cert.witness, P4)
        cert = search_isd(K3)
        assert is_valid_labeling(cert.witness, K3)


class TestNaiveEquivalence:
    @pytest.mark.parametrize("name", sorted(ALL_SMALL))
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_spum_matches_naive(self, name, sigma):
        g = ALL_SMALL[name]
        cap = SMALL_CAP[name]
        value, witness = naive_search(
            "spum", g.n, g.edges, sigma=sigma, max_range=cap
        )
        cert = search_spum(g, sigma, max_range=cap)
        assert cert.value == value
        assert (cert.witness.labels if cert.witness else None) == witness

    @pytest.mark.parametrize("name", sorted(ALL_SMALL))
    @pytest.mark.parametrize("zeta", [0, 1])
    def test_ispum_matches_naive(self, name, zeta):
        g = ALL_SMALL[name]
        cap = SMALL_CAP[name]
        value, witness = naive_search(
            "ispum", g.n, g.edges, zeta=zeta, max_range=cap
        )
        cert = search_ispum(g, zeta, max_range=cap)
        assert cert.value == value
        assert (cert.witness.labels if cert.witness else None) == witness

    @pytest.mark.parametrize("name", sorted(ALL_SMALL))
    def test_sd_matches_naive(self, name):
        g = ALL_SMALL[name]
        cap = SMALL_CAP[name]
        value, witness = naive_search("sd", g.n, g.edges, max_range=cap)
        cert = search_sd(g, max_range=cap)
        assert (cert.value, cert.witness.labels if cert.witness else None) == (
            value,
            witness,
        )

    @pytest.mark.parametrize("name", sorted(ALL_SMALL))
    def test_isd_matches_naive(self, name):
        g = ALL_SMALL[name]
        cap = SMALL_CAP[name]
        value, witness = naive_search("isd", g.n, g.edges, max_range=cap)
        cert = search_isd(g, max_range=cap)
        assert (cert.value, cert.witness.labels if cert.witness else None) == (
            value,
            witness,
        )


class TestLattice:
    @pytest.mark.parametrize("name", sorted(TRUE_COUNTS))
    def test_order_relations(self, name):
        g = ALL_SMALL[name]
        sigma, zeta = TRUE_COUNTS[name]
        spum = search_spum(g, sigma).value
        ispum = search_ispum(g, zeta).value
        sd = search_sd(g).value
        isd = search_isd(g).value
        assert isd <= sd <= spum
        assert isd <= ispum

    @pytest.mark.parametrize("name", sorted(TRUE_COUNTS))
    def test_lower_bound_consistency(self, name):
        from sumdiam.core import isd_lower_bound, sd_lower_bound

        g = ALL_SMALL[name]
        assert search_sd(g).value >= sd_lower_bound(g)
        assert search_isd(g).value >= isd_lower_bound(g)


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_do_not_change_certificates(self, jobs):
        for runner in (
            lambda j: search_spum(family(FamilyKind.PATH, 6), 1, jobs=j),
            lambda j: search_ispum(family(FamilyKind.CYCLE, 6), 0, jobs=j),
            lambda j: search_sd(family(FamilyKind.PATH, 6), jobs=j),
            lambda j: search_isd(K4, jobs=j),
        ):
            assert runner(jobs) == runner(1)

    def test_jobs_start_no_thread(self, monkeypatch):
        # windows run on the calling thread at every jobs value
        p6 = family(FamilyKind.PATH, 6)
        serial = search_spum(p6, 1)

        def refuse(thread):
            raise AssertionError(f"search started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert search_spum(p6, 1, jobs=4) == serial

    def test_monotone_soundness(self):
        for cert, rerun in (
            (
                search_spum(P4, 1),
                lambda v: search_spum(P4, 1, max_range=v),
            ),
            (
                search_ispum(C4, 3),
                lambda v: search_ispum(C4, 3, max_range=v),
            ),
            (
                search_sd(K3),
                lambda v: search_sd(K3, max_range=v),
            ),
            (
                search_isd(K3),
                lambda v: search_isd(K3, max_range=v),
            ),
        ):
            shrunk = rerun(cert.value - 1)
            assert shrunk.value is None
            assert shrunk.witness is None
            assert shrunk.exhausted_below

    def test_budget_abort_is_exact_and_deterministic(self):
        g = family(FamilyKind.PATH, 7)
        with pytest.raises(BudgetExceededError) as one:
            search_spum(g, 1, budget=100)
        with pytest.raises(BudgetExceededError) as four:
            search_spum(g, 1, budget=100, jobs=4)
        assert one.value.candidates_examined == 100
        assert four.value.candidates_examined == 100

    def test_budget_large_enough_is_harmless(self):
        small = search_spum(P3, 1, budget=10_000)
        assert small == search_spum(P3, 1)

    @pytest.mark.parametrize(
        "budget, jobs",
        [
            pytest.param(100, 1, id="100"),
            pytest.param(20_000, 1, id="20000"),
            pytest.param(100, 2, id="100-jobs2"),
            pytest.param(20_000, 2, id="20000-jobs2"),
        ],
    )
    def test_budget_caps_nodes_visited(self, monkeypatch, budget, jobs):
        # each window is capped at the budget left when it starts, so an
        # exhausted search visits at most one node past it at any jobs value
        # (P9 on a budget of 20,000 used to visit 22,707 nodes)
        visited = []
        real = search._window_first_hit

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            visited.append(out[1])
            return out

        monkeypatch.setattr(search, "_window_first_hit", counting)
        with pytest.raises(BudgetExceededError):
            search_spum(family(FamilyKind.PATH, 9), 1, budget=budget, jobs=jobs)
        assert sum(visited) <= budget + 1

    @pytest.mark.parametrize("runner", [search_spum, search_ispum])
    def test_isolate_count_above_budget_ends_at_the_first_range(self, runner):
        # the first range of C3 with 51 isolates is 53 and holds at least 51
        # windows, so a budget of 50 runs out there
        with pytest.raises(BudgetExceededError) as exc:
            runner(K3, 51, budget=50)
        assert str(exc.value) == "budget of 50 candidates exhausted at range 53"
        assert exc.value.candidates_examined == 50

    @pytest.mark.parametrize(
        "runner, max_range",
        [
            (lambda **kw: search_spum(P4, 1, **kw), 10),
            (lambda **kw: search_ispum(K3, 51, **kw), None),
            (lambda **kw: search_sd(P4, **kw), 10),
            (lambda **kw: search_sd(P4, **kw), None),
            (lambda **kw: search_isd(P4, **kw), None),
            (lambda **kw: search_hyper_sd(hypergraph(3, 3, [(0, 1, 2)]), **kw), 16),
        ],
        ids=["spum", "ispum-isolates-above-budget", "sd", "sd-unbounded", "isd", "hyper-sd"],
    )
    def test_negative_budget_is_a_value_error(self, runner, max_range):
        # a negative budget used to skip every window: a certificate of
        # infeasibility that searched nothing, or no end when max_range is None
        with pytest.raises(ValueError, match="budget must be non-negative"):
            runner(max_range=max_range, budget=-1)

    @pytest.mark.parametrize("jobs", [0, sys.maxsize + 1])
    @pytest.mark.parametrize(
        "runner",
        [
            lambda **kw: search_spum(K3, 51, budget=50, **kw),
            lambda **kw: search_spum(P4, 1, **kw),
            lambda **kw: search_isd(P4, **kw),
        ],
        ids=["spum-isolates-above-budget", "spum", "isd"],
    )
    def test_jobs_out_of_range_is_a_value_error(self, runner, jobs):
        # jobs is checked before any search work: the isolate-count budget
        # check used to raise BudgetExceededError first, and islice rejected
        # a batch size past sys.maxsize with a message that names no flag
        with pytest.raises(ValueError, match="^jobs must be between 1 and "):
            runner(jobs=jobs)

    def test_isolate_count_above_budget_with_empty_ascent(self):
        cert = search_spum(K3, 51, budget=50, max_range=52)
        assert cert.value is None and cert.candidates_examined == 0

    @pytest.mark.parametrize(
        "integral, isolates, first",
        [(False, 1, [1, 2, 3]), (True, 1, [2 - 2 * X_HUGE, 3 - 2 * X_HUGE]),
         (True, 0, [-X_HUGE, 1 - X_HUGE])],
        ids=["positive", "integral", "integral-no-isolates"],
    )
    def test_window_lows_are_lazy(self, integral, isolates, first):
        lows = search._window_lows(3, X_HUGE, integral, isolates)
        assert list(islice(lows, len(first))) == first


class TestCertificateFields:
    def test_found_certificate_shape(self):
        cert = search_spum(P3, 1)
        assert cert.exhausted_below
        assert cert.candidates_examined > 0
        assert "range ascent" in cert.window_bound_used
        assert cert.witness.labels[-1] - cert.witness.labels[0] == cert.value

    def test_infeasible_within_cap(self):
        cert = search_spum(P4, 1, max_range=4)
        assert cert.value is None and cert.witness is None
        assert cert.exhausted_below

    def test_run_search_resolves_family_counts(self):
        assert run_search(Invariant.SPUM, P4).value == 5
        assert run_search(Invariant.ISPUM, C4).value == 7
        assert run_search(Invariant.ISD, K3).value == 2

    def test_run_search_needs_counts_for_unknown_graphs(self):
        with pytest.raises(ValueError):
            run_search(Invariant.SPUM, PAW)
        assert run_search(Invariant.SPUM, PAW, sigma=1, max_range=8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search_spum(graph(3, [(0, 1)]), 1)
        with pytest.raises(ValueError):
            search_spum(K2, 0)
        with pytest.raises(ValueError):
            search_ispum(K2, -1)
        with pytest.raises(ValueError):
            search_sd(graph(1, []))
        with pytest.raises(ValueError):
            search_sd(K2, jobs=0)


START_GRAPHS = {
    **{
        f"{kind.name}-{p}": family(kind, p)
        for kind, sizes in (
            (FamilyKind.PATH, (3, 6, 7)),
            (FamilyKind.CYCLE, (3, 5)),
            (FamilyKind.COMPLETE, (2, 3, 4)),
            (FamilyKind.MATCHING, (2, 3)),
            (FamilyKind.STAR, (4,)),
            (FamilyKind.COMPLETE_BIPARTITE_BALANCED, (3,)),
        )
        for p in sizes
    },
    "paw": PAW,
    "diamond": DIAMOND,
}

# (graph, invariant, sigma or zeta) -> (label-count rule, first range searched)
START_PINS = {
    ("PATH-3", "spum", 1): ("|L| = 4", 3),
    ("PATH-3", "spum", 2): ("|L| = 5", 4),
    ("PATH-3", "ispum", 0): ("|L| = 3", 2),
    ("PATH-3", "ispum", 2): ("|L| = 5", 4),
    ("PATH-3", "sd", None): ("|L| >= 4", 3),
    ("PATH-3", "isd", None): ("|L| >= 3", 2),
    ("PATH-6", "spum", 1): ("|L| = 7", 9),
    ("PATH-6", "spum", 2): ("|L| = 8", 9),
    ("PATH-6", "ispum", 0): ("|L| = 6", 7),
    ("PATH-6", "ispum", 2): ("|L| = 8", 7),
    ("PATH-6", "sd", None): ("|L| >= 7", 9),
    ("PATH-6", "isd", None): ("|L| >= 6", 7),
    ("PATH-7", "spum", 1): ("|L| = 8", 12),
    ("PATH-7", "spum", 2): ("|L| = 9", 12),
    ("PATH-7", "ispum", 0): ("|L| = 7", 9),
    ("PATH-7", "ispum", 2): ("|L| = 9", 9),
    ("PATH-7", "sd", None): ("|L| >= 8", 11),
    ("PATH-7", "isd", None): ("|L| >= 7", 9),
    ("CYCLE-3", "spum", 1): ("|L| = 4", 6),
    ("CYCLE-3", "spum", 2): ("|L| = 5", 6),
    ("CYCLE-3", "ispum", 0): ("|L| = 3", 2),
    ("CYCLE-3", "ispum", 2): ("|L| = 5", 4),
    ("CYCLE-3", "sd", None): ("|L| >= 4", 6),
    ("CYCLE-3", "isd", None): ("|L| >= 3", 2),
    ("CYCLE-5", "spum", 1): ("|L| = 6", 8),
    ("CYCLE-5", "spum", 2): ("|L| = 7", 8),
    ("CYCLE-5", "ispum", 0): ("|L| = 5", 5),
    ("CYCLE-5", "ispum", 2): ("|L| = 7", 6),
    ("CYCLE-5", "sd", None): ("|L| >= 6", 8),
    ("CYCLE-5", "isd", None): ("|L| >= 5", 5),
    ("COMPLETE-2", "spum", 1): ("|L| = 3", 2),
    ("COMPLETE-2", "spum", 2): ("|L| = 4", 3),
    ("COMPLETE-2", "ispum", 0): ("|L| = 2", 1),
    ("COMPLETE-2", "ispum", 2): ("|L| = 4", 3),
    ("COMPLETE-2", "sd", None): ("|L| >= 3", 2),
    ("COMPLETE-2", "isd", None): ("|L| >= 2", 1),
    ("COMPLETE-3", "spum", 1): ("|L| = 4", 6),
    ("COMPLETE-3", "spum", 2): ("|L| = 5", 6),
    ("COMPLETE-3", "ispum", 0): ("|L| = 3", 2),
    ("COMPLETE-3", "ispum", 2): ("|L| = 5", 4),
    ("COMPLETE-3", "sd", None): ("|L| >= 4", 6),
    ("COMPLETE-3", "isd", None): ("|L| >= 3", 2),
    ("COMPLETE-4", "spum", 1): ("|L| = 5", 10),
    ("COMPLETE-4", "spum", 2): ("|L| = 6", 10),
    ("COMPLETE-4", "ispum", 0): ("|L| = 4", 10),
    ("COMPLETE-4", "ispum", 2): ("|L| = 6", 10),
    ("COMPLETE-4", "sd", None): ("|L| >= 5", 10),
    ("COMPLETE-4", "isd", None): ("|L| >= 4", 10),
    ("MATCHING-2", "spum", 1): ("|L| = 5", 6),
    ("MATCHING-2", "spum", 2): ("|L| = 6", 6),
    ("MATCHING-2", "ispum", 0): ("|L| = 4", 4),
    ("MATCHING-2", "ispum", 2): ("|L| = 6", 5),
    ("MATCHING-2", "sd", None): ("|L| >= 5", 6),
    ("MATCHING-2", "isd", None): ("|L| >= 4", 4),
    ("MATCHING-3", "spum", 1): ("|L| = 7", 10),
    ("MATCHING-3", "spum", 2): ("|L| = 8", 10),
    ("MATCHING-3", "ispum", 0): ("|L| = 6", 9),
    ("MATCHING-3", "ispum", 2): ("|L| = 8", 9),
    ("MATCHING-3", "sd", None): ("|L| >= 7", 10),
    ("MATCHING-3", "isd", None): ("|L| >= 6", 8),
    ("STAR-4", "spum", 1): ("|L| = 6", 5),
    ("STAR-4", "spum", 2): ("|L| = 7", 6),
    ("STAR-4", "ispum", 0): ("|L| = 5", 4),
    ("STAR-4", "ispum", 2): ("|L| = 7", 6),
    ("STAR-4", "sd", None): ("|L| >= 6", 5),
    ("STAR-4", "isd", None): ("|L| >= 5", 4),
    ("COMPLETE_BIPARTITE_BALANCED-3", "spum", 1): ("|L| = 7", 10),
    ("COMPLETE_BIPARTITE_BALANCED-3", "spum", 2): ("|L| = 8", 10),
    ("COMPLETE_BIPARTITE_BALANCED-3", "ispum", 0): ("|L| = 6", 6),
    ("COMPLETE_BIPARTITE_BALANCED-3", "ispum", 2): ("|L| = 8", 7),
    ("COMPLETE_BIPARTITE_BALANCED-3", "sd", None): ("|L| >= 7", 10),
    ("COMPLETE_BIPARTITE_BALANCED-3", "isd", None): ("|L| >= 6", 6),
    ("paw", "spum", 1): ("|L| = 5", 4),
    ("paw", "spum", 2): ("|L| = 6", 5),
    ("paw", "ispum", 0): ("|L| = 4", 3),
    ("paw", "ispum", 2): ("|L| = 6", 5),
    ("paw", "sd", None): ("|L| >= 5", 4),
    ("paw", "isd", None): ("|L| >= 4", 3),
    ("diamond", "spum", 1): ("|L| = 5", 5),
    ("diamond", "spum", 2): ("|L| = 6", 5),
    ("diamond", "ispum", 0): ("|L| = 4", 3),
    ("diamond", "ispum", 2): ("|L| = 6", 5),
    ("diamond", "sd", None): ("|L| >= 5", 5),
    ("diamond", "isd", None): ("|L| >= 4", 3),
}


class TestStartingRange:
    """Each search's window_bound_used at max_range=0, where the ascent is
    empty: pins the label-count rule, the window span and the floor."""

    @pytest.mark.parametrize(
        ("name", "invariant", "count"),
        list(START_PINS),
        ids=[f"{n}-{i}{'' if c is None else c}" for n, i, c in START_PINS],
    )
    def test_window_bound_pinned(self, name, invariant, count):
        g = START_GRAPHS[name]
        run = getattr(search, f"search_{invariant}")
        cert = run(g, max_range=0) if count is None else run(g, count, max_range=0)
        sizes, start = START_PINS[name, invariant, count]
        span = (
            f"min L in [{g.n}-1-2x, x-{g.n}+1] over negative/mixed/positive blocks"
            if invariant in ("ispum", "isd")
            else f"min L in [1, x-{g.n}+1]"
        )
        assert cert.window_bound_used == f"{sizes}; {span}; range ascent from x={start}"
        assert (cert.value, cert.candidates_examined) == (None, 0)


class TestTables:
    def test_spum_paths_prefix(self):
        rows = reproduce_table("spum-paths", 5)
        assert rows == (
            TableRow(3, (1, 2, 3, 4), 3),
            TableRow(4, (1, 2, 3, 4, 6), 5),
            TableRow(5, (1, 2, 4, 5, 6, 8), 7),
        )

    def test_spum_paths_middle(self):
        rows = reproduce_table("spum-paths", 7)
        assert rows[-2:] == (
            TableRow(6, (1, 2, 4, 5, 7, 9, 10), 9),
            TableRow(7, (1, 2, 4, 6, 7, 9, 12, 13), 12),
        )

    def test_ispum_cycles_prefix(self):
        rows = reproduce_table("ispum-cycles", 6)
        assert rows == (
            TableRow(4, (-10, -9, -8, -6, -5, -4, -3), 7),
            TableRow(5, (-3, -2, -1, 1, 2), 5),
            TableRow(6, (-5, -3, -2, -1, 2, 3), 8),
        )

    def test_table_validation(self):
        with pytest.raises(ValueError, match="^unknown table 'spum-cycles'; expected one of"):
            reproduce_table("spum-cycles", 6)
        with pytest.raises(ValueError, match="^spum-paths starts at n=3$"):
            reproduce_table("spum-paths", 2)
        with pytest.raises(ValueError, match="^ispum-cycles starts at n=4$"):
            reproduce_table("ispum-cycles", 3)


class TestConjectures:
    def test_sd_paths_boundary(self):
        report = check_conjecture("sd-paths", 6)
        assert isinstance(report, ConjectureReport)
        assert (report.conjectured_value, report.searched_value) == (9, 9)
        assert report.matches

    def test_sd_paths_after_boundary(self):
        report = check_conjecture("sd-paths", 7)
        assert (report.conjectured_value, report.searched_value) == (12, 12)
        assert report.matches

    def test_sd_paths_first(self):
        report = check_conjecture("sd-paths", 3)
        assert (report.conjectured_value, report.searched_value) == (3, 3)
        assert report.matches

    def test_spum_paths_even_case(self):
        report = check_conjecture("spum-paths-odd", 8)
        assert (report.conjectured_value, report.searched_value) == (15, 15)
        assert report.matches

    def test_spum_paths_odd_case(self):
        report = check_conjecture("spum-paths-odd", 9)
        assert (report.conjectured_value, report.searched_value) == (19, 19)
        assert report.matches

    def test_conjecture_validation(self):
        with pytest.raises(ValueError, match="^spum-paths-odd starts at n=8$"):
            check_conjecture("spum-paths-odd", 7)
        with pytest.raises(ValueError, match="^sd-paths starts at n=3$"):
            check_conjecture("sd-paths", 2)
        with pytest.raises(
            ValueError, match="^unknown conjecture 'isd-paths'; expected one of"
        ):
            check_conjecture("isd-paths", 5)


def cycle_zeta(n):
    return known_values(FamilySpec(FamilyKind.CYCLE, n)).zeta


def count_leaves(monkeypatch):
    """Record the Labeling of each leaf the search validates through
    search.is_valid_labeling."""
    leaves = []
    real = search.is_valid_labeling

    def counting(lab, *args, **kwargs):
        leaves.append(lab)
        return real(lab, *args, **kwargs)

    monkeypatch.setattr(search, "is_valid_labeling", counting)
    return leaves


def literal_first_hit(g, lo, hi, exact_size, min_size, exact_isolates):
    """Lexicographically first label set in [lo, hi] holding both ends whose
    induced core is g, by enumerating every such set."""
    hits = []
    for size in range(max(min_size, 2), hi - lo + 2):
        if exact_size is not None and size != exact_size:
            continue
        for interior in combinations(range(lo + 1, hi), size - 2):
            labels = (lo, *interior, hi)
            edges, isolated = naive_induce(labels)
            if exact_isolates is not None and len(isolated) != exact_isolates:
                continue
            core = [i for i in range(size) if i not in isolated]
            if len(core) != g.n:
                continue
            remap = {old: new for new, old in enumerate(core)}
            core_edges = {(remap[u], remap[v]) for u, v in edges}
            if naive_isomorphic(g.n, core_edges, g.n, g.edges):
                hits.append(labels)
    return min(hits, default=None)


class TestKernel:
    """The window DFS: wide windows, the pinned search tree, mixed signs."""

    def test_wide_window_needs_no_recursion(self):
        # one DFS level per label: 1200 levels, past the default recursion
        # limit of 1000
        hit, nodes, aborted = search._window_first_hit(
            P3,
            1,
            1200,
            exact_size=None,
            min_size=4,
            exact_isolates=None,
            domain=Domain.POSITIVE,
            node_cap=200_000,
        )
        assert not aborted
        assert nodes == 1204
        assert (hit[0], hit[-1]) == (1, 1200)
        assert is_valid_labeling(labeling(hit), P3)

    # nodes and leaves from perfbench/golden/tables.json; a kernel change
    # that keeps results but walks a different tree fails here
    @pytest.mark.parametrize(
        ("run", "nodes", "leaves"),
        [
            pytest.param(
                lambda: search_spum(family(FamilyKind.PATH, 7), 1), 223, 5, id="spum-P7"
            ),
            pytest.param(
                lambda: search_spum(family(FamilyKind.PATH, 8), 1),
                17_834,
                10,
                id="spum-P8",
            ),
            pytest.param(
                lambda: search_ispum(C4, cycle_zeta(4)), 109, 3, id="ispum-C4"
            ),
            pytest.param(
                lambda: search_ispum(family(FamilyKind.CYCLE, 8), cycle_zeta(8)),
                37_916,
                148,
                id="ispum-C8",
            ),
            pytest.param(
                lambda: search_sd(family(FamilyKind.PATH, 7)), 3_343, 203, id="sd-P7"
            ),
            pytest.param(
                lambda: search_isd(family(FamilyKind.PATH, 7)), 5_086, 286, id="isd-P7"
            ),
            # non-family targets with a degree-3 and a degree-4 vertex, from
            # perfbench/golden/random_graphs.json
            pytest.param(
                lambda: search_sd(
                    graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)])
                ),
                2_477,
                445,
                id="sd-6v-maxdeg4",
            ),
            pytest.param(
                lambda: search_isd(
                    graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5)])
                ),
                5_044,
                962,
                id="isd-6v-maxdeg3",
            ),
            # a jobs=2 batch validates the leaves of both its windows
            pytest.param(
                lambda: search_spum(family(FamilyKind.PATH, 8), 1, jobs=2),
                17_834,
                17,
                id="spum-P8-jobs2",
            ),
        ],
    )
    def test_search_tree_pinned(self, monkeypatch, run, nodes, leaves):
        validated = count_leaves(monkeypatch)
        cert = run()
        assert (cert.candidates_examined, len(validated)) == (nodes, leaves)

    def test_class_191_pinned(self, monkeypatch):
        # golden random-graphs class 191, the one with the most leaves: value,
        # witness and the search tree from one run
        validated = count_leaves(monkeypatch)
        cert = search_sd(CLASS_191)
        assert cert.value == 13
        assert cert.witness.labels == (4, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17)
        assert (cert.candidates_examined, len(validated)) == (43_885, 8_281)

    def test_leaves_equal_validated_labelings(self, monkeypatch):
        # the kernel hands each leaf over without Labeling's sort and checks;
        # every one must be the labeling the checked constructor builds
        validated = count_leaves(monkeypatch)
        certs = [
            search_sd(P4),
            search_isd(P4),
            search_spum(P4, 1),
            search_ispum(family(FamilyKind.CYCLE, 5), cycle_zeta(5)),
            search_isd(PAW),
        ]
        seen = {"positive": 0, "crosses 0": 0, "negative": 0}
        for lab in validated:
            assert type(lab.labels) is tuple
            assert all(a < b for a, b in zip(lab.labels, lab.labels[1:]))
            fresh = labeling(lab.labels, lab.domain)
            assert lab == fresh
            # the kernel's mask is handed over as the leaf's indicator
            assert lab.indicator() == fresh.indicator()
            if lab.labels[0] >= 1:
                seen["positive"] += 1
            else:
                assert lab.domain is Domain.INTEGRAL
                seen["negative" if lab.labels[-1] < 0 else "crosses 0"] += 1
        assert min(seen.values()) > 0, seen
        for cert in certs:
            witness = cert.witness
            assert witness == labeling(witness.labels, witness.domain)
            assert witness in validated

    @pytest.mark.parametrize(
        ("lo", "hi", "domain"),
        [
            (0, 6, Domain.POSITIVE),
            (-2, 6, Domain.POSITIVE),
            (1, MAX_LABEL + 1, Domain.POSITIVE),
            (-MAX_LABEL - 1, 4, Domain.INTEGRAL),
        ],
        ids=["positive-from-0", "positive-from-negative", "past-max", "past-min"],
    )
    def test_window_outside_domain_raises_before_a_node(
        self, monkeypatch, lo, hi, domain
    ):
        # the leaf's labels are not checked again, so the window must be;
        # a zero node cap shows no node is visited first
        validated = count_leaves(monkeypatch)
        message = "must be >= 1" if domain is Domain.POSITIVE and lo < 1 else (
            "exceeds the 64-bit signed range"
        )
        with pytest.raises(ValueError, match=message):
            search._window_first_hit(
                P3,
                lo,
                hi,
                exact_size=None,
                min_size=4,
                exact_isolates=None,
                domain=domain,
                node_cap=0,
            )
        assert validated == []

    def test_fixed_isolate_windows_pinned(self):
        # the isolate (hopeless) prune on random targets that are not paths
        # or cycles: a prune that cuts more or less walks a different tree
        rng = random.Random(15)
        total = hits = 0
        for _ in range(120):
            n = rng.randint(4, 6)
            pairs = list(combinations(range(n), 2))
            while True:
                g = graph(n, rng.sample(pairs, rng.randint(n // 2, n + 2)))
                if not g.isolated_vertices():
                    break
            isolates = rng.randint(0, 2)
            x = rng.randint(2 * n - 4, 2 * n + 2)
            lo = rng.randint(-x, x - n + 1)
            hit, nodes, aborted = search._window_first_hit(
                g,
                lo,
                lo + x,
                exact_size=n + isolates,
                min_size=n + isolates,
                exact_isolates=isolates,
                domain=Domain.POSITIVE if lo >= 1 else Domain.INTEGRAL,
                node_cap=10**9,
            )
            assert not aborted
            total += nodes
            hits += hit is not None
        assert (total, hits) == (36_265, 21)

    @pytest.mark.parametrize("pinned", [True, False], ids=["exact", "open"])
    def test_first_hit_matches_enumeration(self, pinned):
        # mixed-sign and all-negative windows, v = 0 and label 0 are where
        # the kernel's mask shifts change direction
        rng = random.Random(6)
        seen = {"crosses 0": 0, "negative": 0, "positive": 0}
        for _ in range(400):
            n = rng.randint(2, 4)
            pairs = list(combinations(range(n), 2))
            while True:
                g = graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
                if not g.isolated_vertices():
                    break
            x = rng.randint(1, 8)
            lo = rng.randint(-2 * x, x)
            isolates = rng.randint(0, 2) if pinned else None
            size = n + isolates if pinned else None
            min_size = size if pinned else n
            hit, _nodes, aborted = search._window_first_hit(
                g,
                lo,
                lo + x,
                exact_size=size,
                min_size=min_size,
                exact_isolates=isolates,
                domain=Domain.POSITIVE if lo >= 1 else Domain.INTEGRAL,
                node_cap=10**9,
            )
            assert not aborted
            assert hit == literal_first_hit(g, lo, lo + x, size, min_size, isolates)
            if hit is not None and lo >= 1:
                seen["positive"] += 1
            elif hit is not None:
                seen["negative" if lo + x < 0 else "crosses 0"] += 1
        assert min(seen.values()) > 0, seen


class TestSpumCycles:
    """spum(C_n) past C_8, searched from the sd floor 2n-2 up to the stated
    2n-1; witness and node count pin the search tree."""

    @pytest.mark.parametrize(
        ("n", "labels", "nodes"),
        [
            (9, (6, 7, 8, 9, 10, 11, 12, 13, 14, 21, 23), 72_664),
            (10, (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25, 27), 249_683),
            (11, (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 27, 29), 596_735),
            pytest.param(
                12,
                (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 31, 33),
                1_875_014,
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_spum_cycle(self, n, labels, nodes):
        cert = search_spum(family(FamilyKind.CYCLE, n), 2)
        assert cert.value == 2 * n - 1
        assert cert.witness.labels == labels
        assert cert.candidates_examined == nodes


@pytest.mark.slow
class TestSlowInstances:
    """Costly searches beyond the tier-1 run: ``python3 -m pytest -m slow``."""

    def test_spum_path_11(self):
        cert = search_spum(family(FamilyKind.PATH, 11), 1)
        assert cert.value == 23
        assert cert.witness.labels == (1, 3, 5, 7, 9, 11, 13, 15, 16, 17, 19, 24)
        assert cert.candidates_examined == 2_583_624

    def test_ispum_cycle_11(self):
        cert = search_ispum(family(FamilyKind.CYCLE, 11), cycle_zeta(11))
        assert cert.value == 21
        assert cert.candidates_examined == 1_595_414
