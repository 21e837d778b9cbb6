"""k-uniform hypergraph tests with naive-enumeration cross-checks."""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import naive_hyper_induce, naive_hyper_sd, naive_hyper_window
from sumdiam import hypergraph as hypergraph_module
from sumdiam.constructions import ConstructionError, _relabeled
from sumdiam.core import _induced_subsets, induce, labeling
from sumdiam.hypergraph import (
    Hypergraph,
    hyper_from_json,
    hyper_general,
    hyper_sd_lower_bound,
    hyper_to_json,
    hypergraph,
    induce_hyper,
    search_hyper_sd,
)
from sumdiam.search import BudgetExceededError

SINGLE_EDGE_3 = hypergraph(3, 3, [(0, 1, 2)])
TWO_EDGE_3 = hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
OVERLAP_3 = hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
CHAIN_3 = hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
SINGLE_EDGE_4 = hypergraph(4, 4, [(0, 1, 2, 3)])
UNBOUNDED = 2**32


def random_hypergraph(rng: random.Random, n: int, k: int) -> Hypergraph:
    """Random isolate-free k-uniform hypergraph on n vertices."""
    pool = list(combinations(range(n), k))
    while True:
        edges = [e for e in pool if rng.random() < 0.5] or [rng.choice(pool)]
        h = hypergraph(n, k, edges)
        if not h.isolated_vertices():
            return h


class TestHypergraphType:
    def test_normalizes_and_dedups_orderings(self):
        h = hypergraph(4, 3, [(2, 1, 0), (0, 1, 2), (1, 3, 2)])
        assert h.edge_list() == ((0, 1, 2), (1, 2, 3))

    def test_rejects_pair_uniformity(self):
        with pytest.raises(ValueError):
            hypergraph(3, 2, [(0, 1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            hypergraph(4, 3, [(0, 1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hypergraph(3, 3, [(0, 1, 3)])

    def test_rejects_edge_longer_than_k(self):
        # three distinct vertices in four slots: once built with degrees
        # (1, 1, 2), which hyper_general and search_hyper_sd could not match
        with pytest.raises(ValueError, match="needs exactly 3 distinct vertices"):
            hypergraph(3, 3, [(0, 1, 2, 2)])
        with pytest.raises(ValueError, match="needs exactly 3 distinct vertices"):
            hyper_from_json('{"n": 3, "k": 3, "edges": [[0, 1, 2, 2]]}')

    @pytest.mark.parametrize("edges", ["5", "[5]", '"012"', '[[0, 1, 2], "345"]'])
    def test_json_edges_must_be_vertex_lists(self, edges):
        with pytest.raises(ValueError, match="edges must be a list of vertex lists"):
            hyper_from_json(f'{{"n": 6, "k": 3, "edges": {edges}}}')

    def test_degrees_and_isolates(self):
        assert OVERLAP_3.degrees() == (1, 2, 2, 1)
        assert hypergraph(4, 3, [(0, 1, 2)]).isolated_vertices() == (3,)

    def test_degrees_are_counted_once(self):
        h = hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        first = h.degrees()
        assert first == (2, 2, 2, 2, 1)
        assert h.degrees() is first
        assert h.isolated_vertices() == ()
        assert h.degrees() is first
        # equality and hashing see only n, k and edges
        assert h == hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        assert hash(h) == hash(hypergraph(5, 3, [(2, 3, 4), (0, 1, 3), (0, 1, 2)]))

    def test_json_round_trip(self):
        text = hyper_to_json(TWO_EDGE_3)
        assert text == '{"n": 4, "k": 3, "edges": [[0, 1, 2], [0, 1, 3]]}'
        assert hyper_from_json(text) == TWO_EDGE_3
        with pytest.raises(ValueError):
            hyper_from_json('{"n": 3, "edges": []}')

    def test_deep_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            hyper_from_json("[" * 200_000)

    @pytest.mark.parametrize("text", [
        '{"n": 3.5, "k": 3, "edges": [[0, 1, 2]]}',
        '{"n": "3", "k": 3, "edges": [[0, 1, 2]]}',
        '{"n": true, "k": 3, "edges": []}',
        '{"n": 3, "k": 3.0, "edges": [[0, 1, 2]]}',
        '{"n": 3, "k": "3", "edges": [[0, 1, 2]]}',
        '{"n": 3, "k": 3, "edges": [[0, 1, 2.2]]}',
        '{"n": 3, "k": 3, "edges": [["0", "1", "2"]]}',
        '{"n": 3, "k": 3, "edges": [[false, true, 2]]}',
    ], ids=[
        "float-n", "string-n", "bool-n", "float-k", "string-k",
        "float-id", "string-ids", "bool-ids",
    ])
    def test_json_takes_integers_only(self, text):
        with pytest.raises(ValueError, match="must be an integer, not "):
            hyper_from_json(text)

    def test_json_vertex_cap(self):
        cap = "^1048577 vertices exceed the cap of 1048576$"
        with pytest.raises(ValueError, match=cap):
            hyper_from_json('{"n": 1048577, "k": 3, "edges": []}')


class TestInduceHyper:
    def test_single_forced_edge(self):
        r = induce_hyper(labeling([1, 2, 3, 6]), 3)
        assert r.hypergraph.edge_list() == ((0, 1, 2),)
        assert r.isolated_labels == (6,)
        assert r.core_label_of == (1, 2, 3)
        assert r.core_hypergraph.edge_list() == ((0, 1, 2),)
        assert r.isolate_count == 1

    def test_all_isolated(self):
        r = induce_hyper(labeling([1, 2, 3, 4]), 3)
        assert not r.hypergraph.edges
        assert r.isolated_labels == (1, 2, 3, 4)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            induce_hyper(labeling([1, 2, 3, 6]), 2)

    def test_rejects_too_few_labels(self):
        with pytest.raises(ValueError):
            induce_hyper(labeling([1, 2]), 3)

    def test_matches_naive_on_random_labelings(self):
        rng = random.Random(20817)
        for _ in range(200):
            k = rng.choice((3, 4))
            size = rng.randint(k, 9)
            labels = tuple(sorted(rng.sample(range(-20, 40), size)))
            r = induce_hyper(labeling(labels), k)
            edges, isolated = naive_hyper_induce(labels, k)
            assert r.hypergraph.edges == edges
            assert r.isolated_labels == tuple(labels[i] for i in isolated)

    def test_pair_semantics_match_core_induce(self):
        # compatibility shim: the k=2 reading of the naive enumerator must
        # agree with the dedicated pair induction
        rng = random.Random(4194)
        for _ in range(100):
            size = rng.randint(2, 10)
            labels = tuple(sorted(rng.sample(range(-15, 30), size)))
            edges, _ = naive_hyper_induce(labels, 2)
            assert edges == induce(labeling(labels)).graph.edges


class TestInducedSubsets:
    """core._induced_subsets, the one k-subset enumeration behind
    induce_hyper, the search leaf check and the hypergraph output proof."""

    @staticmethod
    def _agree(labels, k):
        got = _induced_subsets(labels, k)
        assert got == sorted(got) and len(set(got)) == len(got), labels
        assert frozenset(got) == naive_hyper_induce(labels, k)[0], (labels, k)
        return got

    def test_matches_naive_on_seeded_label_sets(self):
        rng = random.Random(7781)
        hits = 0
        for _ in range(400):
            k = rng.choice((3, 4, 5))
            labels = tuple(sorted(rng.sample(range(-25, 45), rng.randint(k, 12))))
            hits += bool(self._agree(labels, k))
        assert hits > 200

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("lo", [1, 2, 3, 4])
    def test_matches_naive_on_full_windows(self, k, lo):
        # the 17-label windows of test_densest_leaf_is_counted_exactly;
        # at k = 4, lo = 4 even the smallest four labels sum past the top
        self._agree(tuple(range(lo, lo + 17)), k)


class TestHyperRelabeled:
    """constructions._relabeled proves a hypergraph output as it proves a
    graph's: distinct vertex labels, each edge's label sum a label, and the
    count of k-subsets summing to a label equal to the edge count."""

    def test_accepts_exact_image(self):
        assert _relabeled(SINGLE_EDGE_3, [1, 2, 3], {6}).labels == (1, 2, 3, 6)

    def test_one_extra_induced_subset(self):
        # 1 + 2 + 3 = 6 is the image of the edge, and 1 + 2 + 4 = 7 a second
        # 3-subset summing to a label
        assert len(induce_hyper(labeling([1, 2, 3, 4, 6, 7]), 3).hypergraph.edges) == 2
        with pytest.raises(ConstructionError, match="failed re-induction check"):
            _relabeled(SINGLE_EDGE_3, [1, 2, 3], {4, 6, 7})

    def test_one_missing_image_edge(self):
        # 1 + 2 + 4 = 7 is one induced 3-subset, as the target has one
        # edge, but the image {1, 2, 5} sums to 8, no label
        with pytest.raises(ConstructionError, match="failed re-induction check"):
            _relabeled(SINGLE_EDGE_3, [1, 2, 5], {4, 7})

    def test_repeated_vertex_label(self):
        with pytest.raises(ConstructionError, match="failed re-induction check"):
            _relabeled(hypergraph(4, 3, [(0, 1, 2)]), [1, 2, 3, 3], {6})

    def test_accepts_exactly_when_induced_edges_are_the_image(self):
        rng = random.Random(31337)
        outcomes = Counter()
        for _ in range(300):
            k = rng.choice((3, 4))
            n = rng.randint(k, 6)
            edges = [e for e in combinations(range(n), k) if rng.random() < 0.4]
            h = hypergraph(n, k, edges)
            vertex_label = rng.sample(range(1, 25), n)
            sums = sorted({sum(vertex_label[v] for v in e) for e in h.edges})
            isolates = {t for t in sums if rng.random() < 0.8}
            isolates |= set(rng.sample(range(1, 80), rng.randint(0, 2)))
            labels = tuple(sorted(set(vertex_label) | isolates))
            induced = naive_hyper_induce(labels, k)[0]
            image = {tuple(sorted(vertex_label[v] for v in e)) for e in h.edges}
            expected = {tuple(labels[i] for i in e) for e in induced} == image
            try:
                lab = _relabeled(h, vertex_label, isolates)
            except ConstructionError:
                assert not expected, (h, vertex_label, isolates)
            else:
                assert expected and lab.labels == labels
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 50, outcomes


class TestLowerBound:
    @pytest.mark.parametrize(
        ("h", "want"),
        [(SINGLE_EDGE_3, 5), (OVERLAP_3, 6), (hypergraph(5, 4, [(0, 1, 2, 3), (1, 2, 3, 4)]), 10)],
    )
    def test_formula(self, h, want):
        assert hyper_sd_lower_bound(h) == want

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            hyper_sd_lower_bound(hypergraph(4, 3, [(0, 1, 2)]))


class TestHyperGeneral:
    def test_single_edge_frozen(self):
        rep = hyper_general(SINGLE_EDGE_3)
        assert rep.labeling.labels == (10, 19, 37, 66)
        assert rep.achieved_range == 56
        assert rep.valid and rep.achieved_range <= rep.claimed_range_bound

    def test_two_overlapping_triples(self):
        rep = hyper_general(OVERLAP_3)
        assert len(rep.labeling.labels) == 6
        r = induce_hyper(rep.labeling, 3)
        assert len(r.core_hypergraph.edges) == 2
        assert r.isolate_count == 2

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            hyper_general(hypergraph(5, 3, [(0, 1, 2)]))

    def test_proved_without_induce_hyper(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hyper_general called induce_hyper")

        monkeypatch.setattr(hypergraph_module, "induce_hyper", refuse)
        for h in (SINGLE_EDGE_3, OVERLAP_3, CHAIN_3, SINGLE_EDGE_4):
            assert len(hyper_general(h).labeling) == h.n + len(h.edges)

    # complete k-uniform hypergraphs K_n^(k): (label count, range, claimed
    # bound) as hyper_general gave them when it proved its output by
    # induce_hyper and an edge-set comparison
    @pytest.mark.parametrize(
        ("n", "k", "count", "achieved", "claimed"),
        [(5, 3, 15, 245, 425), (6, 4, 21, 1395, 3571), (7, 3, 42, 1001, 1721)],
        ids=["K5-3", "K6-4", "K7-3"],
    )
    def test_complete_hypergraphs_pinned(self, n, k, count, achieved, claimed):
        h = hypergraph(n, k, combinations(range(n), k))
        rep = hyper_general(h)
        assert len(rep.labeling) == count
        assert rep.achieved_range == achieved
        assert rep.claimed_range_bound == claimed
        r = induce_hyper(rep.labeling, k)
        assert r.core_hypergraph.edges == h.edges
        assert r.isolate_count == len(h.edges)

    def test_failed_proof_is_reported(self, monkeypatch):
        # the message sd_general and the combinators raise
        monkeypatch.setattr(hypergraph_module, "_relabeled", lambda *a: labeling([1, 10**6]))
        with pytest.raises(ConstructionError, match="exceeded its claimed range bound"):
            hyper_general(SINGLE_EDGE_3)

    def test_vertex_and_edge_residues(self):
        for h in (TWO_EDGE_3, CHAIN_3, SINGLE_EDGE_4):
            rep = hyper_general(h)
            k = h.k
            residues = sorted({v % (k * k) for v in rep.labeling.labels})
            assert residues == [1, k]

    def test_mixed_residue_sums_never_land(self):
        # no k-subset mixing the two residue classes may sum to a label
        for h in (TWO_EDGE_3, OVERLAP_3, SINGLE_EDGE_4):
            rep = hyper_general(h)
            labels = rep.labeling.labels
            members = set(labels)
            k = h.k
            for combo in combinations(labels, k):
                kinds = {v % (k * k) for v in combo}
                if kinds == {1, k}:
                    assert sum(combo) not in members

    def test_random_round_trip(self):
        rng = random.Random(11005)
        for _ in range(100):
            k = rng.choice((3, 4))
            n = rng.randint(k, 6)
            h = random_hypergraph(rng, n, k)
            rep = hyper_general(h)
            assert rep.valid
            assert len(rep.labeling.labels) == h.n + len(h.edges)
            r = induce_hyper(rep.labeling, k)
            assert r.isolate_count == len(h.edges)
            assert r.core_hypergraph.n == h.n


class TestSearchHyperSd:
    def test_single_edge_value_and_witness(self):
        cert = search_hyper_sd(SINGLE_EDGE_3)
        assert cert.value == 5
        assert cert.witness.labels == (1, 2, 3, 4, 5, 6)
        assert cert.exhausted_below
        assert cert.value >= hyper_sd_lower_bound(SINGLE_EDGE_3)

    @pytest.mark.parametrize("h", [TWO_EDGE_3, OVERLAP_3, SINGLE_EDGE_4, CHAIN_3])
    def test_matches_naive_enumerator(self, h):
        cert = search_hyper_sd(h)
        edges = [tuple(e) for e in h.edge_list()]
        value, witness = naive_hyper_sd(h.n, edges, h.k)
        assert cert.value == value
        assert cert.witness.labels == witness
        assert cert.value >= hyper_sd_lower_bound(h)

    def test_witness_reinduces_target(self):
        cert = search_hyper_sd(CHAIN_3)
        r = induce_hyper(cert.witness, 3)
        assert r.core_hypergraph.n == 5
        assert len(r.core_hypergraph.edges) == 2

    def test_infeasible_below_floor_cap(self):
        cert = search_hyper_sd(SINGLE_EDGE_3, max_range=4)
        assert cert.value is None and cert.witness is None
        assert cert.exhausted_below

    def test_budget_abort_is_exact(self):
        with pytest.raises(BudgetExceededError) as exc:
            search_hyper_sd(CHAIN_3, budget=3)
        assert exc.value.candidates_examined == 3

    def test_budget_caps_nodes_visited(self, monkeypatch):
        # K4^(3) needs 803 nodes; a budget of 500 used to visit 694
        visited = []
        real = hypergraph_module._hyper_window_first_hit

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            visited.append(out[1])
            return out

        monkeypatch.setattr(hypergraph_module, "_hyper_window_first_hit", counting)
        k4 = hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        with pytest.raises(BudgetExceededError):
            search_hyper_sd(k4, budget=500)
        assert sum(visited) <= 501

    # (n, k, edges, value, witness, candidates_examined) for the benchmark's
    # six shapes; the window search must keep this tree node for node
    @pytest.mark.parametrize(
        ("n", "k", "edges", "value", "witness", "nodes"),
        [
            (4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 10,
             (1, 2, 3, 6, 9, 10, 11), 803),
            (5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)], 8,
             (1, 2, 3, 4, 5, 7, 9), 28),
            (5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)], 11,
             (1, 2, 4, 5, 6, 8, 10, 12), 1445),
            (5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)], 10,
             (1, 3, 4, 5, 6, 9, 10, 11), 644),
            (5, 4, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)], 11,
             (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12), 415),
            (5, 4, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)], 12,
             (1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13), 1327),
        ],
        ids=["K4-3", "n5-m3", "n5-m4", "n5-m4-fan", "n5-k4-m3", "n5-k4-m4"],
    )
    def test_benchmark_shapes_pinned(self, n, k, edges, value, witness, nodes):
        cert = search_hyper_sd(hypergraph(n, k, edges))
        assert cert.value == value
        assert cert.witness.labels == witness
        assert cert.candidates_examined == nodes
        assert cert.exhausted_below

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search_hyper_sd(hypergraph(4, 3, [(0, 1, 2)]))
        with pytest.raises(ValueError):
            search_hyper_sd(hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]))
        with pytest.raises(ValueError):
            search_hyper_sd(SINGLE_EDGE_3, max_range=17)
        with pytest.raises(TypeError):  # the search runs its windows one by one
            search_hyper_sd(SINGLE_EDGE_3, jobs=2)


class TestHyperWindow:
    def test_matches_naive_window_on_seeded_windows(self):
        # (hit, nodes, aborted) must match the recursive oracle window for
        # window, cap for cap, so the search tree and its node count stay
        rng = random.Random(90412)
        hits = aborts = 0
        for _ in range(2000):
            k = rng.choice((3, 4))
            h = random_hypergraph(rng, rng.randint(k, 5), k)
            lo = rng.randint(1, 4)
            hi = lo + rng.randint(1, 16)
            cap = UNBOUNDED if rng.random() < 0.5 else rng.randint(1, 300)
            if cap == UNBOUNDED and hi - lo > 11:
                cap = rng.randint(1, 300)  # keeps the oracle within seconds
            want = naive_hyper_window(h, lo, hi, cap)
            got = hypergraph_module._hyper_window_first_hit(h, lo, hi, node_cap=cap)
            assert got == want, (h, lo, hi, cap)
            hits += want[0] is not None
            aborts += want[2]
        assert hits > 50 and aborts > 50

    @pytest.mark.parametrize("cap", [0, 1, 2, 5])
    def test_small_caps_abort_where_the_oracle_does(self, cap):
        for lo in range(1, 5):
            for hi in range(lo + 1, lo + 17):
                want = naive_hyper_window(CHAIN_3, lo, hi, cap)
                got = hypergraph_module._hyper_window_first_hit(
                    CHAIN_3, lo, hi, node_cap=cap
                )
                assert got == want, (lo, hi)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("lo", [1, 2, 3, 4])
    def test_densest_leaf_is_counted_exactly(self, k, lo):
        # the first leaf of a range-16 window holds all 17 labels, and up to
        # 16 of their k-subsets share one sum; a target equal to its core
        # is hit there only if every packed count is exact
        labels = tuple(range(lo, lo + 17))
        core = induce_hyper(labeling(labels), k).core_hypergraph
        assert len(core.edges) == len(naive_hyper_induce(labels, k)[0])
        got = hypergraph_module._hyper_window_first_hit(core, lo, lo + 16, node_cap=0)
        assert got == (labels, 1, False)


class TestHyperLeafCheck:
    """The kernel's leaf check agrees with induce_hyper plus _isomorphic_hyper."""

    real_iso = staticmethod(hypergraph_module._isomorphic_hyper)

    @classmethod
    def _reference(cls, labels, h):
        """The check as a leaf made it before: induce, then brute force."""
        core = induce_hyper(labeling(labels), h.k).core_hypergraph
        return cls.real_iso(core, h), core

    @classmethod
    def _agree(cls, labels, h, monkeypatch):
        """Assert that both checks agree on labels against h; return why."""
        want, core = cls._reference(labels, h)
        built = []
        monkeypatch.setattr(
            hypergraph_module, "_isomorphic_hyper",
            lambda a, b: built.append(a) or cls.real_iso(a, b),
        )
        got = hypergraph_module._hyper_leaf_matches(list(labels), h, sorted(h.degrees()))
        assert got == want, (labels, h)
        if core.n != h.n:
            reason = "core size"
        elif sorted(core.degrees()) != sorted(h.degrees()):
            reason = "degrees"
        else:
            assert built == [core], (labels, h)
            return "isomorphic" if want else "same degrees, not isomorphic"
        assert built == [], (labels, h)  # rejected before any hypergraph
        return reason

    def test_agrees_on_seeded_label_sets(self, monkeypatch):
        # each target is the core of a seeded label set, checked against
        # the label sets drawn next to it and against its own
        rng = random.Random(22051)
        reasons = Counter()
        for _ in range(150):
            k = rng.choice((3, 4))
            drawn = []
            while len(drawn) < 6:
                lo = rng.randint(1, 4)
                labels = sorted(rng.sample(range(lo, lo + 14), rng.randint(k + 2, 8)))
                core = induce_hyper(labeling(labels), k).core_hypergraph
                if 0 < core.n <= 6:
                    drawn.append((labels, core))
            for labels, _ in drawn:
                for _, h in drawn:
                    reasons[self._agree(labels, h, monkeypatch)] += 1
        # equal degrees without isomorphism is rare here; the enumeration
        # below finds it
        assert min(reasons[r] for r in ("core size", "degrees", "isomorphic")) >= 40, reasons

    def test_equal_degrees_not_isomorphic(self, monkeypatch):
        # every 7-label set of [1, 12] holding 1: pairs of 3-sum cores with
        # one size and degree sequence that are not isomorphic
        pairs = []
        by_degrees = {}
        for rest in combinations(range(2, 13), 6):
            labels = (1, *rest)
            core = induce_hyper(labeling(labels), 3).core_hypergraph
            key = (core.n, tuple(sorted(core.degrees())))
            for other_labels, other in by_degrees.get(key, ()):
                if not self.real_iso(core, other):
                    pairs.append((labels, other_labels, other))
            by_degrees.setdefault(key, []).append((labels, core))
        assert len(pairs) >= 10
        for labels, other_labels, other in pairs[:10]:
            reason = self._agree(labels, other, monkeypatch)
            assert reason == "same degrees, not isomorphic"
            assert self._agree(other_labels, other, monkeypatch) == "isomorphic"
