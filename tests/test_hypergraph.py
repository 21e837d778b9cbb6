"""k-uniform hypergraph tests with naive-enumeration cross-checks."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from oracles import naive_hyper_induce, naive_hyper_sd
from sumdiam import hypergraph as hypergraph_module
from sumdiam.core import induce, labeling
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

    def test_degrees_and_isolates(self):
        assert OVERLAP_3.degrees() == (1, 2, 2, 1)
        assert hypergraph(4, 3, [(0, 1, 2)]).isolated_vertices() == (3,)

    def test_json_round_trip(self):
        text = hyper_to_json(TWO_EDGE_3)
        assert text == '{"n": 4, "k": 3, "edges": [[0, 1, 2], [0, 1, 3]]}'
        assert hyper_from_json(text) == TWO_EDGE_3
        with pytest.raises(ValueError):
            hyper_from_json('{"n": 3, "edges": []}')


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

    def test_complete_3_uniform_on_5(self):
        h = hypergraph(5, 3, combinations(range(5), 3))
        rep = hyper_general(h)
        assert len(rep.labeling.labels) == 15
        r = induce_hyper(rep.labeling, 3)
        assert len(r.core_hypergraph.edges) == 10
        assert r.isolate_count == 10

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            hyper_general(hypergraph(5, 3, [(0, 1, 2)]))

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

    def test_determinism_across_jobs(self):
        assert search_hyper_sd(CHAIN_3, jobs=4) == search_hyper_sd(CHAIN_3)
        assert search_hyper_sd(TWO_EDGE_3, jobs=2) == search_hyper_sd(TWO_EDGE_3)

    def test_infeasible_below_floor_cap(self):
        cert = search_hyper_sd(SINGLE_EDGE_3, max_range=4)
        assert cert.value is None and cert.witness is None
        assert cert.exhausted_below

    def test_budget_abort_is_exact_and_deterministic(self):
        with pytest.raises(BudgetExceededError) as one:
            search_hyper_sd(CHAIN_3, budget=3)
        with pytest.raises(BudgetExceededError) as four:
            search_hyper_sd(CHAIN_3, budget=3, jobs=4)
        assert one.value.candidates_examined == 3
        assert four.value.candidates_examined == 3

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

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search_hyper_sd(hypergraph(4, 3, [(0, 1, 2)]))
        with pytest.raises(ValueError):
            search_hyper_sd(hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]))
        with pytest.raises(ValueError):
            search_hyper_sd(SINGLE_EDGE_3, max_range=17)
        with pytest.raises(ValueError):
            search_hyper_sd(SINGLE_EDGE_3, jobs=0)
