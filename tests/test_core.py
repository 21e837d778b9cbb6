"""Core module tests: induction, validity, isomorphism, bounds, serialization."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_edges, naive_induce, naive_isomorphic
from sumdiam import core
from sumdiam.core import (
    Domain,
    SimpleGraph,
    find_isomorphism,
    graph,
    graph_from_json,
    graph_to_json,
    identify_structure,
    induce,
    induce_if_valid,
    is_valid_labeling,
    isd_lower_bound,
    isomorphic,
    label_range,
    labeling,
    labels_to_text,
    optimality_witness_check,
    parse_labels,
    sd_lower_bound,
    structure_matches,
)
from sumdiam.families import FamilyKind, FamilySpec, generate


def path_graph(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def matching_graph(p):
    return graph(2 * p, [(2 * i, 2 * i + 1) for i in range(p)])


label_sets = st.lists(
    st.integers(min_value=-40, max_value=40), min_size=1, max_size=9, unique=True
)


class TestLabeling:
    def test_normalizes_sorted(self):
        lab = labeling([4, 1, 3])
        assert lab.labels == (1, 3, 4)
        assert lab.domain is Domain.POSITIVE

    def test_domain_inference_integral(self):
        assert labeling([-1, 2]).domain is Domain.INTEGRAL
        assert labeling([0, 2]).domain is Domain.INTEGRAL

    def test_explicit_integral_with_positive_labels(self):
        assert labeling([1, 2], Domain.INTEGRAL).domain is Domain.INTEGRAL

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            labeling([1, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            labeling([])

    def test_rejects_positive_domain_violation(self):
        with pytest.raises(ValueError):
            labeling([0, 1], Domain.POSITIVE)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            labeling([1.5, 2])
        with pytest.raises(ValueError):
            labeling([True, 2])

    def test_64_bit_boundary(self):
        assert labeling([2**63 - 1]).labels == (2**63 - 1,)
        with pytest.raises(ValueError):
            labeling([2**63])
        with pytest.raises(ValueError):
            labeling([-(2**63) - 1], Domain.INTEGRAL)

    def test_label_range(self):
        assert label_range(labeling([3, 10])) == 7
        assert label_range(labeling([-5, 0, 2])) == 7
        assert label_range(labeling([9])) == 0


class TestSimpleGraph:
    def test_edge_normalization(self):
        g = graph(3, [(2, 0), (1, 2)])
        assert g.edge_list() == ((0, 2), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph(2, [(0, 2)])

    def test_degrees_and_isolates(self):
        g = graph(4, [(0, 1)])
        assert g.degrees() == (1, 1, 0, 0)
        assert g.isolated_vertices() == (2, 3)


class TestInduce:
    def test_documented_example(self):
        # {1,2,3,4}: 1+2=3 and 1+3=4 give edges; 4 is isolated
        res = induce(labeling([1, 2, 3, 4]))
        assert sorted(res.graph.edges) == [(0, 1), (0, 2)]
        assert res.isolated_labels == (4,)
        assert res.isolate_count == 1
        assert res.core_label_of == (1, 2, 3)
        assert sorted(res.core_graph.edges) == [(0, 1), (0, 2)]

    def test_zero_is_adjacent_to_everything(self):
        res = induce(labeling([-2, 0, 5]))
        assert sorted(res.graph.edges) == [(0, 1), (1, 2)]
        assert res.isolate_count == 0

    def test_self_sum_never_creates_edge(self):
        # 2+2=4 must not join 2 to anything; 1+3=4 joins 1 and 3
        res = induce(labeling([2, 4]))
        assert not res.graph.edges
        assert res.isolated_labels == (2, 4)

    def test_singleton(self):
        res = induce(labeling([7]))
        assert res.graph.n == 1
        assert res.core_graph.n == 0
        assert res.isolated_labels == (7,)

    def test_vertex_count_matches_label_count(self):
        res = induce(labeling([1, 2, 3, 5, 8, 13]))
        assert res.graph.n == 6
        assert res.label_of == (1, 2, 3, 5, 8, 13)

    @settings(max_examples=300, deadline=None)
    @given(label_sets)
    def test_matches_naive_oracle(self, values):
        res = induce(labeling(values))
        edges, isolated = naive_induce(values)
        assert frozenset(res.graph.edges) == edges
        assert res.isolated_labels == tuple(
            res.label_of[i] for i in isolated
        )

    @settings(max_examples=200, deadline=None)
    @given(label_sets)
    def test_big_path_agrees_with_small_path(self, values):
        values = tuple(sorted(values))
        assert sorted(core._induce_pairs_big(values)) == sorted(
            core._induce_pairs_small(values)
        )

    def test_big_path_used_for_large_inputs(self):
        # consecutive run [n, 2n+1]: i~j iff i+j <= 2n+1
        values = tuple(range(2000, 4002))
        pairs = core._induce_pairs_big(values)
        expected = sum(1 for i, a in enumerate(values) for b in values[i + 1 :] if a + b <= 4001)
        assert len(pairs) == expected


class TestStructurePredicates:
    def test_path(self):
        assert structure_matches(path_graph(5), "path", 5)
        assert not structure_matches(cycle_graph(5), "path", 5)
        assert structure_matches(graph(1, []), "path", 1)
        # disjoint P2+P3 has the right degrees but is disconnected
        g = graph(5, [(0, 1), (2, 3), (3, 4)])
        assert not structure_matches(g, "path", 5)

    def test_cycle(self):
        assert structure_matches(cycle_graph(6), "cycle", 6)
        two_triangles = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not structure_matches(two_triangles, "cycle", 6)

    def test_complete(self):
        assert structure_matches(complete_graph(4), "complete", 4)
        assert not structure_matches(cycle_graph(4), "complete", 4)

    def test_matching(self):
        assert structure_matches(matching_graph(3), "matching", 3)
        assert not structure_matches(path_graph(6), "matching", 3)

    def test_star(self):
        star = graph(4, [(0, 1), (0, 2), (0, 3)])
        assert structure_matches(star, "star", 3)
        assert not structure_matches(path_graph(4), "star", 3)

    def test_balanced_bipartite(self):
        k33 = graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
        assert structure_matches(k33, "complete_bipartite_balanced", 3)
        assert not structure_matches(cycle_graph(6), "complete_bipartite_balanced", 3)

    def test_empty(self):
        assert structure_matches(graph(3, []), "empty", 3)
        assert not structure_matches(graph(3, [(0, 1)]), "empty", 3)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            structure_matches(path_graph(2), "wheel", 2)

    def test_identify_canonical_overlaps(self):
        assert identify_structure(graph(2, [(0, 1)])) == ("complete", 2)
        assert identify_structure(complete_graph(3)) == ("complete", 3)
        assert identify_structure(cycle_graph(3)) == ("complete", 3)
        assert identify_structure(graph(3, [(0, 1), (0, 2)])) == ("path", 3)
        assert identify_structure(cycle_graph(4)) == ("cycle", 4)
        k22 = graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert identify_structure(k22) == ("cycle", 4)
        assert identify_structure(matching_graph(2)) == ("matching", 2)
        assert identify_structure(graph(5, [(0, i) for i in range(1, 5)])) == ("star", 4)
        paw = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert identify_structure(paw) is None


small_graphs = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.frozensets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=8,
        ),
    )
)


# every member of every family on at most 30 vertices
FAMILY_MEMBERS = [
    FamilySpec(kind, n)
    for kind in FamilyKind
    for n in range(3 if kind is FamilyKind.CYCLE else 1, 31)
    if generate(FamilySpec(kind, n)).n <= 30
]


def carries_edges(mapping, g, h):
    """Is mapping a bijection of vertices that carries every g edge onto an h edge?"""
    if mapping is None or sorted(mapping) != list(range(g.n)):
        return False
    if sorted(mapping.values()) != list(range(h.n)):
        return False
    return {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges} == h.edges


class TestIsomorphism:
    def test_path_relabelings(self):
        g = path_graph(4)
        h = graph(4, [(2, 0), (0, 3), (3, 1)])
        assert isomorphic(g, h)
        assert not isomorphic(g, graph(4, [(0, 1), (1, 2), (0, 2)]))

    def test_find_isomorphism_returns_actual_map(self):
        g = cycle_graph(5)
        h = graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        hedges = canonical_edges(h.edges)
        assert {
            tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges
        } == hedges

    def test_none_when_not_isomorphic(self):
        assert find_isomorphism(path_graph(4), matching_graph(2)) is None

    def test_cap_raises(self):
        # two 25-vertex graphs that no family predicate identifies
        edges = [(i, i + 1) for i in range(24)] + [(0, 2)]
        g = graph(25, edges)
        with pytest.raises(ValueError):
            find_isomorphism(g, g)

    def test_family_fast_path_beats_cap(self):
        n = 10_000
        g = cycle_graph(n)
        h = graph(n, [((i * 3) % n, ((i + 1) * 3) % n) for i in range(n)])
        assert isomorphic(g, h)
        assert not isomorphic(g, path_graph(n))
        assert carries_edges(find_isomorphism(g, h), g, h)
        two_halves = graph(n, [(i, (i + 1) % 5000) for i in range(5000)]
                           + [(5000 + i, 5000 + (i + 1) % 5000) for i in range(5000)])
        assert find_isomorphism(g, two_halves) is None

    @pytest.mark.parametrize("spec", FAMILY_MEMBERS, ids=FamilySpec.text)
    def test_family_members_map_without_backtracking(self, spec):
        # cap=0 refuses the backtracking search, so the map comes from the
        # family fast path
        g = generate(spec)
        rng = random.Random(f"{spec.kind.value}:{spec.n}")
        for _ in range(3):
            perm = rng.sample(range(g.n), g.n)
            h = graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert carries_edges(find_isomorphism(g, h, cap=0), g, h)
            assert carries_edges(find_isomorphism(h, g, cap=0), h, g)

    def test_different_families_have_no_map(self):
        # members that identify differently are not isomorphic (P3 is also
        # the star on two leaves, and identifies as the path)
        by_size = {}
        for spec in FAMILY_MEMBERS:
            by_size.setdefault(generate(spec).n, []).append(generate(spec))
        for members in by_size.values():
            for g in members:
                for h in members:
                    if identify_structure(g) != identify_structure(h):
                        assert find_isomorphism(g, h, cap=0) is None
        # same size, edge count and degrees as a family member, but no member
        two_triangles = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        prism = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])
        k33 = generate(FamilySpec(FamilyKind.COMPLETE_BIPARTITE_BALANCED, 3))
        assert find_isomorphism(cycle_graph(6), two_triangles, cap=0) is None
        assert find_isomorphism(two_triangles, cycle_graph(6), cap=0) is None
        assert find_isomorphism(k33, prism, cap=0) is None

    @settings(max_examples=150, deadline=None)
    @given(small_graphs, st.randoms(use_true_random=False))
    def test_relabeled_graphs_always_isomorphic(self, data, rng):
        n, edges = data
        g = graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert isomorphic(g, h)
        if g.edges:
            mapping = find_isomorphism(g, h)
            assert mapping is not None

    @settings(max_examples=150, deadline=None)
    @given(small_graphs, small_graphs)
    def test_matches_permutation_oracle(self, a, b):
        g = graph(*a)
        h = graph(*b)
        assert isomorphic(g, h) == naive_isomorphic(
            g.n, g.edges, h.n, h.edges
        )


class TestValidity:
    def test_documented_example(self):
        assert is_valid_labeling(labeling([1, 2, 3, 4]), path_graph(3), exact_isolates=1)

    def test_exact_isolates_mismatch(self):
        assert not is_valid_labeling(
            labeling([1, 2, 3, 4]), path_graph(3), exact_isolates=2
        )

    def test_isolates_ignored_when_not_requested(self):
        assert is_valid_labeling(labeling([1, 2, 3, 4]), path_graph(3))

    def test_wrong_core(self):
        assert not is_valid_labeling(labeling([1, 2, 3, 4]), matching_graph(2))

    def test_rejects_target_with_isolated_vertices(self):
        with pytest.raises(ValueError):
            is_valid_labeling(labeling([1, 2, 3]), graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            is_valid_labeling(labeling([1]), graph(0, []))

    def test_integral_example(self):
        # {-2,-1,1,2} induces exactly a perfect matching on two edges
        assert is_valid_labeling(
            labeling([-2, -1, 1, 2]), matching_graph(2), exact_isolates=0
        )

    def test_induce_if_valid_hands_back_the_induction(self):
        # the path 0-1-2 is induced with 1 in the middle (2+1 and 1+3 are labels)
        lab = labeling([1, 2, 3, 4])
        assert induce_if_valid(lab, path_graph(3), exact_isolates=1) == (2, 1, 3)
        assert induce_if_valid(lab, path_graph(3)) == (2, 1, 3)
        assert induce_if_valid(lab, path_graph(3), exact_isolates=2) is None
        assert induce_if_valid(lab, matching_graph(2)) is None


class TestBounds:
    def test_sd_lower_bound_values(self):
        assert sd_lower_bound(path_graph(9)) == 15
        assert sd_lower_bound(cycle_graph(5)) == 8
        assert sd_lower_bound(complete_graph(4)) == 6
        assert sd_lower_bound(matching_graph(3)) == 10

    def test_isd_lower_bound_values(self):
        assert isd_lower_bound(path_graph(9)) == 13
        assert isd_lower_bound(cycle_graph(5)) == 5
        assert isd_lower_bound(complete_graph(4)) == 2
        assert isd_lower_bound(matching_graph(3)) == 8

    def test_bounds_reject_isolates(self):
        with pytest.raises(ValueError):
            sd_lower_bound(graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            isd_lower_bound(graph(1, []))


class TestOptimalityWitness:
    def test_integral_cycle_example(self):
        report = optimality_witness_check(labeling([-3, -2, -1, 1, 2]), cycle_graph(5))
        assert report.min_label_is_vertex_label
        assert not report.equality_case_applies
        assert report.interval_contained is None

    def test_equality_case_with_interval(self):
        # 2K2 at range 6 meets the degree bound; [3,6] lies inside the core
        report = optimality_witness_check(labeling([3, 4, 5, 6, 9]), matching_graph(2))
        assert report.min_label_is_vertex_label
        assert report.equality_case_applies
        assert report.interval_contained is True

    def test_invalid_labeling_raises(self):
        with pytest.raises(ValueError):
            optimality_witness_check(labeling([1, 2, 3]), matching_graph(2))


class TestSerialization:
    def test_parse_labels_comma(self):
        assert parse_labels("3,1,-2") == (3, 1, -2)
        assert parse_labels(" 1, 2 ,3 ") == (1, 2, 3)

    def test_parse_labels_json(self):
        assert parse_labels("[1, 2, 3]") == (1, 2, 3)

    def test_parse_labels_errors(self):
        with pytest.raises(ValueError):
            parse_labels("")
        with pytest.raises(ValueError):
            parse_labels("[1, 2.5]")
        with pytest.raises(ValueError):
            parse_labels("a,b")

    def test_labels_to_text_round_trip(self):
        labels = (-3, -1, 2, 7)
        assert parse_labels(labels_to_text(labels)) == labels

    def test_graph_json_round_trip(self):
        g = graph(4, [(0, 1), (2, 3), (1, 2)])
        assert graph_from_json(graph_to_json(g)) == g

    def test_graph_json_shape_error(self):
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": 3}')

    def test_deep_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_labels("[" * 200_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            graph_from_json("[" * 200_000)

    @settings(max_examples=100, deadline=None)
    @given(label_sets)
    def test_text_round_trip_random(self, values):
        text = labels_to_text(values)
        assert parse_labels(text) == tuple(values)
