"""Core module tests: induction, validity, isomorphism, bounds, serialization."""
from __future__ import annotations

import random
import re
from enum import IntEnum
from itertools import combinations

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


# (kind, first parameter, member with parameter p as (vertex count, edges)),
# in canonical identification order; the members are written here, apart
# from families.generate
ORACLE_MEMBERS = (
    ("empty", 1, lambda p: (p, [])),
    ("complete", 1, lambda p: (p, list(combinations(range(p), 2)))),
    ("cycle", 3, lambda p: (p, [(i, (i + 1) % p) for i in range(p)])),
    ("path", 1, lambda p: (p, [(i, i + 1) for i in range(p - 1)])),
    ("matching", 1, lambda p: (2 * p, [(i, p + i) for i in range(p)])),
    ("star", 1, lambda p: (p + 1, [(p, i) for i in range(p)])),
    ("complete_bipartite_balanced", 1,
     lambda p: (2 * p, [(i, j) for i in range(p) for j in range(p, 2 * p)])),
)


def oracle_identify(n, edges):
    """First (kind, p) in canonical order whose member is isomorphic to the graph."""
    for kind, first, member in ORACLE_MEMBERS:
        for p in range(first, n + 1):
            vertices, member_edges = member(p)
            if vertices == n and naive_isomorphic(n, edges, vertices, member_edges):
                return (kind, p)
    return None


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

    # the messages a caller sees; the first offender in sorted order is named
    @pytest.mark.parametrize(
        ("values", "domain", "message"),
        [
            ([True, 2], None, "label True is not an integer"),
            ([1.5, 2], None, "label 1.5 is not an integer"),
            ([2**63, 1], None, "label 9223372036854775808 exceeds the 64-bit signed range"),
            (
                [-(2**63), 1],
                Domain.INTEGRAL,
                "label -9223372036854775808 exceeds the 64-bit signed range",
            ),
            (
                [2.5, True, -(2**63)],
                Domain.INTEGRAL,
                "label -9223372036854775808 exceeds the 64-bit signed range",
            ),
            ([2**63, 1.5], None, "label 1.5 is not an integer"),
        ],
        ids=["bool", "float", "above", "below", "range-first", "type-first"],
    )
    def test_error_messages(self, values, domain, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            labeling(values, domain)

    def test_int_enum_members_are_labels(self):
        class Size(IntEnum):
            SMALL = 2
            LARGE = 2**63

        lab = labeling([Size.SMALL, 5])
        assert lab.labels == (2, 5) and lab.domain is Domain.POSITIVE
        assert type(lab.labels[0]) is Size
        with pytest.raises(ValueError, match="exceeds the 64-bit signed range$"):
            labeling([Size.LARGE, 1])

    @pytest.mark.parametrize(
        "values",
        [[1, 2, 3, 4], [5, 13, 8, 1000, 2], [-7, -1, 0, 3, 64], [-300, -9, -8, -1], [9]],
        ids=["positive", "positive-sparse", "mixed", "all-negative", "single"],
    )
    def test_indicator_equals_per_label_or(self, values):
        lab = labeling(values)
        low = lab.labels[0]
        expected = 0
        for v in lab.labels:
            expected |= 1 << (v - low)
        assert lab.indicator() == expected
        assert lab.indicator() is lab.indicator()  # built once, then kept
        assert lab == labeling(values)  # the kept indicator is not a field

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

    @pytest.mark.parametrize("edge, message", [
        ((0, 0), "^self-loop at vertex 0$"),
        ((0, 5), r"^edge \(0,5\) out of range for n=3$"),
    ])
    def test_edge_error_messages(self, edge, message):
        with pytest.raises(ValueError, match=message):
            graph(3, [edge])

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
    def test_bitset_path_agrees_with_pairwise_path(self, values):
        lab = labeling(values)
        values = lab.labels
        masks = core._hit_masks(values, lab.indicator())
        assert sorted(core._masked_pairs(values, masks)) == sorted(
            core._pairwise_pairs(values)
        )

    def test_dense_runs_induce_by_bitset(self, monkeypatch):
        # [n, 2n+1] joins only n and n+1; around zero i~j iff |i+j| <= 300
        monkeypatch.setattr(core, "_pairwise_pairs", None)
        for values in (tuple(range(2000, 4002)), tuple(range(-300, 301))):
            lo, hi = values[0], values[-1]
            pairs = core._induced_pairs(labeling(values))
            expected = sum(
                1 for i, a in enumerate(values) for b in values[i + 1 :] if lo <= a + b <= hi
            )
            assert len(pairs) == len(set(pairs)) == expected


def _span_rule_sets(rng):
    """Seeded label sets from both sides of core's span rule."""
    bound = core._BITSET_SPAN_PER_LABEL
    sets = [(5,), (-3,), (0,), (2, 7), (-4, 4), (0, 9), (-6, -3), (1, 10**6)]
    for _ in range(40):
        k = rng.randint(3, 120)
        start = rng.randint(-2 * k, 2 * k)
        sets.append(tuple(range(start, start + k)))  # a dense run
        # an Erdos-Turan Sidon set, scaled and shifted
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        scale = rng.choice([1, 3, 50, 4000])
        shift = rng.randint(-3 * p * p * scale, 3 * p * p * scale)
        sets.append(
            tuple(sorted(shift + scale * (2 * p * i + (i * i) % p) for i in range(1, p + 1)))
        )
        # random labels with zero, negatives and a chosen span per label
        span = k * rng.choice([1, 3, 40, bound // 2, 2 * bound, 50 * bound])
        low = rng.randint(-span, span // 2)
        values = {low, low + span, 0} | set(rng.sample(range(low, low + span + 1), k))
        sets.append(tuple(sorted(values)))
        # the span exactly at the bound, and one past it
        for extra in (0, 1):
            low = rng.randint(-bound * k, bound * k)
            inner = rng.sample(range(low + 1, low + bound * k + extra), k - 2)
            sets.append(tuple(sorted({low, low + bound * k + extra, *inner})))
    return sets


def _recorder(calls, tag, real):
    def record(*args):
        calls.append(tag)
        return real(*args)

    return record


class TestSpanRule:
    """core._induced_pairs picks the bitset or the pairwise path by label span."""

    def test_agrees_with_oracle_on_both_sides(self):
        bound = core._BITSET_SPAN_PER_LABEL
        sides = {True: 0, False: 0}
        at_bound = 0
        for values in _span_rule_sets(random.Random(20261019)):
            span = values[-1] - values[0]
            sides[span <= bound * len(values)] += 1
            at_bound += span == bound * len(values)
            edges, _ = naive_induce(values)
            lab = labeling(values)
            pairs = core._induced_pairs(lab)
            assert len(pairs) == len(set(pairs)) and set(pairs) == edges, values
            assert core._induced_pairs(lab, len(edges)) == pairs
            assert core._induced_pairs(lab, len(edges) + 1) is None
        assert sides[True] > 100 and sides[False] > 50 and at_bound >= 30

    def test_bound_itself_takes_the_bitset(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_hit_masks", _recorder(calls, "bitset", core._hit_masks))
        monkeypatch.setattr(
            core, "_pairwise_pairs", _recorder(calls, "pairwise", core._pairwise_pairs)
        )
        bound = core._BITSET_SPAN_PER_LABEL
        core._induced_pairs(labeling((1, 2, 1 + 3 * bound)))
        core._induced_pairs(labeling((1, 2, 2 + 3 * bound)))
        assert calls == ["bitset", "pairwise"]

    def test_count_comes_before_listing(self, monkeypatch):
        listed = []
        monkeypatch.setattr(core, "_masked_pairs", _recorder(listed, "list", core._masked_pairs))
        lab = labeling([1, 2, 3, 4])  # the path 2-1-3 plus the isolate 4
        assert induce_if_valid(lab, complete_graph(3)) is None
        assert induce_if_valid(lab, path_graph(2)) is None
        assert listed == []
        assert induce_if_valid(lab, path_graph(3)) == (2, 1, 3)
        assert listed == ["list"]

    def test_kept_count_can_only_reject(self, monkeypatch):
        # a search leaf keeps the kernel's pair count: a count unlike the
        # edge count rejects before any pair is counted or any label is
        # listed, and an equal one is counted again, so even a wrong kept
        # count accepts nothing
        counted = []
        monkeypatch.setattr(core, "_pair_count", _recorder(counted, "count", core._pair_count))
        labels = (1, 2, 3, 4)  # the path 2-1-3 plus the isolate 4
        indicator = labeling(labels).indicator()

        def leaf(pair_count):
            return core._labeling_unchecked(1, Domain.POSITIVE, indicator, pair_count)

        for target in (complete_graph(3), path_graph(2)):
            lab = leaf(2)
            assert induce_if_valid(lab, target) is None
            assert "labels" not in lab.__dict__
        assert counted == []
        # three kept pairs, as many as the triangle has edges, but two induced
        assert induce_if_valid(leaf(3), complete_graph(3)) is None
        assert counted == ["count"]
        lab = leaf(2)
        assert induce_if_valid(lab, path_graph(3)) == (2, 1, 3)
        assert counted == ["count", "count"]
        assert lab.__dict__["labels"] == labels


class TestKernelLeaf:
    """core._labeling_unchecked: a leaf lists its labels from its indicator."""

    # (low, domain) of positive, mixed and all-negative windows [low, low + 12]
    WINDOWS = [(1, Domain.POSITIVE), (5, Domain.POSITIVE), (-6, Domain.INTEGRAL),
               (-20, Domain.INTEGRAL)]
    WIDTH = 12

    @classmethod
    def _masks(cls, seed, count):
        """Seeded window masks: low always chosen, the rest at random."""
        rng = random.Random(seed)
        return [1 | rng.getrandbits(cls.WIDTH) << 1 for _ in range(count)]

    @pytest.mark.parametrize(
        ("low", "domain"), WINDOWS, ids=["positive-from-1", "positive", "mixed", "negative"]
    )
    def test_listed_labels_are_the_mask_bits(self, low, domain):
        for mask in self._masks(low, 200):
            lab = core._labeling_unchecked(low, domain, mask, 0)
            assert "labels" not in lab.__dict__
            want = tuple(low + i for i in range(self.WIDTH + 1) if mask >> i & 1)
            assert lab.labels == want
            assert lab.__dict__["labels"] is lab.labels  # listed once, then kept
            assert lab.indicator() == mask == labeling(want, domain).indicator()

    def test_same_value_as_a_checked_labeling(self):
        # ==, hash, repr and len each read the labels; each runs on a fresh
        # leaf, so each lists them itself
        for low, domain in self.WINDOWS:
            for mask in self._masks(20261019 + low, 50):
                checked = labeling(
                    [low + i for i in range(self.WIDTH + 1) if mask >> i & 1], domain
                )

                def leaf():
                    return core._labeling_unchecked(low, domain, mask, 0)

                assert leaf() == checked and checked == leaf()
                assert hash(leaf()) == hash(checked)
                assert repr(leaf()) == repr(checked)
                assert len(leaf()) == len(checked)
                if domain is Domain.POSITIVE:
                    assert leaf() != labeling(checked.labels, Domain.INTEGRAL)

    def test_only_labels_are_listed_on_demand(self):
        lab = core._labeling_unchecked(2, Domain.POSITIVE, 0b101, 0)
        with pytest.raises(AttributeError):
            lab.vertex_count
        assert not hasattr(labeling((1, 2)), "vertex_count")
        assert lab.labels == (2, 4)


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

    def test_zero_vertex_graph_is_no_family(self):
        assert identify_structure(graph(0, [])) is None

    def test_identify_agrees_with_oracle_on_every_small_graph(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
                g = graph(n, edges)
                assert identify_structure(g) == oracle_identify(n, edges), (n, edges)
                checked += 1
        assert checked == 1099


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

    def test_zero_vertex_graphs_map_by_the_empty_map(self):
        assert find_isomorphism(graph(0, []), graph(0, [])) == {}

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

    def test_degree_twins_match_permutation_oracle(self, monkeypatch):
        # a graph and a double-edge swap of it share their degrees, so only
        # color refinement or the backtracking can tell them apart; record
        # which refinements end early on unequal color counts
        refined = []
        real = core._joint_colors

        def joint_colors(g, h):
            colors = real(g, h)
            refined.append(colors is None)
            return colors

        monkeypatch.setattr(core, "_joint_colors", joint_colors)
        rng = random.Random(20)
        swapped = found = 0
        for _ in range(150):
            n = rng.choice((5, 6, 6, 7, 7, 8))
            pairs = list(combinations(range(n), 2))
            g = graph(n, rng.sample(pairs, rng.randint(n - 1, len(pairs) - n + 1)))
            edges = set(g.edges)
            for _ in range(20):
                (a, b), (c, d) = rng.sample(sorted(edges), 2)
                if rng.random() < 0.5:
                    c, d = d, c
                new = {tuple(sorted(e)) for e in ((a, c), (b, d))}
                if len({a, b, c, d}) == 4 and not new & edges:
                    edges = edges - {(a, b), tuple(sorted((c, d)))} | new
                    break
            else:
                continue  # no swap applies
            h = graph(n, edges)
            assert sorted(h.degrees()) == sorted(g.degrees())
            swapped += 1
            mapping = find_isomorphism(g, h)
            assert (mapping is not None) == naive_isomorphic(n, g.edges, n, h.edges)
            if mapping is not None:
                found += 1
                assert carries_edges(mapping, g, h)
        assert swapped >= 100 and found >= 10
        assert refined.count(True) >= 40 and refined.count(False) >= 20


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

    def test_same_counts_and_degrees_reach_the_isomorphism_check(self, monkeypatch):
        # two triangles plus the isolates 16, 17, 18: C6's vertex count, edge
        # count and degree sequence, so only the full check tells them apart
        lab = labeling([1, 3, 6, 7, 10, 11, 14, 16, 18])
        two_triangles = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        checked = []
        real = core.find_isomorphism

        def counting(g, h, cap=core.ISO_CAP_DEFAULT):
            checked.append(g.n)
            return real(g, h, cap)

        monkeypatch.setattr(core, "find_isomorphism", counting)
        assert not is_valid_labeling(lab, cycle_graph(6))
        assert is_valid_labeling(lab, two_triangles)
        assert is_valid_labeling(lab, two_triangles, exact_isolates=3)
        assert checked == [6, 6, 6]
        assert induce_if_valid(lab, two_triangles, 2) is None
        assert not is_valid_labeling(lab, path_graph(6))
        assert not is_valid_labeling(lab, complete_graph(3))
        assert checked == [6, 6, 6]

    def test_agrees_with_oracle_on_seeded_label_sets(self):
        rng = random.Random(20261018)
        sets = swapped_targets = valid = 0
        while sets < 2000:
            values = rng.sample(range(-15, 31), rng.randint(3, 10))
            edges, isolated = naive_induce(values)
            core_ids = sorted({v for e in edges for v in e})
            n = len(core_ids)
            if not 2 <= n <= 7:
                continue
            sets += 1
            labels = sorted(values)
            remap = {old: new for new, old in enumerate(core_ids)}
            core_edges = [(remap[u], remap[v]) for u, v in edges]
            perm = list(range(n))
            rng.shuffle(perm)
            own = [(perm[u], perm[v]) for u, v in core_edges]
            # double edge swaps keep every degree; keep the result if it is
            # no longer isomorphic to the core
            swapped = list(own)
            for _ in range(20):
                if len(swapped) < 2:
                    break
                (a, b), (c, d) = rng.sample(swapped, 2)
                present = {frozenset(e) for e in swapped}
                if len({a, b, c, d}) < 4 or not present.isdisjoint(
                    (frozenset((a, d)), frozenset((c, b)))
                ):
                    continue
                swapped.remove((a, b))
                swapped.remove((c, d))
                swapped += [(a, d), (c, b)]
            targets = [own]
            if not naive_isomorphic(n, swapped, n, core_edges):
                targets.append(swapped)
                swapped_targets += 1
            m = rng.randint(2, 7)
            rand = {(i, (i + 1) % m) for i in range(0, m - 1, 2)} | {(m - 2, m - 1)}
            rand |= {tuple(rng.sample(range(m), 2)) for _ in range(rng.randint(0, 6))}
            targets.append(rand)
            lab = labeling(values)
            for target in targets:
                g = graph(max(v for e in target for v in e) + 1, target)
                iso = naive_isomorphic(n, core_edges, g.n, g.edges)
                for exact in (None, len(isolated), len(isolated) + 1):
                    got = induce_if_valid(lab, g, exact)
                    assert (got is not None) == (iso and exact != len(isolated) + 1)
                    if got is not None:
                        valid += 1
                        assert len(set(got)) == g.n
                        assert all(got[u] + got[v] in labels for u, v in g.edges)
        assert swapped_targets > 100 and valid > 4000


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

    # int() reads each of these as an integer; a label list does not
    @pytest.mark.parametrize("item", ["1_0", "+4", "\uff11\uff10", "0x3", "", "-", "4 2"])
    def test_parse_labels_comma_items_are_plain_integers(self, item):
        message = f"^label {re.escape(repr(item))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            parse_labels(f"1,{item},3")

    def test_labels_to_text_round_trip(self):
        labels = (-3, -1, 2, 7)
        assert parse_labels(labels_to_text(labels)) == labels

    def test_graph_json_round_trip(self):
        g = graph(4, [(0, 1), (2, 3), (1, 2)])
        assert graph_from_json(graph_to_json(g)) == g

    def test_graph_json_shape_error(self):
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": 3}')

    @pytest.mark.parametrize("text", [
        '{"n": 2.9, "edges": [[0, 1]]}',
        '{"n": 2, "edges": [[0, 1.7]]}',
        '{"n": "3", "edges": []}',
        '{"n": 2, "edges": [["0", "1"]]}',
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[false, true]]}',
    ], ids=["float-n", "float-id", "string-n", "string-ids", "bool-n", "bool-ids"])
    def test_graph_json_takes_integers_only(self, text):
        with pytest.raises(ValueError, match="must be an integer, not "):
            graph_from_json(text)

    @pytest.mark.parametrize("edges, message", [
        ("5", "^edges must be a list of vertex lists$"),
        ("[5]", "^edges must be a list of vertex lists$"),
        ("[[0]]", r"^edge \[0\] needs exactly 2 distinct vertices$"),
        ("[[0, 1, 2]]", r"^edge \[0, 1, 2\] needs exactly 2 distinct vertices$"),
        # the length is checked before any vertex id is read
        ('[["0"]]', r"^edge \['0'\] needs exactly 2 distinct vertices$"),
    ], ids=["int", "list-of-int", "one-id", "three-ids", "one-string-id"])
    def test_graph_json_edge_shapes(self, edges, message):
        with pytest.raises(ValueError, match=message):
            graph_from_json(f'{{"n": 3, "edges": {edges}}}')

    def test_graph_json_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_BUILD_SIZE", 3)
        assert graph_from_json('{"n": 3, "edges": [[0, 1]]}').n == 3
        with pytest.raises(ValueError, match="^4 vertices exceed the cap of 3$"):
            graph_from_json('{"n": 4, "edges": [[0, 1]]}')

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
