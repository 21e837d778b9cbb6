"""Construction and combinator tests with brute-force cross-checks."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_bk_oracle, is_sidon_oracle, naive_induce, power_coefficients
from sumdiam import constructions, core
from sumdiam.constructions import (
    ConstructionError,
    add_isolated,
    add_vertex,
    bk_set,
    disjoint_union_graph,
    disjoint_union_scaled,
    disjoint_union_translated,
    induces_as_labeled,
    is_bk_set,
    is_sidon_set,
    ispum_cycle_odd,
    ispum_matching,
    join,
    join_graph,
    modify,
    sd_general,
    sd_path,
    sidon_set,
    spum_cycle4,
    spum_matching,
    spum_path_even,
    translate,
)
from sumdiam.core import (
    Domain,
    graph,
    induce,
    is_valid_labeling,
    label_range,
    labeling,
)
from sumdiam.families import FamilyKind, FamilySpec, generate, identify, recognize
from sumdiam.hypergraph import hyper_general, hypergraph

K2 = graph(2, [(0, 1)])
P3 = generate(FamilySpec(FamilyKind.PATH, 3))
P4 = generate(FamilySpec(FamilyKind.PATH, 4))
C4 = generate(FamilySpec(FamilyKind.CYCLE, 4))
LAB_K2 = labeling([1, 2, 3])
LAB_P3 = labeling([1, 2, 3, 4])


def oracle_core(labels):
    """(degree multiset, core size, isolate count, connected) via oracle."""
    edges, isolated = naive_induce(labels)
    touched = sorted({v for e in edges for v in e})
    degree = {v: 0 for v in touched}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    adjacency = {v: set() for v in touched}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    connected = True
    if touched:
        seen = {touched[0]}
        queue = [touched[0]]
        while queue:
            for w in adjacency[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        connected = len(seen) == len(touched)
    return sorted(degree.values()), len(touched), len(isolated), connected


def assert_oracle_path(labels, n):
    degrees, core, isolates, connected = oracle_core(labels)
    assert core == n and connected
    assert degrees == [1, 1] + [2] * (n - 2)
    return isolates


def assert_oracle_cycle(labels, n):
    degrees, core, isolates, connected = oracle_core(labels)
    assert core == n and connected
    assert degrees == [2] * n
    return isolates


def assert_oracle_matching(labels, p):
    degrees, core, isolates, _ = oracle_core(labels)
    assert core == 2 * p
    assert degrees == [1] * (2 * p)
    return isolates


class TestSidonSets:
    def test_singleton(self):
        s = sidon_set(1)
        assert len(s.elements) == 1 and s.order_k == 2
        assert is_sidon_oracle(s.elements)

    def test_two_elements_come_from_prime_two_construction(self):
        assert sidon_set(2).elements == (5, 8)

    def test_five_elements_within_stated_interval(self):
        s = sidon_set(5)
        assert len(s.elements) == 5
        assert all(1 <= a <= 2 * 5 * 5 for a in s.elements)
        assert is_sidon_oracle(s.elements)

    def test_sweep_is_ascending_certified_and_bounded(self):
        for n in range(1, 26):
            s = sidon_set(n)
            assert list(s.elements) == sorted(set(s.elements))
            assert len(s.elements) == n
            p = n
            while any(p % f == 0 for f in range(2, p)) or p < 2:
                p += 1
            assert s.elements[-1] <= 2 * p * p
            assert is_sidon_oracle(s.elements)

    def test_rejects_size_zero(self):
        with pytest.raises(ValueError):
            sidon_set(0)

    def test_failed_self_check_raises(self, monkeypatch):
        monkeypatch.setattr(constructions, "is_bk_set", lambda elements, k: False)
        with pytest.raises(ConstructionError):
            sidon_set(5)


class TestBkSets:
    def test_one_two_three_fails_order_three(self):
        assert power_coefficients([1, 2, 3], 3)[6] == 7
        assert not is_bk_set([1, 2, 3], 3)
        assert not is_bk_oracle([1, 2, 3], 3)

    def test_greedy_three_of_order_three(self):
        assert bk_set(3, 3).elements == (1, 2, 4)

    def test_singleton_any_order(self):
        assert bk_set(1, 5).elements == (1,)

    def test_four_of_order_three_certified(self):
        s = bk_set(4, 3)
        assert len(s.elements) == 4
        assert is_bk_oracle(s.elements, 3)

    def test_mian_chowla_prefix(self):
        assert bk_set(12, 2).elements == (
            1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123,
        )

    @pytest.mark.parametrize("k, n", [(2, 24), (3, 11), (4, 9), (5, 8), (6, 7)])
    def test_greedy_matches_brute_force_greedy(self, k, n):
        # smallest next candidate that keeps the prefix B_j for every j <= k,
        # each order tested by the coefficient oracle
        chosen = []
        candidate = 1
        while len(chosen) < n:
            trial = chosen + [candidate]
            if all(is_bk_oracle(trial, j) for j in range(2, k + 1)):
                chosen = trial
            candidate += 1
        for size in range(1, n + 1):
            assert bk_set(size, k).elements == tuple(chosen[:size]), size

    def test_benchmark_sizes_pinned(self):
        # the sets the greedy built when it tested orders 3..k on packed
        # big-integer powers
        assert bk_set(10, 4).elements == (1, 2, 4, 8, 20, 56, 131, 281, 581, 1055)
        assert bk_set(12, 3).elements == (
            1, 2, 4, 8, 16, 32, 64, 128, 201, 347, 511, 785,
        )

    def test_certificate_separates_subsets_not_multisets(self):
        # for k >= 3 the certificate makes every k-subset sum distinct,
        # which hyper_general needs, but not every k-multiset sum
        assert is_bk_set((1, 2, 4, 8), 3) and is_bk_oracle((1, 2, 4, 8), 3)
        assert 1 + 1 + 8 == 2 + 4 + 4
        for k in (3, 4):
            for n in range(3, 13):
                elements = bk_set(n, k).elements
                subsets = [sum(c) for c in itertools.combinations(elements, k)]
                assert len(set(subsets)) == len(subsets), (n, k)
                multisets = [
                    sum(c)
                    for c in itertools.combinations_with_replacement(elements, k)
                ]
                assert len(set(multisets)) < len(multisets), (n, k)

    def test_mian_chowla_hundred_pinned(self):
        elements = bk_set(100, 2).elements
        assert elements[-1] == 27219
        digest = hashlib.sha256(",".join(map(str, elements)).encode()).hexdigest()
        assert digest == "f78bde1ae084b24a966331febd3957ff403941a88b4cf484e217b982985d4250"

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_greedy_outputs_certified_both_ways(self, k):
        for n in (1, 4, 8, 12):
            s = bk_set(n, k)
            assert len(s.elements) == n and s.order_k == k
            assert is_bk_set(s.elements, k)
            assert is_bk_oracle(s.elements, k)

    @given(
        st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_certifier_matches_oracle(self, elements, k):
        assert is_bk_set(elements, k) == is_bk_oracle(elements, k)

    def test_sidon_alias(self):
        assert is_sidon_set([1, 2, 5, 11])
        assert not is_sidon_set([1, 2, 3, 4])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            is_bk_set([0, 2], 2)
        with pytest.raises(ValueError):
            is_bk_set([1, 2], 1)
        with pytest.raises(ValueError):
            bk_set(0, 3)
        with pytest.raises(ValueError):
            bk_set(3, 1)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            is_bk_set(range(1, 65540), 4)

    def test_overflow_guard_decides_huge_orders_without_the_power(self):
        # a base of at least 2 overflows from k = 63 on, so 3**(10**7) is
        # never computed (that took seconds); the boundary stays at 2**63
        for call in (lambda: bk_set(2, 10**7), lambda: is_bk_set((1, 2, 5), 10**7)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^coefficient fields could overflow"):
                call()
            assert time.perf_counter() - start < 0.5
        assert is_bk_set((1, 2), 62)
        with pytest.raises(ValueError, match="^coefficient fields could overflow"):
            is_bk_set((1, 2), 63)

    def test_order_two_input_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="^B_k sets contain distinct positive integers$"):
            is_bk_set([3, 5, 3], 2)
        for bad in ([0, 2], [-4, 1, 9]):
            with pytest.raises(ValueError, match="^B_k sets contain distinct positive integers$"):
                is_bk_set(bad, 2)
        # n**2 >= 2**63 needs three billion elements; a lower limit shows the guard
        monkeypatch.setattr(constructions, "_BK_MAX_COEFFICIENT_BITS", 10)
        assert is_bk_set(sidon_set(31).elements, 2)
        with pytest.raises(ValueError, match="^coefficient fields could overflow"):
            is_bk_set(sidon_set(32).elements, 2)

    def test_order_two_matches_oracle_near_sidon_sets(self):
        # Erdos-Turan sets certify; one added element usually breaks them
        rng = random.Random(7)
        verdicts = set()
        for n in range(2, 60, 3):
            elements = list(sidon_set(n).elements)
            assert is_bk_set(elements, 2) and is_sidon_oracle(elements)
            extra = rng.randint(1, 2 * elements[-1])
            if extra not in elements:
                verdict = is_bk_set(elements + [extra], 2)
                assert verdict == is_sidon_oracle(elements + [extra])
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_certifier_matches_oracle_on_all_small_subsets(self, k):
        # sizes below 4 at k = 5 have n**k < k!
        for size in range(5):
            for elements in itertools.combinations(range(1, 13), size):
                assert is_bk_set(elements, k) == is_bk_oracle(elements, k), elements

    def test_at_most_one_element_is_bk_for_every_order(self):
        # one term's powers all have coefficient 1: no count, no cap
        for k in (2000, 10**9):
            start = time.perf_counter()
            assert is_bk_set((5,), k)
            assert time.perf_counter() - start < 0.5
        assert is_bk_set((), 10**9)
        with pytest.raises(ValueError, match="^B_k sets contain distinct positive integers$"):
            is_bk_set((0,), 10**9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_non_integer_input_is_refused(self, k):
        for bad in ([1.5, 2], [True, 2], [1, 2.0], ["1", 2], [None, 3]):
            with pytest.raises(ValueError, match="^B_k sets contain distinct positive integers$"):
                is_bk_set(bad, k)
        for call in (
            lambda: is_bk_set([1, 2], float(k)),
            lambda: bk_set(2.5, k),
            lambda: bk_set(True, k),
            lambda: bk_set(3, float(k)),
            lambda: sidon_set(2.5),
            lambda: sidon_set(True),
        ):
            with pytest.raises(ValueError):
                call()

    def test_greedy_outputs_pinned_by_digest(self):
        # the sets the greedy built when it tested orders 3..k on packed
        # big-integer powers
        text = ";".join(
            f"{n},{k}:" + ",".join(map(str, bk_set(n, k).elements))
            for k, top in ((3, 20), (4, 13), (5, 9))
            for n in range(1, top + 1)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "9d28e294912bcce6e0af6d5d9bd1f2b2c6be3e09741e5308c0ccad5f835dc529"

    @pytest.mark.parametrize("k, top", [(3, 20), (4, 13), (5, 9)])
    def test_greedy_outputs_pass_the_oracle_at_every_order(self, k, top):
        for n in range(1, top + 1):
            elements = bk_set(n, k).elements
            for j in range(2, k + 1):
                assert is_bk_oracle(elements, j), (n, k, j)

    def test_certificate_does_not_grow_with_the_span(self):
        dilated = [100000 * a + 1 for a in bk_set(8, 3).elements]
        start = time.perf_counter()
        assert is_bk_set(dilated, 3)
        assert time.perf_counter() - start < 0.5
        assert is_bk_set([1, 2**70], 3)
        assert not is_bk_set([1, 2, 2**70, 2**70 + 1], 3)


class TestBenchmarkSets:
    """The sets the constructions benchmark builds, pinned to their values."""

    @pytest.mark.parametrize("n, k, want", [
        (10, 4, (1, 2, 4, 8, 20, 56, 131, 281, 581, 1055)),
        (12, 3, (1, 2, 4, 8, 16, 32, 64, 128, 201, 347, 511, 785)),
        (8, 4, (1, 2, 4, 8, 20, 56, 131, 281)),
        (10, 3, (1, 2, 4, 8, 16, 32, 64, 128, 201, 347)),
    ])
    def test_bk_set(self, n, k, want):
        assert bk_set(n, k).elements == want

    @pytest.mark.parametrize("n, want", [
        (12, (27, 56, 87, 107, 142, 166, 192, 220, 237, 269, 290, 313)),
        (27, (
            59, 120, 183, 248, 315, 355, 426, 470, 545, 593, 643, 724, 778, 834,
            892, 952, 1014, 1049, 1115, 1183, 1224, 1296, 1341, 1417, 1466, 1517,
            1570,
        )),
        (75, (
            159, 320, 483, 648, 815, 984, 1155, 1328, 1424, 1601, 1780, 1961,
            2065, 2250, 2437, 2547, 2738, 2852, 3047, 3165, 3364, 3486, 3689,
            3815, 4022, 4152, 4284, 4497, 4633, 4771, 4911, 5132, 5276, 5422,
            5570, 5720, 5872, 6026, 6182, 6340, 6500, 6662, 6826, 6992, 7160,
            7330, 7502, 7597, 7773, 7951, 8131, 8234, 8418, 8604, 8713, 8903,
            9016, 9210, 9327, 9525, 9646, 9848, 9973, 10179, 10308, 10439, 10651,
            10786, 10923, 11062, 11282, 11425, 11570, 11717, 11866,
        )),
    ])
    def test_sidon_set(self, n, want):
        assert sidon_set(n).elements == want


class TestFamilyConstructions:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_even_path_labeling(self, n):
        report = spum_path_even(n)
        assert report.valid
        assert report.achieved_range == report.claimed_range_bound == 2 * n - 1
        assert assert_oracle_path(report.labeling.labels, n) == 1

    def test_even_path_frozen_smallest(self):
        assert spum_path_even(4).labeling.labels == (1, 3, 4, 5, 8)

    @pytest.mark.parametrize("n", [3, 5, 7, 2])
    def test_even_path_rejects_bad_order(self, n):
        with pytest.raises(ValueError):
            spum_path_even(n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10])
    def test_sd_path_labeling(self, n):
        report = sd_path(n)
        assert report.valid
        assert report.achieved_range == 2 * n - 2
        assert assert_oracle_path(report.labeling.labels, n) == 2

    def test_sd_path_frozen_smallest(self):
        assert sd_path(3).labeling.labels == (2, 3, 4, 5, 6)

    def test_cycle4_fixed_labeling(self):
        report = spum_cycle4()
        assert report.labeling.labels == (3, 4, 5, 6, 8, 9, 10)
        assert report.achieved_range == 7
        assert assert_oracle_cycle(report.labeling.labels, 4) == 3

    @pytest.mark.parametrize("n", [15, 17, 21])
    def test_odd_cycle_integral_labeling(self, n):
        report = ispum_cycle_odd(n)
        assert report.valid
        assert report.labeling.domain is Domain.INTEGRAL
        assert report.achieved_range == 8 * (n - 9)
        assert assert_oracle_cycle(report.labeling.labels, n) == 0

    @pytest.mark.parametrize("n", [13, 14, 16, 9])
    def test_odd_cycle_rejects_bad_order(self, n):
        with pytest.raises(ValueError):
            ispum_cycle_odd(n)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_matching_positive_labeling(self, p):
        report = spum_matching(p)
        assert report.valid
        assert report.achieved_range == 4 * p - 2
        assert assert_oracle_matching(report.labeling.labels, p) == 1

    @pytest.mark.parametrize("p", [3, 4, 5, 7])
    def test_matching_integral_labeling(self, p):
        report = ispum_matching(p)
        assert report.valid
        assert report.achieved_range == 4 * p - 3
        assert assert_oracle_matching(report.labeling.labels, p) == 0

    def test_matching_integral_frozen_smallest(self):
        assert ispum_matching(3).labeling.labels == (-1, 1, 3, 5, 7, 8)

    def test_matching_domain_limits(self):
        with pytest.raises(ValueError):
            ispum_matching(2)
        with pytest.raises(ValueError):
            spum_matching(0)

    def test_closed_forms_hold_at_scale(self):
        assert spum_path_even(400).achieved_range == 799
        assert sd_path(401).achieved_range == 800
        assert ispum_cycle_odd(401).achieved_range == 8 * (401 - 9)
        assert spum_matching(300).achieved_range == 1198
        assert ispum_matching(301).achieved_range == 1201


def _even_path_order(n):
    tail = [2 * n - 3 - 2 * i if i % 2 else 1 + 2 * i for i in range(n - 1)]
    return [2 * n - 4] + tail


def _integral_matching_order(p):
    pairs = [a for i in range(p - 1) for a in (1 + 2 * i, 4 * p - 5 - 2 * i)]
    return [-1, 4 * p - 4] + pairs


def _odd_cycle_order(n):
    k = (n - 9) // 2
    pairs = [a for i in range(k + 1) for a in (-8 * k + i, 5 * k - i)]
    return pairs + [-7 * k + 1, -k - 1, 8 * k, -3 * k, -5 * k, -3 * k + 1, 7 * k - 1]


# builder, its sizes, and the stated vertex order and isolates at size n
CLOSED_FORM_ORDERS = {
    "spum_path_even": (spum_path_even, (4, 10, 398, 400), lambda n: (
        _even_path_order(n), {2 * n},
    )),
    "sd_path": (sd_path, (3, 8, 399, 400), lambda n: (
        [n - 1 + i // 2 if i % 2 else 2 * n - 2 - i // 2 for i in range(n)],
        {3 * n - 4, 3 * n - 3},
    )),
    "spum_cycle4": (lambda n: spum_cycle4(), (4,), lambda n: (
        [3, 5, 4, 6], {8, 9, 10},
    )),
    "ispum_cycle_odd": (ispum_cycle_odd, (15, 17, 399, 401), lambda n: (
        _odd_cycle_order(n), set(),
    )),
    "spum_matching": (spum_matching, (1, 4, 199, 200), lambda p: (
        [a for i in range(p) for a in (2 * p - 1 + i, 4 * p - 2 - i)], {6 * p - 3},
    )),
    "ispum_matching": (ispum_matching, (3, 6, 199, 200), lambda p: (
        _integral_matching_order(p), set(),
    )),
}


class TestClosedFormVertexMaps:
    """Each closed form states its vertex map and is proved from it alone."""

    @pytest.mark.parametrize("build, sizes, order", [
        pytest.param(*row, id=name) for name, row in CLOSED_FORM_ORDERS.items()
    ])
    def test_builds_from_the_stated_order_without_isomorphism(
        self, monkeypatch, build, sizes, order
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed form searched for its vertex map")

        monkeypatch.setattr(constructions, "induce_if_valid", refuse)
        monkeypatch.setattr(core, "induce_if_valid", refuse)
        monkeypatch.setattr(core, "find_isomorphism", refuse)
        for n in sizes:
            report = build(n)
            vertex_label, isolates = order(n)
            assert report.vertex_label == tuple(vertex_label)
            assert report.labeling.labels == tuple(sorted(set(vertex_label) | isolates))
            labels = set(report.labeling.labels)
            sums = {vertex_label[u] + vertex_label[v] for u, v in report.target.edges}
            assert labels.issuperset(sums)
            assert verify_report(report)


class TestSdGeneral:
    def test_single_edge_composed_output(self):
        report = sd_general(K2)
        assert report.labeling.labels == (21, 33, 54)
        assert report.achieved_range == 33
        assert report.claimed_range_bound == 64 * 4 - 64 * 2 + 9

    def test_single_edge_small_sidon_variant_is_valid(self):
        lab = labeling([5, 9, 14])
        assert is_valid_labeling(lab, K2, exact_isolates=1)
        assert label_range(lab) == 9 <= 137

    def test_four_cycle(self):
        report = sd_general(C4)
        labels = report.labeling.labels
        assert len(labels) == 8
        assert induce(report.labeling).isolate_count == 4
        assert sorted(a % 4 for a in labels) == [1, 1, 1, 1, 2, 2, 2, 2]
        degrees, core, isolates, connected = oracle_core(labels)
        assert (degrees, core, isolates, connected) == ([2, 2, 2, 2], 4, 4, True)

    def test_residue_split_general(self):
        report = sd_general(P4)
        vertex_labels = [a for a in report.labeling.labels if a % 4 == 1]
        edge_labels = [a for a in report.labeling.labels if a % 4 == 2]
        assert len(vertex_labels) == 4 and len(edge_labels) == 3
        assert len(vertex_labels) + len(edge_labels) == len(report.labeling.labels)

    def test_bound_formula(self):
        g = generate(FamilySpec(FamilyKind.PATH, 9))
        assert sd_general(g).claimed_range_bound == 64 * 81 - 64 * 9 + 9

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_reinduce_exactly(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 8)
        vertices = list(range(n))
        edges = set()
        order = vertices[:]
        rng.shuffle(order)
        for i in range(1, n):
            edges.add(tuple(sorted((order[i], rng.choice(order[:i])))))
        extra = rng.randint(0, n)
        for _ in range(extra):
            u, v = rng.sample(vertices, 2)
            edges.add(tuple(sorted((u, v))))
        g = graph(n, edges)
        report = sd_general(g)
        assert report.valid
        assert induce(report.labeling).isolate_count == len(g.edges)
        assert report.achieved_range <= 64 * n * n - 64 * n + 9

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            sd_general(graph(3, [(0, 1)]))

    def test_cycle_1000_pinned(self):
        # a sparse output (span 8,064 times the label count): the pairwise
        # induce path and the pairwise-sum Sidon check keep this fast
        labels = sd_general(generate(FamilySpec(FamilyKind.CYCLE, 1000))).labeling.labels
        assert len(labels) == 2000
        assert labels[-1] - labels[0] == 16128577
        digest = hashlib.sha256(",".join(map(str, labels)).encode()).hexdigest()
        assert digest == "fff7e5ffed196775b24fe5cae5b974b20aa77d13e29b52a85cb497011fa02ff0"


class TestInducePath:
    """The induce path core's span rule takes on dense and sparse outputs."""

    @pytest.fixture
    def paths(self, monkeypatch):
        calls = []
        for name, tag in (("_hit_masks", "bitset"), ("_pairwise_pairs", "pairwise")):
            real = getattr(core, name)

            def record(labels, *rest, real=real, tag=tag):
                calls.append((tag, len(labels), labels[-1] - labels[0]))
                return real(labels, *rest)

            monkeypatch.setattr(core, name, record)
        return calls

    def test_dense_sd_general_goes_bitset(self, paths):
        # the circulant C_64(1..14): 64 vertices, 896 edges
        g = graph(64, [(i, (i + d) % 64) for i in range(64) for d in range(1, 15)])
        sd_general(g)
        assert paths == [("bitset", 960, 67633)]

    def test_edge_labels_get_no_mask(self):
        # an edge label 4(s_u + s_v) + 2 is 2 mod 4, and 2 plus a partner's
        # class 1 or 2 is no label's class, so _hit_masks shifts the
        # indicator only by the vertex labels a with 2a + 1 <= max
        g = graph(30, [(i, (i + d) % 30) for i in range(30) for d in (1, 2, 3)])
        report = sd_general(g)
        labels = report.labeling.labels
        edge_labels = set(labels) - set(report.vertex_label)
        in_range = {a for a in labels if 2 * a + 1 <= labels[-1]}
        assert len(labels) == 120 and edge_labels & in_range
        shifted = []

        class Indicator(int):
            def __rshift__(self, a):
                shifted.append(a)
                return int(self) >> a

        masks = core._hit_masks(labels, Indicator(report.labeling.indicator()))
        assert sorted(shifted) == sorted(in_range - edge_labels)
        assert sorted(core._masked_pairs(labels, masks)) == sorted(naive_induce(labels)[0])

    def test_sparse_scaled_union_goes_pairwise(self, paths):
        chords = [(0, 5), (1, 8), (2, 10), (3, 7), (4, 11), (6, 12)]
        g = graph(13, [(i, (i + 1) % 13) for i in range(13)] + chords)
        lab = sd_general(g).labeling
        paths.clear()
        disjoint_union_scaled(lab, g, lab, g)
        # both inputs are validated, then the output is checked
        assert paths == [
            ("bitset", 32, 2497),
            ("bitset", 32, 2497),
            ("pairwise", 64, 26023407),
        ]


class TestTranslate:
    def test_documented_single_edge_shift(self):
        assert translate(LAB_K2, K2, 2).labels == (3, 4, 7)

    def test_zero_shift_at_threshold_is_identity(self):
        assert translate(LAB_K2, K2, 0).labels == (1, 2, 3)

    def test_documented_path_shift(self):
        assert translate(LAB_P3, P3, 2).labels == (3, 4, 5, 7, 8)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            translate(LAB_P3, P3, 0)

    def test_input_and_output_each_induced_once(self, monkeypatch):
        # input validation (with the edge count to match) and the output
        # check both count pairs through core._pair_count, each once per
        # label set; only the input's pairs are listed
        induced = []
        real_count, real_pairs = core._pair_count, core._induced_pairs

        def counting(lab):
            induced.append((lab.labels,))
            return real_count(lab)

        def listing(lab, *edge_count):
            induced.append((lab.labels, *edge_count))
            return real_pairs(lab, *edge_count)

        monkeypatch.setattr(core, "_pair_count", counting)
        monkeypatch.setattr(constructions, "_pair_count", counting)
        monkeypatch.setattr(core, "_induced_pairs", listing)
        translate(LAB_P3, P3, 2)
        assert induced == [((1, 2, 3, 4), 2), ((1, 2, 3, 4),), ((3, 4, 5, 7, 8),)]

    def test_idle_isolates_are_dropped(self):
        lab = labeling([1, 2, 3, 17])
        out = translate(lab, K2, 14)
        assert out.labels == (15, 16, 31)
        assert is_valid_labeling(out, K2, exact_isolates=1)

    @pytest.mark.parametrize("extra", [0, 1, 2, 5])
    def test_blocks_separate(self, extra):
        result = induce(LAB_P3)
        s = sorted(result.core_label_of)
        x = label_range(LAB_P3) - 1 - LAB_P3.labels[0] + extra
        out = translate(LAB_P3, P3, x)
        shifted = [v + x for v in s]
        edge_block = [v for v in out.labels if v not in shifted]
        assert max(shifted) < min(edge_block)

    @given(
        st.sets(st.integers(min_value=1, max_value=40), min_size=3, max_size=7),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_translation_preserves_core(self, labels, extra):
        from hypothesis import assume

        lab = labeling(sorted(labels))
        result = induce(lab)
        assume(result.core_graph.n > 0)
        g = result.core_graph
        t_count = len(
            {result.label_of[i] + result.label_of[j] for i, j in result.graph.edges}
        )
        x = label_range(lab) - 1 - lab.labels[0] + extra
        out = translate(lab, g, x)
        assert is_valid_labeling(out, g, exact_isolates=t_count)


POOL = [
    (LAB_K2, K2),
    (LAB_P3, P3),
    (sd_path(4).labeling, P4),
    (spum_cycle4().labeling, C4),
    (spum_matching(2).labeling, generate(FamilySpec(FamilyKind.MATCHING, 2))),
]


class TestDisjointUnions:
    def test_scaled_documented_pair(self):
        report = disjoint_union_scaled(LAB_K2, K2, LAB_K2, K2)
        assert report.labeling.labels == (1, 2, 3, 6, 12, 18)
        assert report.achieved_range == report.claimed_range_bound == 17
        degrees, core, isolates, _ = oracle_core(report.labeling.labels)
        assert (degrees, core, isolates) == ([1, 1, 1, 1], 4, 2)

    def test_scaled_mixed_orders(self):
        report = disjoint_union_scaled(LAB_P3, P3, LAB_K2, K2)
        assert report.claimed_range_bound == 2 * 5 * 3 - 1
        assert report.valid
        reversed_report = disjoint_union_scaled(LAB_K2, K2, LAB_P3, P3)
        assert reversed_report.valid
        assert reversed_report.target.n == 5

    def test_translated_documented_pair(self):
        report = disjoint_union_translated(LAB_K2, K2, LAB_K2, K2)
        assert report.labeling.labels == (3, 4, 7, 14, 15, 29)
        assert report.achieved_range == report.claimed_range_bound == 26
        degrees, core, isolates, _ = oracle_core(report.labeling.labels)
        assert (degrees, core, isolates) == ([1, 1, 1, 1], 4, 2)

    def test_translated_swaps_to_larger_first(self):
        report = disjoint_union_translated(LAB_K2, K2, spum_cycle4().labeling, C4)
        assert report.valid
        assert report.target.n == 6
        assert report.claimed_range_bound == 11 * 7 + 2 + 2

    @pytest.mark.parametrize("i", range(len(POOL)))
    @pytest.mark.parametrize("j", range(len(POOL)))
    def test_all_pool_pairs(self, i, j):
        lab1, g1 = POOL[i]
        lab2, g2 = POOL[j]
        for combiner in (disjoint_union_scaled, disjoint_union_translated):
            report = combiner(lab1, g1, lab2, g2)
            assert report.valid
            assert report.achieved_range <= report.claimed_range_bound
            assert report.target.n == g1.n + g2.n
            assert len(report.target.edges) == len(g1.edges) + len(g2.edges)


class TestAddIsolated:
    def test_enough_already_returns_input(self):
        report = add_isolated(LAB_K2, K2, 1)
        assert report.labeling.labels == (1, 2, 3)
        assert report.claimed_range_bound == max(1, 8) + 1 - 5

    def test_documented_single_extra(self):
        report = add_isolated(LAB_K2, K2, 2)
        assert report.labeling.labels == (1, 2, 3, 6)
        assert report.achieved_range == report.claimed_range_bound == 5
        assert induce(report.labeling).isolate_count == 2

    def test_twenty_isolates_stay_compact(self):
        report = add_isolated(LAB_K2, K2, 20)
        assert report.labeling.labels == tuple(range(20, 42))
        assert report.achieved_range == 21
        assert report.claimed_range_bound == max(20, 8) + 20 - 5
        assert induce(report.labeling).isolate_count == 20

    def test_naive_interval_padding_would_break(self):
        # appending [2k-16, 2k-4]-style raw intervals creates spurious edges
        # (1 + 18 = 19 lands inside the block), which is why the k >= 3
        # branch translates before padding
        bad = labeling(sorted({1, 2, 3} | set(range(18, 37))))
        assert not is_valid_labeling(bad, K2)

    @pytest.mark.parametrize("k", [3, 4, 5, 9])
    @pytest.mark.parametrize("entry", range(len(POOL)))
    def test_pool_gets_requested_isolates(self, k, entry):
        lab, g = POOL[entry]
        report = add_isolated(lab, g, k)
        assert report.valid
        assert induce(report.labeling).isolate_count >= k
        assert report.achieved_range <= report.claimed_range_bound

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            add_isolated(LAB_K2, K2, 0)


class TestBuildCap:
    """Outputs grown from one integer stop at MAX_BUILD_SIZE labels."""

    @pytest.mark.parametrize("build, args, count", [
        pytest.param(build, args, count, id=build.__name__)
        for build, args, count in [
            (spum_path_even, (48,), 49),
            (sd_path, (48,), 50),
            (ispum_cycle_odd, (49,), 49),
            (spum_matching, (25,), 51),
            (ispum_matching, (25,), 50),
            (add_isolated, (LAB_K2, K2, 48), 50),
            (join, (LAB_K2, K2, LAB_K2, K2), 9),
        ]
    ])
    def test_admits_the_cap_and_refuses_one_more(self, monkeypatch, build, args, count):
        monkeypatch.setattr(constructions, "MAX_BUILD_SIZE", count)
        assert len(build(*args).labeling) == count
        monkeypatch.setattr(constructions, "MAX_BUILD_SIZE", count - 1)
        with pytest.raises(ValueError, match=f"^{count} labels exceed the cap of"):
            build(*args)


class TestAddVertex:
    def test_documented_pendant(self):
        report = add_vertex(LAB_K2, K2, [0])
        assert report.labeling.labels == (4, 5, 6, 9, 10)
        assert report.achieved_range == 6 <= 7
        assert recognize(report.target, FamilySpec(FamilyKind.PATH, 3))
        degrees, core, isolates, _ = oracle_core(report.labeling.labels)
        assert (degrees, core, isolates) == ([1, 1, 2], 3, 2)

    def test_cone_over_single_edge_is_triangle(self):
        report = add_vertex(LAB_K2, K2, [0, 1])
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 3))
        assert report.valid
        assert report.achieved_range <= 7

    def test_empty_neighborhood_adds_isolate(self):
        report = add_vertex(LAB_K2, K2, [])
        assert report.valid
        assert report.target.n == 3
        assert induce(report.labeling).isolate_count == 2

    def test_parity_separation(self):
        report = add_vertex(LAB_P3, P3, [1])
        old = [a for a in report.labeling.labels if a % 2 == 0]
        new = [a for a in report.labeling.labels if a % 2 == 1]
        assert len(old) == 5 and len(new) == 2

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            add_vertex(LAB_K2, K2, [5])

    @pytest.mark.parametrize("entry", range(len(POOL)))
    def test_pool_pendants(self, entry):
        lab, g = POOL[entry]
        report = add_vertex(lab, g, [0])
        assert report.valid
        assert report.achieved_range <= report.claimed_range_bound
        assert report.target.n == g.n + 1


class TestJoin:
    def test_two_single_edges_make_complete_four(self):
        report = join(LAB_K2, K2, LAB_K2, K2)
        assert report.labeling.labels == (4, 5, 9, 18, 19, 22, 23, 24, 37)
        assert report.achieved_range == report.claimed_range_bound == 33
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 4))

    def test_edge_join_path(self):
        report = join(LAB_K2, K2, LAB_P3, P3)
        assert report.valid
        assert report.target.n == 5
        assert report.claimed_range_bound == 11 * 2 + 8 * 3 - 5
        assert report.achieved_range == 41

    def test_swap_puts_smaller_range_first(self):
        report = join(LAB_P3, P3, LAB_K2, K2)
        assert report.claimed_range_bound == 11 * 2 + 8 * 3 - 5
        assert report.valid

    @pytest.mark.parametrize("i", range(len(POOL)))
    @pytest.mark.parametrize("j", range(len(POOL)))
    def test_all_pool_pairs(self, i, j):
        lab1, g1 = POOL[i]
        lab2, g2 = POOL[j]
        report = join(lab1, g1, lab2, g2)
        assert report.valid
        assert report.achieved_range <= report.claimed_range_bound
        assert report.target.n == g1.n + g2.n
        expected_edges = len(g1.edges) + len(g2.edges) + g1.n * g2.n
        assert len(report.target.edges) == expected_edges


class TestModify:
    def test_delete_leaf_of_path(self):
        report = modify(LAB_P3, P3, "delete-vertex", vertex=0)
        assert report.valid
        assert report.achieved_range <= 2 * 3 - 2
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 2))
        edges, isolated = naive_induce(report.labeling.labels)
        assert len(edges) == 1 and len(isolated) == 2

    def test_delete_center_leaves_isolates(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "delete-vertex", vertex=1)

    def test_induced_subpath_of_cycle(self):
        lab = spum_cycle4().labeling
        keep = None
        adjacency = C4.adjacency()
        for v in range(4):
            rest = [u for u in range(4) if u != v]
            if all(any(w in adjacency[u] for w in rest if w != u) for u in rest):
                keep = rest
                break
        report = modify(lab, C4, "induced-subgraph", vertices=keep)
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.PATH, 3))
        assert report.achieved_range <= 2 * 7 - 2

    def test_induced_subgraph_needs_no_isolates(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "induced-subgraph", vertices=[0, 2])

    def test_delete_cycle_edge_gives_path(self):
        lab = spum_cycle4().labeling
        edge = next(iter(C4.edges))
        report = modify(lab, C4, "delete-edge", edge=edge)
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.PATH, 4))
        assert report.achieved_range <= 4 * 7 - 1

    def test_delete_middle_path_edge_gives_matching(self):
        lab = sd_path(4).labeling
        report = modify(lab, P4, "delete-edge", edge=(1, 2))
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.MATCHING, 2))

    def test_delete_only_edge_rejected(self):
        with pytest.raises(ValueError):
            modify(LAB_K2, K2, "delete-edge", edge=(0, 1))

    def test_contract_cycle_edge_gives_triangle(self):
        lab = spum_cycle4().labeling
        edge = next(iter(C4.edges))
        report = modify(lab, C4, "contract-edge", edge=edge)
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 3))

    def test_contract_path_edge_gives_edge(self):
        report = modify(LAB_P3, P3, "contract-edge", edge=(0, 1))
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 2))

    def test_close_path_into_triangle(self):
        report = modify(LAB_P3, P3, "add-edge", edge=(0, 2))
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.COMPLETE, 3))
        assert report.achieved_range <= 4 * 3 - 1

    def test_close_path_into_cycle(self):
        lab = sd_path(4).labeling
        report = modify(lab, P4, "add-edge", edge=(0, 3))
        assert report.valid
        assert recognize(report.target, FamilySpec(FamilyKind.CYCLE, 4))

    def test_add_existing_edge_rejected(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "add-edge", edge=(0, 1))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "delete-edge", edge=(0, 2))

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "swap-edge", edge=(0, 1))

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "delete-vertex")
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "induced-subgraph")
        with pytest.raises(ValueError):
            modify(LAB_P3, P3, "contract-edge")


class TestHelperGraphs:
    def test_disjoint_union_graph_shifts_second_block(self):
        u = disjoint_union_graph(K2, P3)
        assert u.n == 5
        assert (0, 1) in u.edges and (2, 3) in u.edges and (3, 4) in u.edges

    def test_join_graph_adds_all_cross_edges(self):
        j = join_graph(K2, K2)
        assert j.n == 4
        assert len(j.edges) == 6


P30 = generate(FamilySpec(FamilyKind.PATH, 30))
M15 = generate(FamilySpec(FamilyKind.MATCHING, 15))
C40 = generate(FamilySpec(FamilyKind.CYCLE, 40))


def edited_graph(g, operation, vertex=None, vertices=None, edge=None):
    """The graph an edit should give, built straight from its definition."""
    if operation in ("delete-vertex", "induced-subgraph"):
        keep = sorted(vertices) if vertices else [v for v in range(g.n) if v != vertex]
        index = {v: i for i, v in enumerate(keep)}
        return graph(
            len(keep),
            [(index[a], index[b]) for a, b in g.edges if a in index and b in index],
        )
    u, v = sorted(edge)
    if operation == "add-edge":
        return graph(g.n, set(g.edges) | {(u, v)})
    if operation == "delete-edge":
        return graph(g.n, set(g.edges) - {(u, v)})
    # contract-edge: v merges into u
    index = {w: i for i, w in enumerate(w for w in range(g.n) if w != v)}
    return graph(
        len(index),
        {
            tuple(sorted((index[u if a == v else a], index[u if b == v else b])))
            for a, b in g.edges
            if (a, b) != (u, v)
        },
    )


# (operation, arguments) per input: every modify operation, and a pendant
# and a three-neighbor add-vertex
CAP_EDITS = {
    "P30": [
        ("delete-vertex", {"vertex": 5}),
        ("induced-subgraph", {"vertices": list(range(3, 23))}),
        ("delete-edge", {"edge": (10, 11)}),
        ("contract-edge", {"edge": (10, 11)}),
        ("add-edge", {"edge": (0, 29)}),
    ],
    "C40": [
        ("delete-vertex", {"vertex": 0}),
        ("induced-subgraph", {"vertices": list(range(10, 35))}),
        ("delete-edge", {"edge": (0, 39)}),
        ("contract-edge", {"edge": (7, 8)}),
        ("add-edge", {"edge": (0, 20)}),
    ],
}
CAP_NEIGHBORS = {"P30": [[0], [0, 5, 29]], "C40": [[17], [0, 13, 39]]}


def cap_input(name):
    if name == "P30":
        return sd_path(30).labeling, P30
    return sd_general(C40).labeling, C40


def assert_oracle_graph(labels, target):
    """Edge count, sorted degrees and isolates of labels match target."""
    edges, isolated = naive_induce(labels)
    degrees, core, isolates, _ = oracle_core(labels)
    assert len(edges) == len(target.edges)
    assert degrees == sorted(d for d in target.degrees() if d)
    assert core == target.n - len(target.isolated_vertices())
    assert isolates == len(isolated) == len(labels) - core


class TestRelabeled:
    """_relabeled proves its output from distinct vertex labels, the image of
    every target edge being an induced pair, and the induced pair count."""

    def test_accepts_exact_image(self):
        assert constructions._relabeled(K2, [1, 2], {3}).labels == (1, 2, 3)
        assert constructions._relabeled(P3, [2, 1, 3], {4}).labels == (1, 2, 3, 4)

    def test_one_extra_induced_pair(self):
        # the image {1, 2} is induced, and so is 1 + 3 = 4
        with pytest.raises(ConstructionError):
            constructions._relabeled(K2, [1, 2], {3, 4})

    def test_one_missing_image_edge(self):
        # one pair is induced (1 + 2 = 3), as K2 has one edge, but it is not
        # the image {1, 3}: 1 + 3 = 4 is no label
        with pytest.raises(ConstructionError):
            constructions._relabeled(K2, [1, 3], {2})

    def test_repeated_vertex_label(self):
        # vertices 1 and 2 share label 2; vertex 2 is isolated, and the one
        # induced pair {1, 2} is the image of the one edge
        with pytest.raises(ConstructionError):
            constructions._relabeled(graph(3, [(0, 1)]), [1, 2, 2], {3})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepts_exactly_when_induced_edges_are_the_image(self, data):
        def some_of(values):
            return data.draw(st.sets(st.sampled_from(values)) if values else st.just(set()))

        n = data.draw(st.integers(min_value=1, max_value=6))
        target = graph(n, some_of([(u, v) for u in range(n) for v in range(u + 1, n)]))
        vertex_label = data.draw(
            st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True)
        )
        # some of the edge sums, so that the output is often exact, and a
        # few labels drawn freely
        sums = sorted({vertex_label[u] + vertex_label[v] for u, v in target.edges})
        isolates = some_of(sums) | data.draw(st.sets(st.integers(1, 60), max_size=3))
        labels = sorted(set(vertex_label) | isolates)
        induced, _ = naive_induce(labels)
        image = {
            tuple(sorted((vertex_label[u], vertex_label[v]))) for u, v in target.edges
        }
        expected = {(labels[i], labels[j]) for i, j in induced} == image
        try:
            lab = constructions._relabeled(target, vertex_label, isolates)
        except ConstructionError:
            assert not expected
        else:
            assert expected and lab.labels == tuple(labels)


# two isolate-free 13-vertex graphs that are no family member: C13 with six
# chords, and P13 with four
CHORDED_C13 = graph(
    13,
    [(i, (i + 1) % 13) for i in range(13)]
    + [(0, 5), (1, 8), (2, 10), (3, 7), (4, 11), (6, 12)],
)
CHORDED_P13 = graph(
    13, [(i, i + 1) for i in range(12)] + [(0, 6), (3, 9), (6, 12), (1, 11)]
)


class TestAboveIsomorphismCap:
    """Inputs and outputs of more than 24 vertices, where the generic
    isomorphism search once stopped."""

    @pytest.mark.parametrize(
        "combiner, combined_graph",
        [
            (disjoint_union_scaled, disjoint_union_graph),
            (disjoint_union_translated, disjoint_union_graph),
            (join, join_graph),
        ],
    )
    def test_thirty_plus_thirty(self, combiner, combined_graph):
        report = combiner(sd_path(30).labeling, P30, spum_matching(15).labeling, M15)
        target = combined_graph(P30, M15)
        labels = report.labeling.labels
        edges, _ = naive_induce(labels)
        degrees, core, isolates, _ = oracle_core(labels)
        assert report.valid and report.achieved_range <= report.claimed_range_bound
        assert len(edges) == len(target.edges)
        assert degrees == sorted(target.degrees())
        assert core == 60 and isolates == len(labels) - 60

    @pytest.mark.parametrize(
        "combiner, combined_graph",
        [
            (disjoint_union_scaled, disjoint_union_graph),
            (disjoint_union_translated, disjoint_union_graph),
            (join, join_graph),
        ],
    )
    def test_thirteen_plus_thirteen_sd_general(self, combiner, combined_graph):
        # 26 output vertices from inputs no family recognizer identifies:
        # the output is proved by its labeled edges alone
        assert identify(CHORDED_C13) is None and identify(CHORDED_P13) is None
        lab1 = sd_general(CHORDED_C13).labeling
        lab2 = sd_general(CHORDED_P13).labeling
        report = combiner(lab1, CHORDED_C13, lab2, CHORDED_P13)
        target = combined_graph(CHORDED_C13, CHORDED_P13)
        assert target.n == 26
        assert report.valid and report.achieved_range <= report.claimed_range_bound
        assert report.target.n == 26 and len(report.target.edges) == len(target.edges)
        assert_oracle_graph(report.labeling.labels, target)

    @pytest.mark.parametrize(
        "name, operation, edit",
        [(name, op, edit) for name, edits in CAP_EDITS.items() for op, edit in edits],
        ids=[f"{name}-{op}" for name, edits in CAP_EDITS.items() for op, _ in edits],
    )
    def test_modify_above_cap(self, name, operation, edit):
        lab, g = cap_input(name)
        report = modify(lab, g, operation, **edit)
        target = edited_graph(g, operation, **edit)
        assert report.valid and report.achieved_range <= report.claimed_range_bound
        assert report.target.n == target.n
        assert sorted(report.target.degrees()) == sorted(target.degrees())
        assert_oracle_graph(report.labeling.labels, target)

    @pytest.mark.parametrize(
        "name, neighbors",
        [(name, nbrs) for name, options in CAP_NEIGHBORS.items() for nbrs in options],
    )
    def test_add_vertex_above_cap(self, name, neighbors):
        lab, g = cap_input(name)
        report = add_vertex(lab, g, neighbors)
        target = graph(g.n + 1, set(g.edges) | {(u, g.n) for u in neighbors})
        assert report.valid and report.achieved_range <= report.claimed_range_bound
        assert report.target == target
        assert_oracle_graph(report.labeling.labels, target)

    def test_unary_combinators_on_p30(self):
        lab = sd_path(30).labeling
        assert_oracle_path(translate(lab, P30, label_range(lab)).labels, 30)
        for k in (1, 2, 3, 7):
            report = add_isolated(lab, P30, k)
            assert assert_oracle_path(report.labeling.labels, 30) >= k
        report = add_vertex(lab, P30, [])
        assert report.target.n == 31
        assert_oracle_path(report.labeling.labels, 30)


# C30(1, 2, 5) plus the chord 0-15: 30 vertices, no family member
CHORDED_C30 = graph(
    30, [(i, (i + d) % 30) for i in range(30) for d in (1, 2, 5)] + [(0, 15)]
)


def verify_report(report):
    """What construct --verify prints: the builder's proof re-run on the
    printed labels with the vertex labels the builder proved."""
    return induces_as_labeled(report.labeling, report.target, report.vertex_label)


class TestVerifyReport:
    """induces_as_labeled re-runs a builder's proof on the labels it printed."""

    def test_every_builder_report_verifies(self):
        lab, g = sd_path(6).labeling, generate(FamilySpec(FamilyKind.PATH, 6))
        reports = [
            spum_path_even(6), sd_path(6), spum_cycle4(), ispum_cycle_odd(15),
            spum_matching(3), ispum_matching(3), sd_general(CHORDED_C13),
            add_isolated(lab, g, 1), add_isolated(lab, g, 2), add_isolated(lab, g, 5),
            add_vertex(lab, g, [0, 3]), join(lab, g, LAB_P3, P3),
            modify(lab, g, "contract-edge", edge=(1, 2)),
            modify(lab, g, "induced-subgraph", vertices=[0, 1, 2]),
        ]
        for report in reports:
            assert len(report.vertex_label) == report.target.n
            assert verify_report(report)
            assert is_valid_labeling(report.labeling, report.target)

    def test_integral_labels_are_counted_in_their_own_domain(self):
        report = ispum_cycle_odd(15)
        assert report.labeling.domain is Domain.INTEGRAL
        assert report.labeling.labels[0] < 0
        assert verify_report(report)

    def test_above_the_isomorphism_cap(self):
        assert identify(CHORDED_C30) is None
        report = sd_general(CHORDED_C30)
        assert report.achieved_range == 14401
        assert verify_report(report)
        assert is_valid_labeling(report.labeling, CHORDED_C30)

    def test_changed_labels_fail(self):
        report = sd_path(5)  # [4, 8] + {11, 12}
        assert report.labeling.labels == (4, 5, 6, 7, 8, 11, 12)
        extra = labeling(report.labeling.labels + (9,))  # 4 + 5 = 9: one more pair
        missing = labeling((4, 5, 6, 7, 8, 11))  # 5 + 7 = 12 is gone
        for lab in (extra, missing):
            assert not verify_report(dataclasses.replace(report, labeling=lab))

    def test_changed_vertex_labels_fail(self):
        report = sd_path(5)
        vertex_label = list(report.vertex_label)
        # vertices 0 and 1 trade labels: the map no longer carries edges onto pairs
        vertex_label[0], vertex_label[1] = vertex_label[1], vertex_label[0]
        swapped = dataclasses.replace(report, vertex_label=tuple(vertex_label))
        assert not verify_report(swapped)


LAB_C4 = labeling([3, 4, 5, 6, 8, 9, 10])  # spum_cycle4's labels

# each builder on a fixed small input; every report comes from one
# constructions._report call
GRAPH_BUILDERS = {
    "spum_path_even": lambda: spum_path_even(6),
    "sd_path": lambda: sd_path(5),
    "spum_cycle4": spum_cycle4,
    "ispum_cycle_odd": lambda: ispum_cycle_odd(15),
    "spum_matching": lambda: spum_matching(3),
    "ispum_matching": lambda: ispum_matching(3),
    "sd_general": lambda: sd_general(CHORDED_C13),
    "add_isolated-unchanged": lambda: add_isolated(LAB_K2, K2, 1),
    "add_isolated-k2": lambda: add_isolated(LAB_K2, K2, 2),
    "add_isolated-k4": lambda: add_isolated(LAB_K2, K2, 4),
    "add_vertex": lambda: add_vertex(LAB_P3, P3, [0]),
    "delete-vertex": lambda: modify(LAB_C4, C4, "delete-vertex", vertex=0),
    "induced-subgraph": lambda: modify(LAB_C4, C4, "induced-subgraph", vertices=[0, 1, 2]),
    "delete-edge": lambda: modify(LAB_C4, C4, "delete-edge", edge=(0, 1)),
    "contract-edge": lambda: modify(LAB_C4, C4, "contract-edge", edge=(0, 1)),
    "add-edge": lambda: modify(LAB_C4, C4, "add-edge", edge=(0, 2)),
    "union-scaled": lambda: disjoint_union_scaled(LAB_K2, K2, LAB_P3, P3),
    "union-translated": lambda: disjoint_union_translated(LAB_K2, K2, LAB_P3, P3),
    "join": lambda: join(LAB_K2, K2, LAB_P3, P3),
}
BUILDERS = {
    **GRAPH_BUILDERS,
    "hyper_general": lambda: hyper_general(hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])),
}

# the combinators' vertex maps on the inputs above
COMBINATOR_VERTEX_LABELS = {
    "add_isolated-unchanged": (1, 2),
    "add_isolated-k2": (1, 2),
    "add_isolated-k4": (4, 5),
    "add_vertex": (8, 6, 10, 7),
    "delete-vertex": (8, 7, 9),
    "induced-subgraph": (6, 8, 7),
    "delete-edge": (18, 16, 20, 15),
    "contract-edge": (16, 20, 15),
    "add-edge": (18, 16, 20, 15),
    "union-scaled": (1, 2, 12, 6, 18),
    "union-translated": (5, 4, 6, 20, 21),
    "join": (5, 6, 23, 22, 24),
}


class TestOneReportStep:
    """Every builder returns one _report call: one proof of its output, and
    no range above its claim."""

    @pytest.mark.parametrize("name", BUILDERS)
    def test_each_builder_proves_its_output_once(self, monkeypatch, name):
        calls = []
        real = constructions.induces_as_labeled

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(constructions, "induces_as_labeled", counting)
        report = BUILDERS[name]()
        assert len(calls) == 1
        assert induces_as_labeled(report.labeling, report.target, report.vertex_label)
        if name in COMBINATOR_VERTEX_LABELS:
            assert report.vertex_label == COMBINATOR_VERTEX_LABELS[name]

    @pytest.mark.parametrize("name", GRAPH_BUILDERS)
    def test_graph_builders_refuse_a_range_above_their_claim(self, monkeypatch, name):
        monkeypatch.setattr(constructions, "_relabeled", lambda *a: labeling([1, 10**6]))
        with pytest.raises(ConstructionError, match="exceeded its claimed range bound"):
            GRAPH_BUILDERS[name]()


# every combinator on the inputs above, and the ones that take two inputs
COMBINATORS = {
    "translate": lambda: translate(LAB_P3, P3, 2),
    **{name: GRAPH_BUILDERS[name] for name in COMBINATOR_VERTEX_LABELS},
}
BINARY_COMBINATORS = ("union-scaled", "union-translated", "join")


def _positive_reports(seed):
    """Reports of the positive closed forms, and of sd_general on small
    seeded random isolate-free graphs."""
    reports = [spum_path_even(n) for n in (4, 6, 8)]
    reports += [sd_path(n) for n in range(3, 9)]
    reports += [spum_cycle4()] + [spum_matching(p) for p in range(1, 5)]
    rng = random.Random(seed)
    while len(reports) < 28:
        n = rng.randint(2, 7)
        g = graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        if 0 not in g.degrees():
            reports.append(sd_general(g))
    return reports


class TestOneRead:
    """A combinator reads each input once (constructions._input) and moves
    it with _Input.placed."""

    @pytest.mark.parametrize("name", COMBINATORS)
    def test_each_input_is_validated_once(self, monkeypatch, name):
        calls = []
        real = constructions.induce_if_valid

        def counting(lab, g, *rest):
            calls.append(lab.labels)
            return real(lab, g, *rest)

        monkeypatch.setattr(constructions, "induce_if_valid", counting)
        COMBINATORS[name]()
        assert len(calls) == (2 if name in BINARY_COMBINATORS else 1)

    def test_what_is_read(self):
        a = constructions._input(LAB_P3, P3)  # the path 2-1-3 plus the isolate 4
        assert a.g is P3
        assert sorted(a.vertex_label) == [1, 2, 3] and a.vertex_label[1] == 1
        assert (a.sums, a.others, a.r, a.low) == ({3, 4}, {4}, 3, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_placed_induces_the_input_graph(self, seed):
        # from the threshold r - 1 - low on, the moved vertex labels induce g
        # with the moved edge sums as the only isolates
        for report in _positive_reports(seed):
            g = report.target
            a = constructions._input(report.labeling, g)
            threshold = a.r - 1 - a.low
            for x in range(threshold, threshold + 41):
                vertex_label, sums = a.placed(x)
                lab = labeling(sorted(set(vertex_label) | sums))
                assert len(lab) == g.n + len(sums)
                assert induces_as_labeled(lab, g, vertex_label), (report, x)
