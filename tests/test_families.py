"""Family generators, recognizers, and published-value tables."""
from __future__ import annotations

from itertools import combinations

import pytest

from oracles import naive_isomorphic
from sumdiam import core, families
from sumdiam.families import (
    ISPUM_CYCLE_TABLE,
    SPUM_PATH_TABLE,
    FamilyKind,
    FamilySpec,
    ValueRange,
    generate,
    identify,
    known_values,
    parse_spec,
    recognize,
)


def spec(text):
    return parse_spec(text)


def path_graph(n):
    return core.graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return core.graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return core.graph(n, list(combinations(range(n), 2)))


def matching_graph(p):
    return core.graph(2 * p, [(2 * i, 2 * i + 1) for i in range(p)])


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


class TestSpec:
    def test_parse_round_trip(self):
        s = parse_spec("path:7")
        assert s == FamilySpec(FamilyKind.PATH, 7)
        assert s.text() == "path:7"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_spec("path")
        with pytest.raises(ValueError):
            parse_spec("wheel:5")
        with pytest.raises(ValueError):
            parse_spec("path:x")
        with pytest.raises(ValueError):
            parse_spec("cycle:2")
        with pytest.raises(ValueError):
            parse_spec("path:0")

    @pytest.mark.parametrize("n_text", ["1_0", "+4", "\uff11\uff10", "0x3"])
    def test_parameter_is_a_plain_integer(self, n_text):
        with pytest.raises(ValueError, match="^family parameter .* is not an integer$"):
            parse_spec(f"path:{n_text}")


class TestGenerate:
    @pytest.mark.parametrize(
        "text,n,m,degs",
        [
            ("path:1", 1, 0, [0]),
            ("path:5", 5, 4, [1, 1, 2, 2, 2]),
            ("cycle:6", 6, 6, [2] * 6),
            ("complete:5", 5, 10, [4] * 5),
            ("matching:3", 6, 3, [1] * 6),
            ("star:4", 5, 4, [1, 1, 1, 1, 4]),
            ("complete_bipartite_balanced:3", 6, 9, [3] * 6),
            ("empty:4", 4, 0, [0] * 4),
        ],
    )
    def test_shapes(self, text, n, m, degs):
        g = generate(spec(text))
        assert g.n == n
        assert len(g.edges) == m
        assert sorted(g.degrees()) == sorted(degs)

    def test_recognize_own_output(self):
        for text in [
            "path:1", "path:2", "path:9", "cycle:3", "cycle:8", "complete:1",
            "complete:6", "matching:1", "matching:4", "star:1", "star:5",
            "complete_bipartite_balanced:1", "complete_bipartite_balanced:3",
            "empty:1", "empty:5",
        ]:
            s = spec(text)
            assert recognize(generate(s), s), text

    def test_recognize_shuffled_member(self):
        g = core.graph(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
        assert recognize(g, spec("path:5"))
        assert not recognize(g, spec("cycle:5"))

    def test_recognize_cross_kind_coincidences(self):
        assert recognize(generate(spec("cycle:3")), spec("complete:3"))
        assert recognize(generate(spec("complete:2")), spec("path:2"))
        assert recognize(generate(spec("star:2")), spec("path:3"))
        assert recognize(
            generate(spec("complete_bipartite_balanced:2")), spec("cycle:4")
        )

    def test_identify(self):
        assert identify(generate(spec("matching:3"))) == spec("matching:3")
        assert identify(generate(spec("cycle:3"))) == spec("complete:3")
        assert identify(core.graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])) is None
        assert identify(core.graph(0, [])) is None

    @pytest.mark.parametrize("kind, largest", [
        ("path", 10), ("cycle", 10), ("complete", 5), ("matching", 5),
        ("star", 9), ("complete_bipartite_balanced", 3), ("empty", 10),
    ])
    def test_size_cap(self, monkeypatch, kind, largest):
        # at a cap of 10, the largest member has at most 10 vertices and
        # 10 edges, and the next one is refused before it is built
        monkeypatch.setattr(families, "MAX_BUILD_SIZE", 10)
        g = generate(spec(f"{kind}:{largest}"))
        assert max(g.n, len(g.edges)) <= 10
        with pytest.raises(ValueError, match=f"^{kind}:{largest + 1} has over 10 "):
            generate(spec(f"{kind}:{largest + 1}"))


class TestStructurePredicates:
    """Each row's membership test, through recognize and identify."""

    def test_path(self):
        assert recognize(path_graph(5), spec("path:5"))
        assert not recognize(cycle_graph(5), spec("path:5"))
        assert recognize(core.graph(1, []), spec("path:1"))
        # disjoint P2+P3 has the right degrees but is disconnected
        g = core.graph(5, [(0, 1), (2, 3), (3, 4)])
        assert not recognize(g, spec("path:5"))

    def test_cycle(self):
        assert recognize(cycle_graph(6), spec("cycle:6"))
        two_triangles = core.graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not recognize(two_triangles, spec("cycle:6"))

    def test_complete(self):
        assert recognize(complete_graph(4), spec("complete:4"))
        assert not recognize(cycle_graph(4), spec("complete:4"))

    def test_matching(self):
        assert recognize(matching_graph(3), spec("matching:3"))
        assert not recognize(path_graph(6), spec("matching:3"))

    def test_star(self):
        star = core.graph(4, [(0, 1), (0, 2), (0, 3)])
        assert recognize(star, spec("star:3"))
        assert not recognize(path_graph(4), spec("star:3"))

    def test_balanced_bipartite(self):
        k33 = core.graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
        assert recognize(k33, spec("complete_bipartite_balanced:3"))
        assert not recognize(cycle_graph(6), spec("complete_bipartite_balanced:3"))

    def test_empty(self):
        assert recognize(core.graph(3, []), spec("empty:3"))
        assert not recognize(core.graph(3, [(0, 1)]), spec("empty:3"))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="^unknown family 'wheel'; expected one of: "):
            parse_spec("wheel:2")

    def test_identify_canonical_overlaps(self):
        assert identify(core.graph(2, [(0, 1)])) == spec("complete:2")
        assert identify(complete_graph(3)) == spec("complete:3")
        assert identify(cycle_graph(3)) == spec("complete:3")
        assert identify(core.graph(3, [(0, 1), (0, 2)])) == spec("path:3")
        assert identify(cycle_graph(4)) == spec("cycle:4")
        k22 = core.graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert identify(k22) == spec("cycle:4")
        assert identify(matching_graph(2)) == spec("matching:2")
        assert identify(core.graph(5, [(0, i) for i in range(1, 5)])) == spec("star:4")
        paw = core.graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert identify(paw) is None

    def test_zero_vertex_graph_is_no_family(self):
        assert identify(core.graph(0, [])) is None

    def test_identify_agrees_with_oracle_on_every_small_graph(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
                found = identify(core.graph(n, edges))
                named = None if found is None else (found.kind.value, found.n)
                assert named == oracle_identify(n, edges), (n, edges)
                checked += 1
        assert checked == 1099


def accepted_specs(n_max):
    for kind in FamilyKind:
        for n in range(1, n_max + 1):
            try:
                yield FamilySpec(kind, n)
            except ValueError:
                pass


class TestKnownValues:
    @pytest.mark.parametrize("s", accepted_specs(40), ids=FamilySpec.text)
    def test_identify_keeps_known_values(self, s):
        # search.run_search takes a graph and reads its counts through identify
        assert known_values(identify(generate(s))) == known_values(s)
        # a delegation joins two specs whose members are one graph
        target = families._DELEGATIONS.get((s.kind, s.n))
        if target is not None:
            assert identify(generate(s)) == identify(generate(FamilySpec(*target)))

    def test_path_10_documented(self):
        kv = known_values(spec("path:10"))
        assert kv.sigma == 1 and kv.zeta == 0
        assert kv.spum == ValueRange.point(19)

    def test_cycle_5_pinned_by_search(self):
        kv = known_values(spec("cycle:5"))
        assert kv.sigma == 2 and kv.zeta == 0
        assert kv.spum == ValueRange.point(10)
        assert kv.ispum == ValueRange.point(5)
        assert kv.sd == ValueRange.point(9)
        assert kv.isd == ValueRange.point(5)

    def test_cycle_9_documented(self):
        kv = known_values(spec("cycle:9"))
        assert kv.spum == ValueRange.point(17)
        assert kv.sd == ValueRange(16, 17)

    def test_complete_7_documented(self):
        kv = known_values(spec("complete:7"))
        assert kv.sigma == kv.zeta == 11
        for field in (kv.spum, kv.ispum, kv.sd, kv.isd):
            assert field == ValueRange.point(22)

    def test_path_table_exact(self):
        for n, value in SPUM_PATH_TABLE.items():
            assert known_values(spec(f"path:{n}")).spum == ValueRange.point(value)

    def test_cycle_table_exact(self):
        for n, value in ISPUM_CYCLE_TABLE.items():
            assert known_values(spec(f"cycle:{n}")).ispum == ValueRange.point(value)

    def test_large_path_intervals(self):
        assert known_values(spec("path:16")).spum == ValueRange(30, 31)
        assert known_values(spec("path:17")).spum == ValueRange(32, 35)
        assert known_values(spec("path:14")).sd == ValueRange(25, 26)
        assert known_values(spec("path:13")).sd == ValueRange.point(24)

    def test_path_sd_small(self):
        assert known_values(spec("path:3")).sd == ValueRange.point(3)
        assert known_values(spec("path:6")).sd == ValueRange.point(9)
        assert known_values(spec("path:7")).sd == ValueRange.point(12)

    def test_path_ispum_isd_refinements(self):
        assert known_values(spec("path:4")).ispum == ValueRange(3, 4)
        assert known_values(spec("path:6")).ispum == ValueRange(7, 8)
        assert known_values(spec("path:4")).isd == ValueRange(3, 4)
        assert known_values(spec("path:9")).ispum == ValueRange(13, 15)
        assert known_values(spec("path:10")).ispum == ValueRange(15, 17)

    def test_large_cycle_intervals(self):
        assert known_values(spec("cycle:15")).ispum == ValueRange(25, 48)
        assert known_values(spec("cycle:16")).ispum == ValueRange(27, 51)
        assert known_values(spec("cycle:12")).sd == ValueRange(22, 23)
        assert known_values(spec("cycle:12")).isd == ValueRange(19, 23)

    def test_cycle_4_special(self):
        kv = known_values(spec("cycle:4"))
        assert kv.sigma == 3 and kv.zeta == 3
        assert kv.spum == ValueRange.point(7)
        assert kv.ispum == ValueRange.point(7)
        assert kv.sd == ValueRange(6, 7)

    def test_matchings(self):
        kv = known_values(spec("matching:5"))
        assert kv.sigma == 1 and kv.zeta == 0
        assert kv.spum == ValueRange.point(18)
        assert kv.ispum == ValueRange.point(17)
        assert known_values(spec("matching:2")).ispum == ValueRange.point(4)
        assert known_values(spec("matching:1")).ispum == ValueRange.point(1)

    def test_small_complete(self):
        k2 = known_values(spec("complete:2"))
        assert (k2.sigma, k2.zeta) == (1, 0)
        assert k2.spum == ValueRange.point(2)
        assert k2.ispum == ValueRange.point(1)
        assert k2.sd == ValueRange.point(2)
        assert k2.isd == ValueRange.point(1)
        k3 = known_values(spec("complete:3"))
        assert (k3.sigma, k3.zeta) == (2, 0)
        assert k3.spum == ValueRange.point(6)
        assert k3.isd == ValueRange.point(2)
        assert known_values(spec("complete:1")).sd == ValueRange.point(0)

    def test_delegation_consistency(self):
        assert known_values(spec("star:1")) == known_values(spec("complete:2"))
        assert known_values(spec("path:2")) == known_values(spec("complete:2"))
        assert known_values(spec("star:2")) == known_values(spec("path:3"))
        assert known_values(
            spec("complete_bipartite_balanced:2")
        ) == known_values(spec("cycle:4"))
        assert known_values(spec("cycle:3")) == known_values(spec("complete:3"))

    def test_open_families_are_absent(self):
        for text in ("star:7", "complete_bipartite_balanced:4", "empty:5"):
            kv = known_values(spec(text))
            assert kv == known_values(spec("empty:5")).__class__(
                None, None, None, None, None, None
            )

    def test_lattice_consistency_sweep(self):
        # isd <= sd, isd <= ispum, sd <= spum, zeta <= sigma on every family
        texts = [f"path:{n}" for n in range(1, 40)]
        texts += [f"cycle:{n}" for n in range(3, 40)]
        texts += [f"complete:{n}" for n in range(1, 40)]
        texts += [f"matching:{n}" for n in range(1, 40)]
        texts += ["star:3", "complete_bipartite_balanced:3"]
        for text in texts:
            kv = known_values(spec(text))
            if kv.sigma is not None and kv.zeta is not None:
                assert kv.zeta <= kv.sigma, text
            # note ispum <= spum is NOT a law: cycle:12 has ispum 25 > spum 23
            for low_field, high_field in [
                (kv.isd, kv.sd), (kv.isd, kv.ispum), (kv.sd, kv.spum),
            ]:
                if low_field is None or high_field is None:
                    continue
                if low_field.lower is not None and high_field.upper is not None:
                    assert low_field.lower <= high_field.upper, text
            for field in (kv.spum, kv.ispum, kv.sd, kv.isd):
                if field is not None and None not in (field.lower, field.upper):
                    assert field.lower <= field.upper, text
