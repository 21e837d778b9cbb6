"""The benchmark's workloads: seeded inputs, the op list of one pass, and output checks.

Every op is a zero-argument call that looks its entry point up on the
module at call time, so the tracer's wrappers see it, plus a check that runs
outside the timed region.  Spans are recorded only while an op is open, so
the calls a check makes are never traced.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

# the paper's table and conjecture instances, as (invariant, target) pairs
TABLE_INSTANCES = (
    [("spum", f"path:{n}") for n in range(3, 11)]
    + [("ispum", f"cycle:{n}") for n in range(4, 11)]
    + [("sd", f"path:{n}") for n in range(3, 9)]
    + [("isd", f"path:{n}") for n in range(3, 8)]
)
HEAVY_TABLE_INSTANCES = [("spum", f"path:{n}") for n in (8, 9, 10)] + [
    ("ispum", f"cycle:{n}") for n in (8, 9, 10)
]

# random-graphs: for each of sd and isd, the pool is sorted by the golden cost
# of that search and one class is drawn from each of this many blocks, so
# every seed gets the same spread of short and long searches
RANDOM_GRAPH_BLOCKS = 50
# cost model for the sort: a leaf validation costs about this many DFS nodes
LEAF_COST_IN_NODES = 7

# constructions: sd_general sizes (vertices, edges); the first six induce
# at most 1024 labels (n + m), the rest more, so both induce paths run
SD_GENERAL_SIZES = (
    (12, 24), (20, 80), (30, 200), (40, 420), (52, 700), (64, 900),
    (48, 1000), (60, 1100), (70, 1250), (80, 1400), (90, 1100), (90, 1500),
)
BK_SETS = ((10, 4), (12, 3), (8, 4), (10, 3))
SIDON_SIZES = ((8, 20), (20, 40), (40, 80))
HYPER_GENERAL_SIZES = ((6, 3), (8, 3), (9, 3), (5, 4), (6, 4), (8, 4))
# search_hyper_sd shapes (n, k, edges, value, nodes): the seed relabels the
# vertices, which changes neither the value nor the node count
HYPER_SEARCH_SHAPES = (
    (4, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), 10, 803),
    (5, 3, ((0, 1, 2), (0, 1, 3), (2, 3, 4)), 8, 28),
    (5, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)), 11, 1445),
    (5, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)), 10, 644),
    (5, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)), 11, 415),
    (5, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)), 12, 1327),
)
UNARY_COMBINATORS = (
    "translate", "add-isolated", "add-vertex", "modify-delete-vertex",
    "modify-induced-subgraph", "modify-delete-edge", "modify-contract-edge",
    "modify-add-edge",
)
BINARY_COMBINATORS = ("union-scaled", "union-translated", "join")
COMBINATOR_REPEATS = 8
# vertex counts of the sd_general labelings fed to combinators (edges: 1.5n)
COMBINATOR_GRAPH_SIZES = (6, 7, 8, 9, 10, 11, 12, 6, 8, 10, 12, 9)
# composites above the 24-vertex isomorphism cap: they fail today and are
# counted as failed ops, never filtered out
CAP_ERROR = "capped at 24 vertices"


@dataclass
class Op:
    """One operation of a pass."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]
    may_fail_with: str | None = None


@dataclass
class Workload:
    """Inputs built at set-up time for one workload and seed."""

    jobs: int
    ops: list[Op]
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tables and tables-jobs2: the CLI, in-process, against golden stdout bytes
# ---------------------------------------------------------------------------


def cli_op(mods, invariant: str, target: str, jobs: int, golden: dict) -> Op:
    argv = ["search", "--invariant", invariant, "--target", target]
    if invariant == "spum":
        argv += ["--sigma", "1"]
    argv += ["--format", "json", "--jobs", str(jobs)]
    key = f"{invariant} {target}"
    want = golden[key]["stdout"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].main(argv)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        return code == 0 and stdout == want, stdout

    return Op(key, call, check)


def _tables(mods, instances, jobs: int) -> Workload:
    golden = json.loads((GOLDEN / "tables.json").read_text())
    ops = [cli_op(mods, inv, target, jobs, golden) for inv, target in instances]
    # jobs=2 validates the leaves of every window in a batch, so it has its own count
    leaves = "search.leaves" if jobs == 1 else f"search.leaves_jobs{jobs}"
    expected = {
        "search.nodes": sum(golden[op.name]["search.nodes"] for op in ops),
        "search.ranges": sum(golden[op.name]["search.ranges"] for op in ops),
        "search.leaves": sum(golden[op.name][leaves] for op in ops),
    }
    return Workload(jobs, ops, expected)


# ---------------------------------------------------------------------------
# random-graphs: seeded non-family graphs, search_sd and search_isd at jobs=1
# ---------------------------------------------------------------------------


def _random_graphs(mods, rng: random.Random) -> Workload:
    golden = json.loads((GOLDEN / "random_graphs.json").read_text())
    core, search = mods["core"], mods["search"]
    is_valid, label_range = core.is_valid_labeling, core.label_range
    ops = []
    expected = dict.fromkeys(("search.nodes", "search.leaves", "search.ranges"), 0)
    for invariant in ("sd", "isd"):
        pool = sorted(
            golden["classes"],
            key=lambda c: (
                c[invariant]["nodes"] + LEAF_COST_IN_NODES * c[invariant]["leaves"],
                c["n"],
                c["edges"],
            ),
        )
        size = len(pool) / RANDOM_GRAPH_BLOCKS
        for block in range(RANDOM_GRAPH_BLOCKS):
            cls = rng.choice(pool[round(block * size) : round((block + 1) * size)])
            n = cls["n"]
            perm = rng.sample(range(n), n)
            g = core.graph(n, [(perm[u], perm[v]) for u, v in cls["edges"]])
            if mods["families"].identify(g) is not None or g.isolated_vertices():
                raise ValueError(f"pool class {cls['edges']} is not a non-family graph")
            want = cls[invariant]
            expected["search.nodes"] += want["nodes"]
            expected["search.leaves"] += want["leaves"]
            expected["search.ranges"] += want["value"] - want["start"] + 1

            def call(g=g, fn=f"search_{invariant}"):
                return getattr(search, fn)(g, jobs=1)

            def check(cert, g=g, want=want):
                ok = (
                    cert.value == want["value"]
                    and cert.candidates_examined == want["nodes"]
                    and cert.exhausted_below
                    and cert.witness is not None
                    and label_range(cert.witness) == cert.value
                    and is_valid(cert.witness, g)
                )
                witness = None if cert.witness is None else cert.witness.labels
                return ok, (cert.value, witness, cert.candidates_examined)

            ops.append(Op(f"{invariant} n={n} m={len(cls['edges'])}", call, check))
    rng.shuffle(ops)
    return Workload(1, ops, expected)


# ---------------------------------------------------------------------------
# constructions: no graph search; B_k certification, big induction, combinators
# ---------------------------------------------------------------------------


def random_graph(core, rng: random.Random, n: int, m: int):
    """Isolate-free graph on n vertices with m edges, drawn by rejection."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = core.graph(n, rng.sample(pairs, m))
        if not g.isolated_vertices():
            return g


def _structure_check(core, labels, target, claimed=None, achieved=None, isolates=None):
    """Re-induce and compare edge count, isolates and degree sequence with target.

    Uses only induce and degree counting, so it holds above the 24-vertex
    isomorphism cap.
    """
    result = core.induce(labels)
    shape = result.core_graph
    ok = (
        shape.n == target.n
        and len(shape.edges) == len(target.edges)
        and sorted(shape.degrees()) == sorted(target.degrees())
        and result.isolate_count == len(labels.labels) - target.n
        and (isolates is None or result.isolate_count == isolates)
    )
    if claimed is not None:
        ok = ok and achieved == core.label_range(labels) and achieved <= claimed
    return ok


def _report_check(core, target, isolates=None):
    def check(report):
        ok = report.valid and _structure_check(
            core,
            report.labeling,
            target,
            report.claimed_range_bound,
            report.achieved_range,
            isolates,
        )
        digest = (report.labeling.labels, report.claimed_range_bound, report.achieved_range)
        return ok, digest

    return check


def _bk_coefficients_ok(elements, k: int) -> bool:
    """Every coefficient of (sum z^a)^k is at most k!, counted by multisets."""
    counts: dict[int, int] = {}
    for combo in combinations_with_replacement(elements, k):
        orderings = math.factorial(k)
        for value in set(combo):
            orderings //= math.factorial(combo.count(value))
        total = sum(combo)
        counts[total] = counts.get(total, 0) + orderings
    return max(counts.values()) <= math.factorial(k)


def _set_check(n: int, k: int):
    def check(result):
        elements = result.elements
        ok = (
            result.order_k == k
            and len(elements) == n
            and list(elements) == sorted(set(elements))
            and elements[0] >= 1
            and _bk_coefficients_ok(elements, k)
        )
        return ok, elements

    return check


def _edit_args(g, kind: str, rng: random.Random) -> dict | None:
    """Arguments for a modify edit whose result keeps every vertex covered."""
    adj = g.adjacency()
    edges = sorted(g.edges)
    if kind == "modify-delete-vertex":
        options = [v for v in range(g.n) if all(len(adj[w]) > 1 for w in adj[v])]
        return {"vertex": rng.choice(options)} if options and g.n > 2 else None
    if kind == "modify-induced-subgraph":
        for _ in range(50):
            keep = rng.sample(range(g.n), rng.randint(2, g.n - 1))
            if all(adj[v] & set(keep) for v in keep):
                return {"vertices": sorted(keep)}
        return None
    if kind == "modify-delete-edge":
        options = [(u, v) for u, v in edges if len(adj[u]) > 1 and len(adj[v]) > 1]
        return {"edge": rng.choice(options)} if options else None
    if kind == "modify-contract-edge":
        options = [(u, v) for u, v in edges if len(adj[u] | adj[v]) > 2]
        return {"edge": rng.choice(options)} if options else None
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges
    ]
    return {"edge": rng.choice(non_edges)} if non_edges else None


def _edited_graph(core, g, kind: str, args: dict):
    """The graph modify promises, built here independently of the program."""
    if kind in ("modify-delete-vertex", "modify-induced-subgraph"):
        keep = args.get("vertices") or [v for v in range(g.n) if v != args["vertex"]]
        index = {v: i for i, v in enumerate(keep)}
        return core.graph(
            len(keep), [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
        )
    u, v = args["edge"]
    edges = set(g.edges)
    if kind == "modify-add-edge":
        edges.add((u, v))
    elif kind == "modify-delete-edge":
        edges.discard((u, v))
    else:  # contract: u and v merge into one vertex
        merged = {
            tuple(sorted(v if w == u else w for w in e)) for e in edges if e != (u, v)
        }
        rest = [w for w in range(g.n) if w != u]
        index = {w: i for i, w in enumerate(rest)}
        return core.graph(len(rest), [(index[a], index[b]) for a, b in merged])
    return core.graph(g.n, edges)


def _combinator_op(mods, rng, kind: str, inputs, edit=None, big: bool = False) -> Op:
    core, con = mods["core"], mods["constructions"]
    if kind in BINARY_COMBINATORS:
        (lab1, g1), (lab2, g2) = inputs
        # which part is placed first may differ; the target is the same up to isomorphism
        if kind == "join":
            target = con.join_graph(g1, g2)
        else:
            target = con.disjoint_union_graph(g1, g2)
        fn = {
            "union-scaled": "disjoint_union_scaled",
            "union-translated": "disjoint_union_translated",
            "join": "join",
        }[kind]

        def call():
            return getattr(mods["constructions"], fn)(lab1, g1, lab2, g2)

        op = Op(f"{kind} {g1.n}+{g2.n}", call, _report_check(core, target))
        if big:
            op.may_fail_with = CAP_ERROR
        return op
    lab, g = inputs[0]
    if kind == "translate":
        x = core.label_range(lab) - 1 - lab.labels[0] + rng.randint(0, 40)

        def call():
            return mods["constructions"].translate(lab, g, x)

        def check(out):
            return _structure_check(core, out, g), out.labels

        return Op(f"translate n={g.n}", call, check)
    if kind == "add-isolated":
        k = rng.randint(1, 6)

        def call():
            return mods["constructions"].add_isolated(lab, g, k)

        base = core.induce(lab).isolate_count
        check = _report_check(core, g)

        def check_count(report):
            ok, digest = check(report)
            return ok and core.induce(report.labeling).isolate_count >= max(k, base), digest

        return Op(f"add-isolated n={g.n} k={k}", call, check_count)
    if kind == "add-vertex":
        neighbors = sorted(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))

        def call():
            return mods["constructions"].add_vertex(lab, g, neighbors)

        target = core.graph(g.n + 1, set(g.edges) | {(u, g.n) for u in neighbors})
        return Op(f"add-vertex n={g.n}", call, _report_check(core, target))
    operation = kind[len("modify-"):]

    def call():
        return mods["constructions"].modify(lab, g, operation, **edit)

    target = _edited_graph(core, g, kind, edit)
    return Op(f"{kind} n={g.n}", call, _report_check(core, target))


def _combinator_inputs(mods, rng: random.Random):
    """Positive labelings with their graphs: family constructions and sd_general."""
    core, con, fam = mods["core"], mods["constructions"], mods["families"]

    def family(kind, n):
        return fam.generate(fam.FamilySpec(kind, n))

    path, matching = fam.FamilyKind.PATH, fam.FamilyKind.MATCHING
    inputs = [(con.spum_path_even(n).labeling, family(path, n)) for n in range(4, 13, 2)]
    inputs += [(con.sd_path(n).labeling, family(path, n)) for n in (5, 7, 9, 11)]
    inputs += [(con.spum_matching(p).labeling, family(matching, p)) for p in (2, 3, 4, 5)]
    inputs.append((con.spum_cycle4().labeling, family(fam.FamilyKind.CYCLE, 4)))
    for n in COMBINATOR_GRAPH_SIZES:
        g = random_graph(core, rng, n, 3 * n // 2)
        inputs.append((con.sd_general(g).labeling, g))
    return inputs


def _constructions(mods, rng: random.Random) -> Workload:
    core, con, hyp, fam = mods["core"], mods["constructions"], mods["hypergraph"], mods["families"]
    ops: list[Op] = []
    for n, m in SD_GENERAL_SIZES:
        g = random_graph(core, rng, n, m)

        def call(g=g):
            return mods["constructions"].sd_general(g)

        ops.append(Op(f"sd_general n={n} m={m}", call, _report_check(core, g, isolates=m)))
    for n, k in BK_SETS:
        ops.append(Op(f"bk_set({n},{k})", lambda n=n, k=k: mods["constructions"].bk_set(n, k), _set_check(n, k)))
    for lo, hi in SIDON_SIZES:
        n = rng.randint(lo, hi)
        ops.append(Op(f"sidon_set({n})", lambda n=n: mods["constructions"].sidon_set(n), _set_check(n, 2)))

    inputs = _combinator_inputs(mods, rng)
    for _ in range(COMBINATOR_REPEATS):
        for kind in UNARY_COMBINATORS:
            lab, g = rng.choice(inputs)
            edit = None
            if kind.startswith("modify-"):
                edit = _edit_args(g, kind, rng)
                while edit is None:
                    lab, g = rng.choice(inputs)
                    edit = _edit_args(g, kind, rng)
            ops.append(_combinator_op(mods, rng, kind, [(lab, g)], edit))
        for kind in BINARY_COMBINATORS:
            while True:
                a, b = rng.sample(inputs, 2)
                if a[1].n + b[1].n <= 24:
                    break
            ops.append(_combinator_op(mods, rng, kind, [a, b]))
    # composites above 24 vertices: two 13-vertex sd_general labelings, P14 + P14
    big = []
    for _ in range(2):
        g = random_graph(core, rng, 13, rng.randint(16, 26))
        big.append((con.sd_general(g).labeling, g))
    for kind in BINARY_COMBINATORS:
        ops.append(_combinator_op(mods, rng, kind, big, big=True))
    p14 = (con.sd_path(14).labeling, fam.generate(fam.FamilySpec(fam.FamilyKind.PATH, 14)))
    ops.append(_combinator_op(mods, rng, "union-scaled", [p14, p14], big=True))

    for n, k in HYPER_GENERAL_SIZES:
        h = _random_hypergraph(hyp, rng, n, k, rng.randint(-(-n // k), n))

        def call(h=h):
            return mods["hypergraph"].hyper_general(h)

        ops.append(Op(f"hyper_general n={n} k={k}", call, _hyper_general_check(hyp, h)))
    for n, k, edges, value, nodes in HYPER_SEARCH_SHAPES:
        perm = rng.sample(range(n), n)
        h = hyp.hypergraph(n, k, [[perm[v] for v in e] for e in edges])

        def call(h=h):
            return mods["hypergraph"].search_hyper_sd(h)

        check = _hyper_search_check(core, hyp, h, value, nodes)
        ops.append(Op(f"search_hyper_sd n={n} k={k} m={len(edges)}", call, check))
    rng.shuffle(ops)
    expected = {"hypergraph.nodes": sum(shape[-1] for shape in HYPER_SEARCH_SHAPES)}
    return Workload(1, ops, expected)


def _random_hypergraph(hyp, rng: random.Random, n: int, k: int, m: int):
    """Isolate-free k-uniform hypergraph on n vertices with at least m edges.

    Shuffled vertices are first cut into covering edges, then random edges
    are added until there are m distinct ones.
    """
    order = rng.sample(range(n), n)
    edges = set()
    for i in range(0, n, k):
        block = order[i : i + k]
        block += rng.sample([v for v in range(n) if v not in block], k - len(block))
        edges.add(tuple(sorted(block)))
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return hyp.hypergraph(n, k, edges)


def _hyper_shape(result):
    h = result.core_hypergraph
    return h.n, len(h.edges), sorted(h.degrees())


def _hyper_general_check(hyp, h):
    def check(report):
        result = hyp.induce_hyper(report.labeling, h.k)
        ok = (
            report.valid
            and _hyper_shape(result) == (h.n, len(h.edges), sorted(h.degrees()))
            and result.isolate_count == len(h.edges)
            and report.achieved_range <= report.claimed_range_bound
        )
        return ok, report.labeling.labels

    return check


def _hyper_search_check(core, hyp, h, value: int, nodes: int):
    def check(cert):
        if cert.value is None:
            return False, None
        result = hyp.induce_hyper(cert.witness, h.k)
        ok = (
            cert.value == value
            and cert.candidates_examined == nodes
            and _hyper_shape(result) == (h.n, len(h.edges), sorted(h.degrees()))
            and core.label_range(cert.witness) == cert.value
            and cert.exhausted_below
        )
        return ok, (cert.value, cert.witness.labels, cert.candidates_examined)

    return check


# ---------------------------------------------------------------------------


WORKLOADS = ("tables", "random-graphs", "constructions", "tables-jobs2")


def build(name: str, mods: dict, seed: int) -> Workload:
    """Set up one workload: seeded inputs and the checks for its outputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "tables":
        return _tables(mods, TABLE_INSTANCES, 1)
    if name == "tables-jobs2":
        return _tables(mods, HEAVY_TABLE_INSTANCES, 2)
    if name == "random-graphs":
        return _random_graphs(mods, rng)
    if name == "constructions":
        return _constructions(mods, rng)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
