"""Regenerate the benchmark's golden files from the package in this checkout.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are trusted: the benchmark compares
every later run against these files.  It writes

- ``golden/tables.json``: CLI stdout bytes and the exact node, leaf and range
  counts of each table instance, with the jobs=2 leaf count for the heavy
  ones (values cross-checked against
  ``sumdiam.families``: equal to its exact values, inside its intervals);
- ``golden/random_graphs.json``: every isomorphism class of isolate-free
  graphs on 5 to 7 vertices with at most n + 2 edges that matches no named
  family and whose sd plus isd searches take at most ``NODE_CAP`` nodes,
  with value, witness and exact counts of both searches.
"""
from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

NODE_CAP = 60_000
# ROADMAP baselines the table counts must reproduce
BASELINE_NODES = {"spum path:9": 374_108, "ispum cycle:9": 273_062, "ispum cycle:10": 128_459}


def traced_call(tracer, fn):
    tracer.clear()
    tracer.install()
    try:
        tracer.begin_op(0)
        result = fn()
        tracer.end_op()
    finally:
        tracer.remove()
    return result, dict(tracer.counts)


def table_golden(mods) -> dict:
    tracer = tracing.Tracer(mods)
    families = mods["families"]
    golden = {}
    for invariant, target in workloads.TABLE_INSTANCES:
        placeholder = {f"{invariant} {target}": {"stdout": None}}
        op = workloads.cli_op(mods, invariant, target, 1, placeholder)
        (code, stdout), counts = traced_call(tracer, op.call)
        payload = json.loads(stdout)
        known = getattr(families.known_values(families.parse_spec(target)), invariant)
        value = payload["value"]
        if code != 0 or not _within(value, known):
            raise SystemExit(f"{op.name}: searched {value}, families give {known}")
        if counts["search.nodes"] != payload["candidates_examined"]:
            raise SystemExit(f"{op.name}: traced node count disagrees with the CLI")
        golden[op.name] = {
            "stdout": stdout,
            "search.nodes": counts["search.nodes"],
            "search.leaves": counts["search.leaves"],
            "search.ranges": counts["search.ranges"],
        }
        if (invariant, target) in workloads.HEAVY_TABLE_INSTANCES:
            # jobs=2 runs whole batches of windows, so it validates more
            # leaves than jobs=1; its stdout must not change
            op2 = workloads.cli_op(mods, invariant, target, 2, placeholder)
            (code2, stdout2), counts2 = traced_call(tracer, op2.call)
            if code2 != 0 or stdout2 != stdout:
                raise SystemExit(f"{op.name}: jobs=2 output differs from jobs=1")
            golden[op.name]["search.leaves_jobs2"] = counts2["search.leaves"]
        print(op.name, payload["value"], counts, flush=True)
    for name, nodes in BASELINE_NODES.items():
        if golden[name]["search.nodes"] != nodes:
            raise SystemExit(f"{name}: {golden[name]['search.nodes']} nodes, baseline {nodes}")
    return golden


def _within(value: int, known) -> bool:
    """Exact family values must match; intervals (isd on paths) must hold the value."""
    return (known.lower is None or known.lower <= value) and (
        known.upper is None or value <= known.upper
    )


def _invariant(n: int, edges) -> tuple:
    """Isomorphism-invariant key: degree, triangles and neighbour degrees per vertex."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(
        sorted(
            (
                len(adj[v]),
                sum(1 for a in adj[v] for b in adj[v] if a < b and b in adj[a]),
                tuple(sorted(len(adj[w]) for w in adj[v])),
            )
            for v in range(n)
        )
    )


def graph_classes(core, n: int, max_edges: int) -> list[list[tuple[int, int]]]:
    """One representative per isomorphism class, grown edge by edge."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    level = [frozenset()]
    found = []
    for _ in range(max_edges):
        buckets: dict[tuple, list] = {}
        nxt = []
        for edges in level:
            for pair in pairs:
                if pair in edges:
                    continue
                grown = edges | {pair}
                g = core.graph(n, grown)
                bucket = buckets.setdefault(_invariant(n, grown), [])
                if any(core.find_isomorphism(g, h) is not None for h in bucket):
                    continue
                bucket.append(g)
                nxt.append(grown)
        level = nxt
        found.extend(sorted(sorted(e) for e in level))
    return found


def random_graph_golden(mods) -> dict:
    core, search, families = mods["core"], mods["search"], mods["families"]
    tracer = tracing.Tracer(mods)
    classes, excluded = [], 0
    for n in (5, 6, 7):
        for edges in graph_classes(core, n, n + 2):
            g = core.graph(n, edges)
            if g.isolated_vertices() or families.identify(g) is not None:
                continue
            entry = {"n": n, "edges": [list(e) for e in edges]}
            budget = NODE_CAP
            try:
                for invariant in ("sd", "isd"):
                    fn = getattr(search, f"search_{invariant}")
                    cert, counts = traced_call(tracer, lambda: fn(g, budget=budget))
                    budget -= cert.candidates_examined
                    entry[invariant] = {
                        "value": cert.value,
                        "witness": list(cert.witness.labels),
                        "start": tracing.range_start(cert.window_bound_used),
                        "nodes": cert.candidates_examined,
                        "leaves": counts["search.leaves"],
                    }
            except search.BudgetExceededError:
                excluded += 1
                continue
            classes.append(entry)
            print(n, edges, entry["sd"]["nodes"] + entry["isd"]["nodes"], flush=True)
    return {
        "node_cap": NODE_CAP,
        "excluded_over_cap": excluded,
        "classes": classes,
    }


def dump_graphs(graphs: dict) -> str:
    """JSON with one pool class per line."""
    head = {k: v for k, v in graphs.items() if k != "classes"}
    lines = ",\n".join(json.dumps(c) for c in graphs["classes"])
    return json.dumps(head)[:-1] + ', "classes": [\n' + lines + "\n]}\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.load_program()
    workloads.GOLDEN.mkdir(exist_ok=True)
    tables = table_golden(mods)
    (workloads.GOLDEN / "tables.json").write_text(json.dumps(tables, indent=1) + "\n")
    graphs = random_graph_golden(mods)
    (workloads.GOLDEN / "random_graphs.json").write_text(dump_graphs(graphs))
    print(f"{len(graphs['classes'])} pool classes, {graphs['excluded_over_cap']} over the cap")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
