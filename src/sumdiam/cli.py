"""Command-line surface binding induction, constructions, search, and tables."""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .constructions import (
    MODIFY_OPERATIONS,
    ConstructionError,
    ConstructionReport,
    add_isolated,
    add_vertex,
    disjoint_union_scaled,
    disjoint_union_translated,
    ispum_cycle_odd,
    ispum_matching,
    join,
    modify,
    sd_general,
    sd_path,
    spum_cycle4,
    spum_matching,
    spum_path_even,
    translate,
)
from .core import (
    SimpleGraph,
    graph_from_json,
    induce,
    is_valid_labeling,
    isd_lower_bound,
    label_range,
    labeling,
    labels_to_text,
    parse_labels,
    sd_lower_bound,
)
from .families import FamilySpec, generate, identify, known_values, parse_spec
from .search import (
    CONJECTURE_NAMES,
    DEFAULT_NODE_BUDGET,
    TABLE_NAMES,
    BudgetExceededError,
    Invariant,
    SearchProblem,
    check_conjecture,
    reproduce_table,
    run_search,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONSTRUCT_NAMES = (
    "spum-path-even",
    "sd-path",
    "spum-cycle4",
    "ispum-cycle-odd",
    "spum-matching",
    "ispum-matching",
    "sd-general",
)
COMBINE_NAMES = (
    "translate",
    "union-scaled",
    "union-translated",
    "add-isolated",
    "add-vertex",
    "join",
) + tuple(f"modify-{op}" for op in MODIFY_OPERATIONS)

_SPEC_FORM = re.compile(r"[a-z_]+:\d+")


class UsageError(Exception):
    """Malformed input caught before dispatch; exits with status 2."""


@dataclass
class Output:
    """Per-verb result in all three renderings."""

    payload: dict
    rows: list[tuple]
    lines: list[str]
    exit_code: int = EXIT_OK


def _text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return labels_to_text(value)
    return str(value)


def _resolve_graph(value: str) -> tuple[SimpleGraph, FamilySpec | None]:
    """Load a graph from a FamilySpec string or a JSON file path."""
    if _SPEC_FORM.fullmatch(value):
        try:
            spec = parse_spec(value)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return generate(spec), spec
    path = Path(value)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read graph file {value!r}: {exc}") from exc
    try:
        return graph_from_json(text), None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad graph JSON in {value!r}: {exc}") from exc


def _graph_arg(args) -> tuple[SimpleGraph, str]:
    target = getattr(args, "target", None)
    path = getattr(args, "graph", None)
    if (target is None) == (path is None):
        raise UsageError("exactly one of --target or --graph is required")
    value = target if target is not None else path
    g, _spec = _resolve_graph(value)
    return g, value


def _labels_arg(text: str):
    try:
        return labeling(parse_labels(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _budget() -> int:
    raw = os.environ.get("SUMDIAM_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError("SUMDIAM_BUDGET must be a positive integer") from exc


def _range_json(vr) -> list | None:
    return None if vr is None else [vr.lower, vr.upper]


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_induce(args) -> Output:
    lab = _labels_arg(args.labels)
    result = induce(lab)
    edges = sorted(
        (result.label_of[u], result.label_of[v]) for u, v in result.graph.edges
    )
    payload = {
        "labels": list(lab.labels),
        "edges": [list(e) for e in edges],
        "isolated": list(result.isolated_labels),
        "core": list(result.core_label_of),
    }
    lines = [
        f"labels: {labels_to_text(lab.labels)}",
        "edges: " + ",".join(f"[{a},{b}]" for a, b in edges),
        f"isolated: {labels_to_text(result.isolated_labels)}",
        f"core: {labels_to_text(result.core_label_of)}",
    ]
    rows = [("labels", labels_to_text(lab.labels))]
    rows += [("edge", a, b) for a, b in edges]
    rows += [("isolated", v) for v in result.isolated_labels]
    return Output(payload, rows, lines)


def _cmd_verify(args) -> Output:
    lab = _labels_arg(args.labels)
    g, echo = _graph_arg(args)
    valid = is_valid_labeling(lab, g, exact_isolates=args.isolates)
    result = induce(lab)
    payload = {
        "labels": list(lab.labels),
        "target": echo,
        "valid": valid,
        "isolate_count": result.isolate_count,
        "range": label_range(lab),
    }
    lines = [
        f"labels: {labels_to_text(lab.labels)}",
        f"target: {echo}",
        f"valid: {_text(valid)}",
        f"isolate_count: {result.isolate_count}",
        f"range: {label_range(lab)}",
    ]
    rows = [
        (
            labels_to_text(lab.labels),
            echo,
            _text(valid),
            result.isolate_count,
            label_range(lab),
        )
    ]
    return Output(payload, rows, lines, EXIT_OK if valid else EXIT_DOMAIN)


def _construct_report(args) -> ConstructionReport:
    name = args.name
    if name == "spum-cycle4":
        return spum_cycle4()
    if name == "sd-general":
        g, _echo = _graph_arg(args)
        return sd_general(g)
    if args.n is None:
        raise UsageError(f"construction {name!r} requires --n")
    maker = {
        "spum-path-even": spum_path_even,
        "sd-path": sd_path,
        "ispum-cycle-odd": ispum_cycle_odd,
        "spum-matching": spum_matching,
        "ispum-matching": ispum_matching,
    }[name]
    return maker(args.n)


def _report_output(name: str, report: ConstructionReport, verify: bool) -> Output:
    labels = report.labeling.labels
    verified = None
    if verify:
        verified = is_valid_labeling(report.labeling, report.target)
    payload = {
        "name": name,
        "labels": list(labels),
        "range": report.achieved_range,
        "claimed_bound": report.claimed_range_bound,
        "valid": report.valid,
    }
    lines = [
        f"name: {name}",
        f"labels: {labels_to_text(labels)}",
        f"range: {report.achieved_range}",
        f"claimed_bound: {report.claimed_range_bound}",
        f"valid: {_text(report.valid)}",
    ]
    if verified is not None:
        payload["verified"] = verified
        lines.append(f"verified: {_text(verified)}")
    rows = [
        (
            name,
            labels_to_text(labels),
            report.achieved_range,
            report.claimed_range_bound,
            _text(report.valid),
        )
    ]
    return Output(payload, rows, lines)


def _cmd_construct(args) -> Output:
    report = _construct_report(args)
    return _report_output(args.name, report, args.verify)


def _cmd_search(args) -> Output:
    g, echo = _graph_arg(args)
    target = parse_spec(echo) if _SPEC_FORM.fullmatch(echo) else g
    problem = SearchProblem(
        invariant=Invariant(args.invariant),
        target=target,
        max_range=args.max_range,
        jobs=args.jobs,
        sigma=args.sigma,
        zeta=args.zeta,
    )
    cert = run_search(problem, budget=_budget())
    witness = None if cert.witness is None else list(cert.witness.labels)
    payload = {
        "invariant": args.invariant,
        "target": echo,
        "value": cert.value,
        "witness": witness,
        "exhausted_below": cert.exhausted_below,
        "candidates_examined": cert.candidates_examined,
        "wall_time_ms": None,
    }
    lines = [
        f"invariant: {args.invariant}",
        f"target: {echo}",
        f"value: {_text(cert.value)}",
        f"witness: {_text(witness)}",
        f"exhausted_below: {_text(cert.exhausted_below)}",
        f"candidates_examined: {cert.candidates_examined}",
    ]
    rows = [
        (
            args.invariant,
            echo,
            _text(cert.value),
            _text(witness),
            cert.candidates_examined,
        )
    ]
    code = EXIT_OK if cert.value is not None else EXIT_DOMAIN
    return Output(payload, rows, lines, code)


def _cmd_table(args) -> Output:
    rows = reproduce_table(args.name, args.to, jobs=args.jobs, budget=_budget())
    payload = {
        "name": args.name,
        "rows": [
            {"n": r.n, "labels": list(r.labels), "value": r.value} for r in rows
        ],
    }
    lines = [
        f"n={r.n} value={r.value} labels={labels_to_text(r.labels)}" for r in rows
    ]
    csv_rows = [(r.n, labels_to_text(r.labels), r.value) for r in rows]
    return Output(payload, csv_rows, lines)


def _cmd_bounds(args) -> Output:
    g, echo = _graph_arg(args)
    spec = identify(g)
    family = None if spec is None else f"{spec.kind.value}:{spec.n}"
    values = known_values(spec) if spec is not None else None
    payload = {
        "target": echo,
        "n": g.n,
        "edges": len(g.edges),
        "sd_lower_bound": sd_lower_bound(g),
        "isd_lower_bound": isd_lower_bound(g),
        "family": family,
        "known": None,
    }
    lines = [
        f"target: {echo}",
        f"n: {g.n}",
        f"edges: {len(g.edges)}",
        f"sd_lower_bound: {sd_lower_bound(g)}",
        f"isd_lower_bound: {isd_lower_bound(g)}",
        f"family: {_text(family)}",
    ]
    if values is not None:
        known = {
            "sigma": values.sigma,
            "zeta": values.zeta,
            "spum": _range_json(values.spum),
            "ispum": _range_json(values.ispum),
            "sd": _range_json(values.sd),
            "isd": _range_json(values.isd),
        }
        payload["known"] = known
        for key, value in known.items():
            if isinstance(value, list):
                lines.append(f"{key}: [{_text(value[0])},{_text(value[1])}]")
            else:
                lines.append(f"{key}: {_text(value)}")
    rows = [
        (
            echo,
            g.n,
            len(g.edges),
            sd_lower_bound(g),
            isd_lower_bound(g),
            _text(family),
        )
    ]
    return Output(payload, rows, lines)


def _combine_report(args):
    name = args.name
    labels = [_labels_arg(text) for text in args.labels or []]
    targets = []
    for value in args.target or []:
        g, _spec = _resolve_graph(value)
        targets.append(g)
    binary = name in ("union-scaled", "union-translated", "join")
    need = 2 if binary else 1
    if len(labels) != need or len(targets) != need:
        raise UsageError(
            f"{name} needs --labels and --target given {need} time(s) each"
        )
    if name == "translate":
        if args.x is None:
            raise UsageError("translate requires --x")
        out = translate(labels[0], targets[0], args.x)
        return labeling_report(out)
    if name == "union-scaled":
        return disjoint_union_scaled(labels[0], targets[0], labels[1], targets[1])
    if name == "union-translated":
        return disjoint_union_translated(labels[0], targets[0], labels[1], targets[1])
    if name == "join":
        return join(labels[0], targets[0], labels[1], targets[1])
    if name == "add-isolated":
        if args.isolates is None:
            raise UsageError("add-isolated requires --isolates")
        return add_isolated(labels[0], targets[0], args.isolates)
    if name == "add-vertex":
        neighbors = _int_list(args.neighbors or "", "--neighbors")
        return add_vertex(labels[0], targets[0], neighbors)
    operation = name[len("modify-"):]
    edge = None
    if args.edge is not None:
        pair = _int_list(args.edge, "--edge")
        if len(pair) != 2:
            raise UsageError("--edge expects two comma-separated vertex ids")
        edge = (pair[0], pair[1])
    vertices = _int_list(args.vertices, "--vertices") if args.vertices else None
    return modify(
        labels[0],
        targets[0],
        operation,
        vertex=args.vertex,
        vertices=vertices,
        edge=edge,
    )


def labeling_report(lab) -> ConstructionReport:
    """Wrap a bare labeling as a report with no claimed bound of its own."""
    return ConstructionReport(
        labeling=lab,
        target=None,
        claimed_range_bound=label_range(lab),
        achieved_range=label_range(lab),
        valid=True,
    )


def _cmd_combine(args) -> Output:
    report = _combine_report(args)
    return _report_output(args.name, report, False)


def _cmd_check_conjecture(args) -> Output:
    rep = check_conjecture(args.name, args.n, jobs=args.jobs, budget=_budget())
    witness = list(rep.witness.labels)
    payload = {
        "name": rep.name,
        "n": rep.n,
        "conjectured": rep.conjectured_value,
        "searched": rep.searched_value,
        "matches": rep.matches,
        "witness": witness,
    }
    lines = [
        f"name: {rep.name}",
        f"n: {rep.n}",
        f"conjectured: {rep.conjectured_value}",
        f"searched: {rep.searched_value}",
        f"matches: {_text(rep.matches)}",
        f"witness: {labels_to_text(witness)}",
    ]
    rows = [
        (
            rep.name,
            rep.n,
            rep.conjectured_value,
            rep.searched_value,
            _text(rep.matches),
        )
    ]
    return Output(payload, rows, lines)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _add_graph_flags(sub) -> None:
    sub.add_argument("--target", help="family spec like path:5, or a JSON file path")
    sub.add_argument("--graph", help="path to a graph JSON file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sumdiam",
        description="Sum-graph labelings: induce, verify, construct, search.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("induce", help="induced sum graph of a label set")
    p.add_argument("--labels", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_induce)

    p = verbs.add_parser("verify", help="check a labeling against a target graph")
    p.add_argument("--labels", required=True)
    _add_graph_flags(p)
    p.add_argument("--isolates", type=int, default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = verbs.add_parser("construct", help="run a named closed-form construction")
    p.add_argument("--name", required=True, choices=CONSTRUCT_NAMES)
    p.add_argument("--n", type=int, default=None)
    _add_graph_flags(p)
    p.add_argument("--verify", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_construct)

    p = verbs.add_parser("search", help="exact minimum-range search")
    p.add_argument(
        "--invariant", required=True, choices=("spum", "ispum", "sd", "isd")
    )
    _add_graph_flags(p)
    p.add_argument("--sigma", type=int, default=None)
    p.add_argument("--zeta", type=int, default=None)
    p.add_argument("--max-range", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_search)

    p = verbs.add_parser("table", help="reproduce an initial-values table")
    p.add_argument("--name", required=True, choices=TABLE_NAMES)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_table)

    p = verbs.add_parser("bounds", help="lower bounds and known family values")
    _add_graph_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_bounds)

    p = verbs.add_parser("combine", help="apply a labeling combinator")
    p.add_argument("--name", required=True, choices=COMBINE_NAMES)
    p.add_argument("--labels", action="append")
    p.add_argument("--target", action="append")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--isolates", type=int, default=None)
    p.add_argument("--neighbors", default=None)
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--vertices", default=None)
    p.add_argument("--edge", default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_combine)

    p = verbs.add_parser(
        "check-conjecture", help="search an instance of a stated conjecture"
    )
    p.add_argument("--name", required=True, choices=CONJECTURE_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_check_conjecture)

    return parser


def _emit(out: Output, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(out.payload) + "\n")
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerows(out.rows)
    else:
        for line in out.lines:
            stream.write(line + "\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    start = time.perf_counter()
    try:
        out = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        elapsed = int((time.perf_counter() - start) * 1000)
        print(f"wall_time_ms={elapsed}", file=sys.stderr)
    _emit(out, args.format, sys.stdout)
    return out.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
