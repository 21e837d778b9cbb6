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
    ConstructionError,
    ConstructionReport,
    add_isolated,
    add_vertex,
    disjoint_union_scaled,
    disjoint_union_translated,
    induces_as_labeled,
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
    parse_int,
    parse_labels,
    sd_lower_bound,
)
from .families import generate, identify, known_values, parse_spec
from .search import (
    CONJECTURE_NAMES,
    DEFAULT_NODE_BUDGET,
    TABLE_NAMES,
    BudgetExceededError,
    Invariant,
    check_conjecture,
    reproduce_table,
    run_search,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the flags that only some --name of construct or combine reads, in the order
# a misplaced one is reported
_NAME_SPECIFIC_FLAGS = (
    "target", "graph", "n", "x", "isolates", "neighbors", "vertex", "vertices", "edge"
)

_SPEC_FORM = re.compile(r"[a-z_]+:[0-9]+")
_NEGATIVE_VALUE = re.compile(r"-\d")


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


def _record(fields: dict, csv_keys: tuple[str, ...], exit_code: int = EXIT_OK) -> Output:
    """A one-record result: the JSON object is fields, the text is one
    `key: value` line per field, and the CSV is one row of the csv_keys fields."""
    lines = [f"{key}: {_text(value)}" for key, value in fields.items()]
    row = tuple(_text(fields[key]) for key in csv_keys)
    return Output(fields, [row], lines, exit_code)


def _read_graph_file(path: str) -> SimpleGraph:
    """Load a graph from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path!r}: {exc}") from exc
    try:
        return graph_from_json(text)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad graph JSON in {path!r}: {exc}") from exc


def _resolve_graph(value: str) -> SimpleGraph:
    """Load a graph from a family spec such as path:5, or else a JSON file."""
    if not _SPEC_FORM.fullmatch(value):
        return _read_graph_file(value)
    try:
        spec = parse_spec(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return generate(spec)


def _graph_arg(args) -> tuple[SimpleGraph, str]:
    """The graph of --target (a spec or a file) or --graph (a file only), and
    the argument as given."""
    target = getattr(args, "target", None)
    path = getattr(args, "graph", None)
    if (target is None) == (path is None):
        raise UsageError("exactly one of --target or --graph is required")
    if target is not None:
        return _resolve_graph(target), target
    return _read_graph_file(path), path


def _labels_arg(text: str):
    try:
        return labeling(parse_labels(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [parse_int(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers") from exc


def _int(text: str) -> int:
    """The type of every integer flag: argparse names the flag on an error."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    try:
        value = parse_int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _jobs(text: str) -> int:
    value = _positive_int(text)
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"expected at most {sys.maxsize}, got {text!r}")
    return value


def _budget() -> int:
    raw = os.environ.get("SUMDIAM_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError("SUMDIAM_BUDGET must be a positive integer") from exc


def _reject_unused_flags(args, used: tuple[str, ...]) -> None:
    """Usage error for a name-specific flag given that is not among used."""
    for flag in _NAME_SPECIFIC_FLAGS:
        if flag not in used and getattr(args, flag, None) is not None:
            raise UsageError(f"--{flag} does not apply to --name {args.name}")


def _required(args, flag: str):
    """The value of a flag this verb's --name cannot do without."""
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"{args.name} requires --{flag}")
    return value


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
    fields = {
        "labels": list(lab.labels),
        "target": echo,
        "valid": valid,
        # validation matched the core's vertex count to g's, so a valid
        # labeling's isolates are the other labels
        "isolate_count": len(lab.labels) - g.n if valid else induce(lab).isolate_count,
        "range": label_range(lab),
    }
    return _record(fields, tuple(fields), EXIT_OK if valid else EXIT_DOMAIN)


def _report_output(name: str, report: ConstructionReport, verify: bool) -> Output:
    fields = {
        "name": name,
        "labels": list(report.labeling.labels),
        "range": report.achieved_range,
        "claimed_bound": report.claimed_range_bound,
        "valid": report.valid,
    }
    csv_keys = tuple(fields)  # the CSV row has no verified column
    if verify:
        # the builder's own proof, re-run on the printed labels with the
        # vertex map it proved; no isomorphism is searched for
        fields["verified"] = induces_as_labeled(
            report.labeling, report.target, report.vertex_label
        )
    return _record(fields, csv_keys)


# construct --name -> (the name-specific flags it reads, its builder)
CONSTRUCTIONS = {
    "spum-path-even": (("n",), lambda args: spum_path_even(_required(args, "n"))),
    "sd-path": (("n",), lambda args: sd_path(_required(args, "n"))),
    "spum-cycle4": ((), lambda args: spum_cycle4()),
    "ispum-cycle-odd": (("n",), lambda args: ispum_cycle_odd(_required(args, "n"))),
    "spum-matching": (("n",), lambda args: spum_matching(_required(args, "n"))),
    "ispum-matching": (("n",), lambda args: ispum_matching(_required(args, "n"))),
    "sd-general": (("target", "graph"), lambda args: sd_general(_graph_arg(args)[0])),
}


def _cmd_construct(args) -> Output:
    used, build = CONSTRUCTIONS[args.name]
    _reject_unused_flags(args, used)
    return _report_output(args.name, build(args), args.verify)


def _cmd_search(args) -> Output:
    for flag, invariant in (("sigma", "spum"), ("zeta", "ispum")):
        if getattr(args, flag) is not None and args.invariant != invariant:
            raise UsageError(f"--{flag} applies only to --invariant {invariant}")
    g, echo = _graph_arg(args)
    cert = run_search(
        Invariant(args.invariant),
        g,
        sigma=args.sigma,
        zeta=args.zeta,
        max_range=args.max_range,
        jobs=args.jobs,
        budget=_budget(),
    )
    fields = {
        "invariant": args.invariant,
        "target": echo,
        "value": cert.value,
        "witness": None if cert.witness is None else list(cert.witness.labels),
        "exhausted_below": cert.exhausted_below,
        "candidates_examined": cert.candidates_examined,
    }
    out = _record(
        fields,
        ("invariant", "target", "value", "witness", "candidates_examined"),
        EXIT_OK if cert.value is not None else EXIT_DOMAIN,
    )
    out.payload["wall_time_ms"] = None
    return out


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
    fields = {
        "target": echo,
        "n": g.n,
        "edges": len(g.edges),
        "sd_lower_bound": sd_lower_bound(g),
        "isd_lower_bound": isd_lower_bound(g),
        "family": None if spec is None else spec.text(),
    }
    values = known_values(spec) if spec is not None else None
    known = None if values is None else {
        "sigma": values.sigma,
        "zeta": values.zeta,
        "spum": _range_json(values.spum),
        "ispum": _range_json(values.ispum),
        "sd": _range_json(values.sd),
        "isd": _range_json(values.isd),
    }
    out = _record(fields, tuple(fields))
    out.payload["known"] = known
    for key, value in (known or {}).items():
        if isinstance(value, list):
            value = f"[{_text(value[0])},{_text(value[1])}]"
        out.lines.append(f"{key}: {_text(value)}")
    return out


def _translate(args, pair) -> ConstructionReport:
    out = translate(*pair, _required(args, "x"))
    span = label_range(out)
    return ConstructionReport(out, None, span, span, True)


def _modify(args, pair) -> ConstructionReport:
    edge = None if args.edge is None else tuple(_int_list(args.edge, "--edge"))
    if edge is not None and len(edge) != 2:
        raise UsageError("--edge expects two comma-separated vertex ids")
    return modify(
        *pair,
        args.name.removeprefix("modify-"),
        vertex=args.vertex,
        vertices=_int_list(args.vertices, "--vertices") if args.vertices else None,
        edge=edge,
    )


# combine --name -> (the name-specific flags it reads besides --target, how
# many --labels/--target pairs it takes, its builder from args and the pairs)
COMBINATORS = {
    "translate": (("x",), 1, _translate),
    "union-scaled": ((), 2, lambda args, a, b: disjoint_union_scaled(*a, *b)),
    "union-translated": ((), 2, lambda args, a, b: disjoint_union_translated(*a, *b)),
    "add-isolated": (
        ("isolates",), 1, lambda args, a: add_isolated(*a, _required(args, "isolates"))
    ),
    "add-vertex": (
        ("neighbors",),
        1,
        lambda args, a: add_vertex(*a, _int_list(args.neighbors or "", "--neighbors")),
    ),
    "join": ((), 2, lambda args, a, b: join(*a, *b)),
    "modify-delete-vertex": (("vertex",), 1, _modify),
    "modify-induced-subgraph": (("vertices",), 1, _modify),
    "modify-delete-edge": (("edge",), 1, _modify),
    "modify-contract-edge": (("edge",), 1, _modify),
    "modify-add-edge": (("edge",), 1, _modify),
}


def _cmd_combine(args) -> Output:
    used, need, build = COMBINATORS[args.name]
    _reject_unused_flags(args, ("target", *used))
    labels = [_labels_arg(text) for text in args.labels or []]
    targets = [_resolve_graph(value) for value in args.target or []]
    if len(labels) != need or len(targets) != need:
        raise UsageError(
            f"{args.name} needs --labels and --target given {need} time(s) each"
        )
    return _report_output(args.name, build(args, *zip(labels, targets)), False)


def _cmd_check_conjecture(args) -> Output:
    rep = check_conjecture(args.name, args.n, jobs=args.jobs, budget=_budget())
    fields = {
        "name": rep.name,
        "n": rep.n,
        "conjectured": rep.conjectured_value,
        "searched": rep.searched_value,
        "matches": rep.matches,
        "witness": list(rep.witness.labels),
    }
    return _record(fields, ("name", "n", "conjectured", "searched", "matches"))


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a word that starts with a minus sign and a digit, such as the
    label list -3,-1,2, as a value; argparse alone takes it for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a word this matches as a value, since no flag of
        # this parser matches it; its own pattern accepts only one number
        self._negative_number_matcher = _NEGATIVE_VALUE


def _add_graph_flags(sub) -> None:
    sub.add_argument("--target", help="family spec like path:5, or a JSON file path")
    sub.add_argument("--graph", help="path to a graph JSON file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="sumdiam",
        description="Sum-graph labelings: induce, verify, construct, search.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("induce", help="induced sum graph of a label set")
    p.add_argument("--labels", required=True)
    p.set_defaults(handler=_cmd_induce)

    p = verbs.add_parser("verify", help="check a labeling against a target graph")
    p.add_argument("--labels", required=True)
    _add_graph_flags(p)
    p.add_argument("--isolates", type=_int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = verbs.add_parser("construct", help="run a named closed-form construction")
    p.add_argument("--name", required=True, choices=CONSTRUCTIONS)
    p.add_argument("--n", type=_int, default=None)
    _add_graph_flags(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_construct)

    p = verbs.add_parser("search", help="exact minimum-range search")
    p.add_argument(
        "--invariant", required=True, choices=("spum", "ispum", "sd", "isd")
    )
    _add_graph_flags(p)
    p.add_argument("--sigma", type=_int, default=None)
    p.add_argument("--zeta", type=_int, default=None)
    p.add_argument("--max-range", type=_int, default=None)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(handler=_cmd_search)

    p = verbs.add_parser("table", help="reproduce an initial-values table")
    p.add_argument("--name", required=True, choices=TABLE_NAMES)
    p.add_argument("--to", type=_int, required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(handler=_cmd_table)

    p = verbs.add_parser("bounds", help="lower bounds and known family values")
    _add_graph_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = verbs.add_parser("combine", help="apply a labeling combinator")
    p.add_argument("--name", required=True, choices=COMBINATORS)
    p.add_argument("--labels", action="append")
    p.add_argument("--target", action="append")
    p.add_argument("--x", type=_int, default=None)
    p.add_argument("--isolates", type=_int, default=None)
    p.add_argument("--neighbors", default=None)
    p.add_argument("--vertex", type=_int, default=None)
    p.add_argument("--vertices", default=None)
    p.add_argument("--edge", default=None)
    p.set_defaults(handler=_cmd_combine)

    p = verbs.add_parser(
        "check-conjecture", help="search an instance of a stated conjecture"
    )
    p.add_argument("--name", required=True, choices=CONJECTURE_NAMES)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(handler=_cmd_check_conjecture)

    for p in verbs.choices.values():
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
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
