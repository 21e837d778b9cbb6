"""Characterization of the CLI: stdout bytes and exit code of every verb.

Each case of CORPUS runs once per output format. `cli_golden.json` holds
the stdout and exit code each run printed when the corpus was written; a
change to the CLI's rendering or dispatch must leave every one of them
byte-identical.

`PYTHONPATH=src python3 tests/test_cli_golden.py` appends the entries of
corpus cases that `cli_golden.json` lacks, from the package it imports. It
never rewrites an entry already there, so run it before a change, for the
cases that change adds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from sumdiam import cli
from sumdiam.cli import main

GRAPH_FILES = {
    "c4.json": '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}',
    "paw.json": '{"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]}',
}

CORPUS = [
    ("induce", "--labels", "1,2,3,4"),
    ("induce", "--labels=-3,-1,1,2,5"),
    ("verify", "--labels", "1,2,3,4", "--target", "path:3", "--isolates", "1"),
    ("verify", "--labels", "1,2,4,8", "--target", "path:3"),
    ("verify", "--labels", "1,2,3,4", "--target", "path:3", "--isolates", "2"),
    ("verify", "--labels=-3,-2,-1,1,2", "--target", "cycle:5"),
    ("verify", "--labels", "3,4,5,6,8,9,10", "--graph", "c4.json"),
    ("verify", "--labels", "1,2,3"),
    ("construct", "--name", "spum-matching", "--n", "3"),
    ("construct", "--name", "spum-matching", "--n", "3", "--verify"),
    ("construct", "--name", "spum-path-even", "--n", "4", "--verify"),
    ("construct", "--name", "sd-path", "--n", "5"),
    ("construct", "--name", "spum-cycle4"),
    ("construct", "--name", "ispum-cycle-odd", "--n", "15", "--verify"),
    ("construct", "--name", "ispum-cycle-odd", "--n", "5"),
    ("construct", "--name", "ispum-matching", "--n", "3"),
    ("construct", "--name", "sd-general", "--target", "path:4"),
    ("construct", "--name", "sd-general", "--graph", "paw.json", "--verify"),
    ("construct", "--name", "sd-path"),
    ("search", "--invariant", "spum", "--target", "path:5"),
    ("search", "--invariant", "isd", "--target", "cycle:5"),
    ("search", "--invariant", "ispum", "--target", "cycle:5", "--jobs", "2"),
    ("search", "--invariant", "sd", "--target", "path:4", "--max-range", "3"),
    ("search", "--invariant", "spum", "--graph", "paw.json", "--sigma", "1"),
    ("search", "--invariant", "ispum", "--graph", "paw.json"),
    ("bounds", "--target", "cycle:4"),
    ("bounds", "--target", "path:5"),
    ("bounds", "--target", "star:4"),
    ("bounds", "--target", "path:2"),
    ("bounds", "--graph", "paw.json"),
    ("combine", "--name", "translate", "--labels", "1,2,3", "--target", "path:2",
     "--x", "5"),
    ("combine", "--name", "translate", "--labels=-3,-2,-1,1,2", "--target", "cycle:5",
     "--x", "-5"),
    ("combine", "--name", "translate", "--labels", "1,2,3", "--target", "path:2",
     "--x", "-1"),
    ("combine", "--name", "union-scaled", "--labels", "1,2,3", "--target", "matching:1",
     "--labels", "1,2,3,4", "--target", "path:3"),
    ("combine", "--name", "union-translated", "--labels", "1,2,3", "--target", "path:2",
     "--labels", "1,2,3", "--target", "path:2"),
    ("combine", "--name", "join", "--labels", "1,2,3", "--target", "path:2",
     "--labels", "1,2,3", "--target", "path:2"),
    ("combine", "--name", "join", "--labels", "1,2,3", "--target", "path:2"),
    ("combine", "--name", "add-isolated", "--labels", "1,2,3", "--target", "path:2",
     "--isolates", "2"),
    ("combine", "--name", "add-vertex", "--labels", "1,2,3", "--target", "path:2",
     "--neighbors", "0,1"),
    ("combine", "--name", "modify-add-edge", "--labels", "1,2,3,4", "--target", "path:3",
     "--edge", "0,2"),
    ("combine", "--name", "modify-delete-vertex", "--labels", "1,2,3,4",
     "--target", "path:3", "--vertex", "2"),
    ("combine", "--name", "modify-induced-subgraph", "--labels", "1,2,3,4",
     "--target", "path:3", "--vertices", "0,1"),
    ("combine", "--name", "modify-delete-edge", "--labels", "3,4,5,6,8,9,10",
     "--target", "cycle:4", "--edge", "0,1"),
    ("combine", "--name", "modify-contract-edge", "--labels", "3,4,5,6,8,9,10",
     "--target", "cycle:4", "--edge", "0,1"),
    ("table", "--name", "spum-paths", "--to", "5"),
    ("table", "--name", "ispum-cycles", "--to", "5"),
    ("check-conjecture", "--name", "sd-paths", "--n", "5"),
    ("check-conjecture", "--name", "spum-paths-odd", "--n", "8"),
    ("check-conjecture", "--name", "spum-paths-odd", "--n", "4"),
]

FORMATS = ("text", "json", "csv")


def case_key(argv: tuple[str, ...], fmt: str) -> str:
    return " ".join((*argv, "--format", fmt))


def run_case(argv: tuple[str, ...], fmt: str) -> dict:
    """Exit code and stdout of one in-process run; stderr is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def write_graph_files(directory: Path) -> None:
    for name, text in GRAPH_FILES.items():
        (directory / name).write_text(text)


@pytest.fixture
def graph_dir(tmp_path, monkeypatch):
    write_graph_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def test_corpus_runs_every_construct_and_combine_name():
    names = {argv[2] for argv in CORPUS if argv[0] in ("construct", "combine")}
    assert names == set(cli.CONSTRUCTIONS) | set(cli.COMBINATORS)


def test_golden_covers_the_corpus_exactly():
    assert sorted(GOLDEN) == sorted(
        case_key(argv, fmt) for argv in CORPUS for fmt in FORMATS
    )


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_stdout_and_exit_code_are_pinned(graph_dir, argv, fmt):
    assert run_case(argv, fmt) == GOLDEN[case_key(argv, fmt)]


def append_missing_entries() -> list[str]:
    """Add the golden entry of every corpus run the file lacks; return their keys."""
    golden = json.loads(GOLDEN_PATH.read_text())
    missing = [
        (argv, fmt) for argv in CORPUS for fmt in FORMATS
        if case_key(argv, fmt) not in golden
    ]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_graph_files(Path(directory))
        os.chdir(directory)
        try:
            for argv, fmt in missing:
                golden[case_key(argv, fmt)] = run_case(argv, fmt)
        finally:
            os.chdir(home)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1))
    return [case_key(argv, fmt) for argv, fmt in missing]


if __name__ == "__main__":
    for key in append_missing_entries():
        print(f"added: {key}")
