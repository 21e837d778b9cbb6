"""CLI tests: exact output bytes, exit codes, and determinism."""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from sumdiam import cli, families, search
from sumdiam.cli import main
from sumdiam.constructions import MODIFY_OPERATIONS

C4_JSON = '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}'
PAW_JSON = '{"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]}'


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return captured.out, captured.err


def _limit_address_space():
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_bounded(*argv):
    """Run the CLI in a child process limited to 512 MiB of address space.

    An argument that makes the program allocate without bound ends there in
    a MemoryError instead of exhausting the machine's memory.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "sumdiam.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=120,
    )


class TestInduce:
    def test_json_bytes(self, capsys):
        out, _ = run(capsys, "induce", "--labels", "1,2,3,4", "--format", "json")
        assert out == (
            '{"labels": [1, 2, 3, 4], "edges": [[1, 2], [1, 3]],'
            ' "isolated": [4], "core": [1, 2, 3]}\n'
        )

    def test_text_bytes(self, capsys):
        out, _ = run(capsys, "induce", "--labels", "1,2,3,4")
        assert out == (
            "labels: 1,2,3,4\n"
            "edges: [1,2],[1,3]\n"
            "isolated: 4\n"
            "core: 1,2,3\n"
        )

    def test_csv_bytes(self, capsys):
        out, _ = run(capsys, "induce", "--labels", "1,2,3,4", "--format", "csv")
        assert out == 'labels,"1,2,3,4"\nedge,1,2\nedge,1,3\nisolated,4\n'

    def test_json_array_labels(self, capsys):
        out, _ = run(capsys, "induce", "--labels", "[1, 2, 3]", "--format", "json")
        assert json.loads(out)["edges"] == [[1, 2]]

    def test_bad_labels_usage_error(self, capsys):
        run(capsys, "induce", "--labels", "1,two,3", expect=2)
        run(capsys, "induce", "--labels", "1,1,2", expect=2)

    def test_deeply_nested_labels_usage_error(self, capsys):
        # past the JSON decoder's recursion depth
        _, err = run(capsys, "induce", "--labels", "[" * 200_000, expect=2)
        assert err.startswith("error: JSON is nested too deeply\n")


def write_chorded_c30(tmp_path, capsys):
    """C30(1, 2, 5) plus the chord 0-15, a 30-vertex graph of no family, as
    a JSON file; its path and the labels construct --name sd-general prints."""
    edges = [[i, (i + d) % 30] for i in range(30) for d in (1, 2, 5)] + [[0, 15]]
    path = tmp_path / "c30.json"
    path.write_text(json.dumps({"n": 30, "edges": edges}))
    assert families.identify(cli._read_graph_file(str(path))) is None
    out, _ = run(
        capsys, "construct", "--name", "sd-general", "--graph", str(path),
        "--format", "json",
    )
    return str(path), ",".join(map(str, json.loads(out)["labels"]))


class TestVerify:
    def test_valid_exit_zero(self, capsys):
        out, _ = run(
            capsys, "verify", "--labels", "1,2,3,4", "--target", "path:3",
            "--isolates", "1",
        )
        assert "valid: true" in out

    def test_invalid_exit_one(self, capsys):
        out, _ = run(
            capsys, "verify", "--labels", "1,2,4,8", "--target", "path:3", expect=1
        )
        assert "valid: false" in out

    def test_isolate_count_mismatch(self, capsys):
        out, _ = run(
            capsys, "verify", "--labels", "1,2,3,4", "--target", "path:3",
            "--isolates", "2", expect=1,
        )
        assert "valid: false" in out

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_JSON)
        out, _ = run(
            capsys, "verify", "--labels", "3,4,5,6,8,9,10", "--graph", str(path)
        )
        assert "valid: true" in out

    def test_non_family_graph_past_24_vertices(self, capsys, tmp_path):
        path, labels = write_chorded_c30(tmp_path, capsys)
        assert labels.count(",") == 120
        out, _ = run(
            capsys, "verify", "--labels", labels, "--graph", path, "--format", "json"
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert data["isolate_count"] == 91
        assert data["range"] == 14401

    def test_target_and_graph_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(C4_JSON)
        run(
            capsys, "verify", "--labels", "1,2,3", "--target", "path:2",
            "--graph", str(path), expect=2,
        )
        run(capsys, "verify", "--labels", "1,2,3", expect=2)

    def test_missing_file_usage_error(self, capsys):
        run(
            capsys, "verify", "--labels", "1,2,3", "--graph", "/no/such/file.json",
            expect=2,
        )


class TestNegativeLabels:
    @pytest.mark.parametrize(
        "argv",
        [
            ("induce", "--labels", "-3,-1,1,2,5"),
            ("verify", "--labels", "-3,-2,-1,1,2", "--target", "cycle:5"),
            ("verify", "--labels", "-3", "--target", "path:2"),
            ("combine", "--name", "translate", "--labels", "-3,-2,-1,1,2",
             "--target", "cycle:5", "--x", "5"),
        ],
        ids=["induce", "verify", "verify-one-label", "combine"],
    )
    def test_plain_form_reads_as_the_equals_form(self, capsys, argv):
        # argparse alone takes a word such as -3,-1,2 for a flag
        at = argv.index("--labels")
        joined = [*argv[:at], f"--labels={argv[at + 1]}", *argv[at + 2:]]
        code = main(joined)
        want = capsys.readouterr().out
        assert main(list(argv)) == code
        got = capsys.readouterr()
        assert got.out == want
        assert "expected one argument" not in got.err

    def test_search_witness_passes_back_to_verify(self, capsys):
        out, _ = run(capsys, "search", "--invariant", "isd", "--target", "cycle:5")
        witness = dict(line.split(": ") for line in out.splitlines())["witness"]
        assert witness.startswith("-")
        out, _ = run(capsys, "verify", "--labels", witness, "--target", "cycle:5")
        assert "valid: true" in out.splitlines()

    def test_negative_x_is_still_a_value(self, capsys):
        _, err = run(
            capsys, "combine", "--name", "translate", "--labels", "1,2,3",
            "--target", "path:2", "--x", "-5", expect=1,
        )
        assert err.startswith("error: translation needs x >= 0\n")

    def test_unknown_flag_is_still_a_usage_error(self, capsys):
        _, err = run(capsys, "induce", "--labels", "1,2", "-x", expect=2)
        assert "unrecognized arguments: -x" in err


class TestConstruct:
    def test_spum_matching_json(self, capsys):
        out, _ = run(
            capsys, "construct", "--name", "spum-matching", "--n", "3",
            "--verify", "--format", "json",
        )
        assert out == (
            '{"name": "spum-matching", "labels": [5, 6, 7, 8, 9, 10, 15],'
            ' "range": 10, "claimed_bound": 10, "valid": true, "verified": true}\n'
        )

    def test_spum_cycle4_needs_no_n(self, capsys):
        out, _ = run(capsys, "construct", "--name", "spum-cycle4", "--format", "json")
        assert json.loads(out)["labels"] == [3, 4, 5, 6, 8, 9, 10]

    def test_sd_general_takes_graph(self, capsys):
        out, _ = run(
            capsys, "construct", "--name", "sd-general", "--target", "path:4",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert len(data["labels"]) == 7

    def test_missing_n_usage_error(self, capsys):
        _, err = run(capsys, "construct", "--name", "sd-path", expect=2)
        assert err.startswith("error: sd-path requires --n\n")

    def test_unknown_name_usage_error(self, capsys):
        run(capsys, "construct", "--name", "mystery", "--n", "3", expect=2)

    def test_domain_error_exit_one(self, capsys):
        run(capsys, "construct", "--name", "spum-path-even", "--n", "5", expect=1)

    @pytest.mark.parametrize("name, n", [
        ("spum-path-even", 10**20),
        ("sd-path", 10**20),
        ("ispum-cycle-odd", 10**20 + 1),
        ("spum-matching", 10**20),
        ("ispum-matching", 10**20),
    ])
    def test_labels_past_64_bits_exit_one(self, capsys, name, n):
        out, err = run(capsys, "construct", "--name", name, "--n", str(n), expect=1)
        assert out == ""
        assert err.startswith("error: label ")
        assert "exceeds the 64-bit signed range" in err

    @pytest.mark.parametrize("name, n", [
        ("spum-path-even", 10**9),
        ("sd-path", 10**9),
        ("ispum-cycle-odd", 10**9 + 1),
        ("spum-matching", 10**9),
        ("ispum-matching", 10**9),
    ])
    def test_label_count_past_the_cap_exits_one(self, name, n):
        done = run_bounded("construct", "--name", name, "--n", str(n))
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert "labels exceed the cap of 1048576" in done.stderr

    def test_flag_the_name_does_not_read_is_a_usage_error(self, capsys):
        out, err = run(
            capsys, "construct", "--name", "spum-cycle4", "--n", "99",
            "--target", "path:3", expect=2,
        )
        assert out == ""
        assert err.startswith("error: --target does not apply to --name spum-cycle4\n")

    @pytest.mark.parametrize("name, argv, flag", [
        ("sd-path", ("--n", "5", "--target", "path:3"), "--target"),
        ("sd-path", ("--n", "5", "--graph", "g.json"), "--graph"),
        ("spum-cycle4", ("--n", "4"), "--n"),
        ("sd-general", ("--target", "path:4", "--n", "4"), "--n"),
    ])
    def test_each_unread_flag_is_named(self, capsys, name, argv, flag):
        out, err = run(capsys, "construct", "--name", name, *argv, expect=2)
        assert out == ""
        assert err.startswith(f"error: {flag} does not apply to --name {name}\n")

    def test_verify_above_the_isomorphism_cap(self, capsys, tmp_path):
        # --verify re-runs the builder's count on the printed labels, with no
        # isomorphism search
        path, _ = write_chorded_c30(tmp_path, capsys)
        argv = ("construct", "--name", "sd-general", "--graph", path)
        plain, _ = run(capsys, *argv, "--format", "json")
        out, _ = run(capsys, *argv, "--verify", "--format", "json")
        data = json.loads(out)
        assert data["range"] == 14401
        assert data["verified"] is True
        assert data == dict(json.loads(plain), verified=True)

    def test_output_roundtrips_through_verify(self, capsys):
        out, _ = run(
            capsys, "construct", "--name", "sd-path", "--n", "6", "--format", "json"
        )
        labels = ",".join(str(v) for v in json.loads(out)["labels"])
        run(capsys, "verify", "--labels", labels, "--target", "path:6")


class TestSearch:
    def test_text_bytes(self, capsys):
        out, _ = run(capsys, "search", "--invariant", "spum", "--target", "path:5")
        assert out == (
            "invariant: spum\n"
            "target: path:5\n"
            "value: 7\n"
            "witness: 1,2,4,5,6,8\n"
            "exhausted_below: true\n"
            "candidates_examined: 24\n"
        )

    def test_json_payload(self, capsys):
        out, _ = run(
            capsys, "search", "--invariant", "ispum", "--target", "cycle:5",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["value"] == 5
        assert data["witness"] == [-3, -2, -1, 1, 2]
        assert data["exhausted_below"] is True
        assert data["wall_time_ms"] is None

    def test_infeasible_exit_one(self, capsys):
        out, _ = run(
            capsys, "search", "--invariant", "spum", "--target", "path:4",
            "--max-range", "3", "--format", "json", expect=1,
        )
        assert json.loads(out)["value"] is None

    def test_budget_env_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("SUMDIAM_BUDGET", "100")
        _, err = run(
            capsys, "search", "--invariant", "spum", "--target", "path:7", expect=3
        )
        assert "budget of 100" in err

    @pytest.mark.parametrize(
        "invariant, flag", [("spum", "--sigma"), ("ispum", "--zeta")]
    )
    def test_huge_isolate_count_exits_three(self, capsys, invariant, flag):
        _, err = run(
            capsys, "search", "--invariant", invariant, "--target", "cycle:3",
            flag, str(10**20), expect=3,
        )
        assert err.startswith("error: budget of ")

    def test_wide_isolate_window_stays_bounded(self, monkeypatch):
        # the first ispum window of range about zeta is all negative and the
        # DFS includes straight through about zeta offsets: per-window state
        # that grows with the square of the offset reached passes 512 MiB
        # here, where the search must end on its budget
        monkeypatch.setenv("SUMDIAM_BUDGET", "100100")
        done = run_bounded(
            "search", "--invariant", "ispum", "--target", "cycle:3",
            "--zeta", "100000",
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: budget of 100100 ")

    def test_bad_budget_env_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SUMDIAM_BUDGET", "zero")
        run(capsys, "search", "--invariant", "spum", "--target", "path:3", expect=2)

    def test_unknown_sigma_needs_flag(self, capsys, tmp_path):
        path = tmp_path / "paw.json"
        path.write_text(PAW_JSON)
        run(capsys, "search", "--invariant", "spum", "--graph", str(path), expect=1)
        out, _ = run(
            capsys, "search", "--invariant", "spum", "--graph", str(path),
            "--sigma", "1", "--format", "json",
        )
        assert json.loads(out)["value"] == 4

    @pytest.mark.parametrize(
        "invariant, flag, only",
        [
            ("spum", "--zeta", "ispum"),
            ("ispum", "--sigma", "spum"),
            ("sd", "--sigma", "spum"),
            ("isd", "--zeta", "ispum"),
        ],
    )
    def test_flag_for_another_invariant_usage_error(self, capsys, invariant, flag, only):
        out, err = run(
            capsys, "search", "--invariant", invariant, "--target", "path:3",
            flag, "3", expect=2,
        )
        assert out == ""
        assert err.startswith(f"error: {flag} applies only to --invariant {only}\n")

    def test_wall_time_on_stderr_only(self, capsys):
        out, err = run(capsys, "search", "--invariant", "spum", "--target", "path:3")
        assert "wall_time_ms=" in err
        assert "wall_time_ms=" not in out


    def test_target_is_built_once(self, capsys, monkeypatch):
        built = []
        real = families.generate

        def counting(spec):
            built.append(spec.text())
            return real(spec)

        for module in (families, cli, search):
            monkeypatch.setattr(module, "generate", counting)
        run(capsys, "search", "--invariant", "sd", "--target", "path:6")
        assert built == ["path:6"]


class TestTable:
    def test_spum_paths_to_8_csv_bytes(self, capsys):
        out, _ = run(
            capsys, "table", "--name", "spum-paths", "--to", "8", "--format", "csv"
        )
        assert out == (
            '3,"1,2,3,4",3\n'
            '4,"1,2,3,4,6",5\n'
            '5,"1,2,4,5,6,8",7\n'
            '6,"1,2,4,5,7,9,10",9\n'
            '7,"1,2,4,6,7,9,12,13",12\n'
            '8,"1,2,4,6,7,9,12,15,16",15\n'
        )

    def test_single_row(self, capsys):
        out, _ = run(
            capsys, "table", "--name", "spum-paths", "--to", "3", "--format", "csv"
        )
        assert out == '3,"1,2,3,4",3\n'

    def test_ispum_cycles_text_last_row(self, capsys):
        out, _ = run(capsys, "table", "--name", "ispum-cycles", "--to", "7")
        assert out.splitlines()[-1] == "n=7 value=11 labels=-7,-5,-4,-3,1,2,4"

    def test_json_rows(self, capsys):
        out, _ = run(
            capsys, "table", "--name", "ispum-cycles", "--to", "5", "--format", "json"
        )
        data = json.loads(out)
        assert data["name"] == "ispum-cycles"
        assert data["rows"][-1] == {"n": 5, "labels": [-3, -2, -1, 1, 2], "value": 5}

    def test_unknown_table_usage_error(self, capsys):
        run(capsys, "table", "--name", "spum-wheels", "--to", "5", expect=2)

    def test_bad_range_domain_error(self, capsys):
        run(capsys, "table", "--name", "spum-paths", "--to", "2", expect=1)


class TestBounds:
    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"n": 1e400, "edges": []}',
        '{"n": 2.9, "edges": [[0, 1.7]]}',
        '{"n": "3", "edges": [[0, 1]]}',
        '{"n": 2, "edges": [["0", "1"]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [5]}',
        '{"n": 3, "edges": [[0]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
    ], ids=[
        "deep", "infinite-n", "float", "string-n", "string-ids", "bool-n",
        "int-edges", "int-edge", "one-id-edge", "three-id-edge",
    ])
    def test_bad_graph_file_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        _, err = run(capsys, "bounds", "--graph", str(path), expect=2)
        assert err.startswith(f"error: bad graph JSON in {str(path)!r}: ")
        # a message the program states, not one of Python's own
        assert "unpack" not in err and "iterable" not in err

    @pytest.mark.parametrize("edges, message", [
        ("[[0]]", "edge [0] needs exactly 2 distinct vertices"),
        ("[[0, 0]]", "self-loop at vertex 0"),
        ("[[0, 5]]", "edge (0,5) out of range for n=3"),
    ], ids=["one-id", "self-loop", "out-of-range"])
    def test_bad_graph_file_edge_message(self, capsys, tmp_path, edges, message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 3, "edges": {edges}}}')
        out, err = run(capsys, "bounds", "--graph", str(path), expect=2)
        assert out == ""
        assert err.startswith(f"error: bad graph JSON in {str(path)!r}: {message}\n")

    def test_zero_vertex_graph_reports_the_bound(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "edges": []}')
        out, err = run(capsys, "bounds", "--graph", str(path), expect=1)
        assert out == ""
        assert err.startswith("error: target must have a vertex and no isolated vertex\n")

    @pytest.mark.parametrize("argv", [
        ("bounds",),
        ("search", "--invariant", "sd"),
        ("construct", "--name", "sd-general"),
    ], ids=["bounds", "search", "construct"])
    def test_isolated_vertex_states_the_one_rule(self, capsys, tmp_path, argv):
        path = tmp_path / "isolated.json"
        path.write_text('{"n": 3, "edges": [[0, 1]]}')
        out, err = run(capsys, *argv, "--graph", str(path), expect=1)
        assert out == ""
        assert err.startswith("error: target must have a vertex and no isolated vertex\n")

    def test_family_json_bytes(self, capsys):
        out, _ = run(capsys, "bounds", "--target", "cycle:5", "--format", "json")
        assert out == (
            '{"target": "cycle:5", "n": 5, "edges": 5, "sd_lower_bound": 8,'
            ' "isd_lower_bound": 5, "family": "cycle:5", "known": {"sigma": 2,'
            ' "zeta": 0, "spum": [10, 10], "ispum": [5, 5], "sd": [9, 9],'
            ' "isd": [5, 5]}}\n'
        )

    def test_unrecognized_graph(self, capsys, tmp_path):
        path = tmp_path / "paw.json"
        path.write_text(PAW_JSON)
        out, _ = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        data = json.loads(out)
        assert data["family"] is None and data["known"] is None
        assert data["sd_lower_bound"] == 4

    def test_text_includes_known_lines(self, capsys):
        out, _ = run(capsys, "bounds", "--target", "path:5")
        assert "spum: [7,7]" in out.splitlines()

    def test_graph_flag_reads_no_family_spec(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out, err = run(capsys, "bounds", "--graph", "path:5", expect=2)
        assert out == ""
        assert err.startswith("error: cannot read graph file 'path:5': ")

    def test_graph_flag_reads_a_file_named_like_a_spec(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "path:3").write_text('{"n": 2, "edges": [[0, 1]]}')
        out, _ = run(capsys, "bounds", "--graph", "path:3", "--format", "json")
        assert json.loads(out)["n"] == 2
        out, _ = run(capsys, "bounds", "--target", "path:3", "--format", "json")
        assert json.loads(out)["n"] == 3


class TestCombine:
    def test_union_scaled_json_bytes(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "union-scaled",
            "--labels", "1,2,3", "--target", "path:2",
            "--labels", "1,2,3", "--target", "path:2", "--format", "json",
        )
        assert out == (
            '{"name": "union-scaled", "labels": [1, 2, 3, 6, 12, 18],'
            ' "range": 17, "claimed_bound": 17, "valid": true}\n'
        )

    def test_union_translated(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "union-translated",
            "--labels", "1,2,3", "--target", "path:2",
            "--labels", "1,2,3", "--target", "path:2", "--format", "json",
        )
        assert json.loads(out)["labels"] == [3, 4, 7, 14, 15, 29]

    def test_translate_requires_x(self, capsys):
        run(
            capsys, "combine", "--name", "translate", "--labels", "1,2,3",
            "--target", "path:2", expect=2,
        )
        out, _ = run(
            capsys, "combine", "--name", "translate", "--labels", "1,2,3",
            "--target", "path:2", "--x", "5", "--format", "json",
        )
        assert json.loads(out)["labels"] == [6, 7, 13]

    def test_translate_a_non_family_graph_past_24_vertices(self, capsys, tmp_path):
        path, labels = write_chorded_c30(tmp_path, capsys)
        out, _ = run(
            capsys, "combine", "--name", "translate", "--labels", labels,
            "--target", path, "--x", "20000", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert data["range"] == 34401

    def test_add_isolated(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "add-isolated", "--labels", "1,2,3",
            "--target", "path:2", "--isolates", "2", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True

    @pytest.mark.parametrize("isolates, message", [
        (99999999999, "labels exceed the cap of 1048576"),
        (10**20, "exceeds the 64-bit signed range"),
    ])
    def test_add_isolated_past_the_cap_exits_one(self, isolates, message):
        done = run_bounded(
            "combine", "--name", "add-isolated", "--labels", "1,2,3",
            "--target", "path:2", "--isolates", str(isolates),
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert message in done.stderr

    @pytest.mark.parametrize("top", [2**20 + 16, 2**40], ids=["2^20+16", "2^40"])
    def test_join_past_the_cap_exits_one(self, top):
        # the cross sums alone fill an interval of r1 + r2 - 1 labels
        done = run_bounded(
            "combine", "--name", "join", "--labels", "1,2,3", "--target", "path:2",
            "--labels", f"1,{top},{top + 1}", "--target", "path:2",
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert "labels exceed the cap of 1048576" in done.stderr

    def test_add_vertex_with_neighbors(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "add-vertex", "--labels", "1,2,3",
            "--target", "path:2", "--neighbors", "0,1", "--format", "json",
        )
        assert json.loads(out)["valid"] is True

    def test_join(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "join",
            "--labels", "1,2,3", "--target", "path:2",
            "--labels", "1,2,3", "--target", "path:2", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert data["claimed_bound"] == 33

    def test_modify_add_edge(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "modify-add-edge", "--labels", "1,2,3,4",
            "--target", "path:3", "--edge", "0,2", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert data["claimed_bound"] == 11

    def test_modify_delete_vertex(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "modify-delete-vertex",
            "--labels", "1,2,3,4", "--target", "path:3", "--vertex", "2",
            "--format", "json",
        )
        assert json.loads(out)["valid"] is True

    def test_flags_the_name_does_not_read_are_a_usage_error(self, capsys):
        out, err = run(
            capsys, "combine", "--name", "join",
            "--labels", "1,2,3", "--target", "path:2",
            "--labels", "1,2,3", "--target", "path:2", "--x", "7", "--isolates", "4",
            expect=2,
        )
        assert out == ""
        assert err.startswith("error: --x does not apply to --name join\n")

    @pytest.mark.parametrize("verb, name", [
        *(("construct", name) for name in cli.CONSTRUCTIONS),
        *(("combine", name) for name in cli.COMBINATORS),
    ])
    def test_every_name_refuses_the_flags_it_does_not_read(self, capsys, verb, name):
        if verb == "construct":
            values = {"n": "3", "target": "path:3", "graph": "g.json"}
            used = cli.CONSTRUCTIONS[name][0]
            given = ()
        else:
            values = {
                "x": "5", "isolates": "2", "neighbors": "0", "vertex": "1",
                "vertices": "0,1", "edge": "0,2",
            }
            used = cli.COMBINATORS[name][0]
            given = ("--labels", "1,2,3,4", "--target", "path:3")
        assert set(used) <= set(values)
        for flag in set(values) - set(used):
            out, err = run(
                capsys, verb, "--name", name, *given, f"--{flag}", values[flag],
                expect=2,
            )
            assert out == ""
            assert err.startswith(f"error: --{flag} does not apply to --name {name}\n")

    def test_every_modify_operation_has_a_name(self):
        modify_names = {name for name in cli.COMBINATORS if name.startswith("modify-")}
        assert modify_names == {f"modify-{op}" for op in MODIFY_OPERATIONS}

    def test_binary_arity_usage_error(self, capsys):
        run(
            capsys, "combine", "--name", "join", "--labels", "1,2,3",
            "--target", "path:2", expect=2,
        )

    def test_bad_edge_usage_error(self, capsys):
        run(
            capsys, "combine", "--name", "modify-add-edge", "--labels", "1,2,3,4",
            "--target", "path:3", "--edge", "0", expect=2,
        )

    def test_domain_error_exit_one(self, capsys):
        run(
            capsys, "combine", "--name", "translate", "--labels", "1,2,3",
            "--target", "path:2", "--x", "-1", expect=1,
        )


class TestCheckConjecture:
    def test_sd_paths_json(self, capsys):
        out, _ = run(
            capsys, "check-conjecture", "--name", "sd-paths", "--n", "6",
            "--format", "json",
        )
        data = json.loads(out)
        assert data == {
            "name": "sd-paths",
            "n": 6,
            "conjectured": 9,
            "searched": 9,
            "matches": True,
            "witness": [1, 2, 4, 5, 7, 9, 10],
        }

    def test_spum_paths_odd_even_n(self, capsys):
        out, _ = run(
            capsys, "check-conjecture", "--name", "spum-paths-odd", "--n", "8",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["conjectured"] == 15 and data["matches"] is True

    def test_below_start_domain_error(self, capsys):
        run(capsys, "check-conjecture", "--name", "sd-paths", "--n", "2", expect=1)


# each integer the CLI reads, as (what the error names, argv with {} for the
# value); int() would read every value of BAD_INTEGERS
INTEGER_INPUTS = [
    ("label", ("induce", "--labels", "1,{}")),
    ("--edge", ("combine", "--name", "modify-delete-edge", "--labels", "1,2,3,4",
                "--target", "path:3", "--edge", "0,{}")),
    ("--vertices", ("combine", "--name", "modify-induced-subgraph", "--labels", "1,2,3,4",
                    "--target", "path:3", "--vertices", "0,{}")),
    ("--neighbors", ("combine", "--name", "add-vertex", "--labels", "1,2,3",
                     "--target", "path:2", "--neighbors", "{}")),
    ("--jobs", ("search", "--invariant", "sd", "--target", "path:4", "--jobs", "{}")),
    ("SUMDIAM_BUDGET", ("search", "--invariant", "sd", "--target", "path:4")),
    ("--n", ("construct", "--name", "sd-path", "--n", "{}")),
    ("--n", ("check-conjecture", "--name", "sd-paths", "--n", "{}")),
    ("--sigma", ("search", "--invariant", "spum", "--target", "path:4", "--sigma", "{}")),
    ("--zeta", ("search", "--invariant", "ispum", "--target", "cycle:5", "--zeta", "{}")),
    ("--max-range", ("search", "--invariant", "sd", "--target", "path:4",
                     "--max-range", "{}")),
    ("--to", ("table", "--name", "spum-paths", "--to", "{}")),
    ("--x", ("combine", "--name", "translate", "--labels", "1,2,3", "--target", "path:2",
             "--x", "{}")),
    ("--isolates", ("verify", "--labels", "1,2,3,4", "--target", "path:3",
                    "--isolates", "{}")),
    ("--isolates", ("combine", "--name", "add-isolated", "--labels", "1,2,3",
                    "--target", "path:2", "--isolates", "{}")),
    ("--vertex", ("combine", "--name", "modify-delete-vertex", "--labels", "1,2,3,4",
                  "--target", "path:3", "--vertex", "{}")),
]
BAD_INTEGERS = ["1_0", "+4", "\uff11\uff10", "0x3"]
BAD_IDS = ["underscore", "plus", "fullwidth", "hex"]


class TestStrictIntegers:
    """Every integer the CLI reads is an optional minus sign and ASCII digits."""

    @pytest.mark.parametrize("value", BAD_INTEGERS, ids=BAD_IDS)
    @pytest.mark.parametrize(
        ("names", "argv"),
        INTEGER_INPUTS,
        ids=[f"{argv[0]}-{names}" for names, argv in INTEGER_INPUTS],
    )
    def test_bad_value_exits_two_naming_its_flag(
        self, capsys, monkeypatch, value, names, argv
    ):
        if names == "SUMDIAM_BUDGET":
            monkeypatch.setenv("SUMDIAM_BUDGET", value)
        out, err = run(capsys, *(part.format(value) for part in argv), expect=2)
        assert out == ""
        assert names in err

    @pytest.mark.parametrize("value", BAD_INTEGERS, ids=BAD_IDS)
    def test_bad_family_parameter_is_no_spec(self, capsys, value):
        # not a family spec, so --target reads it as a file name, and there
        # is no such file
        out, err = run(capsys, "bounds", "--target", f"path:{value}", expect=2)
        assert out == ""
        assert err.startswith(f"error: cannot read graph file {f'path:{value}'!r}")

    def test_surrounding_whitespace_is_read(self, capsys):
        plain, _ = run(capsys, "construct", "--name", "sd-path", "--n", "5")
        padded, _ = run(capsys, "construct", "--name", "sd-path", "--n", " 5 ")
        assert padded == plain
        listed, _ = run(capsys, "induce", "--labels", " 1, 2 ,3,4 ")
        assert listed == run(capsys, "induce", "--labels", "1,2,3,4")[0]


class TestInputSize:
    """A graph size from outside is refused before anything of that size is built.

    Each case runs under run_bounded's address-space limit, where building
    the graph would end in a MemoryError.
    """

    @pytest.mark.parametrize("argv", [
        ("search", "--invariant", "sd", "--target", "path:100000000"),
        ("bounds", "--target", "path:100000000"),
        ("check-conjecture", "--name", "sd-paths", "--n", "100000000"),
        ("check-conjecture", "--name", "sd-paths", "--n", str(10**23)),
    ], ids=["search", "bounds", "check-conjecture", "check-conjecture-1e23"])
    def test_oversized_family_member_exits_one(self, argv):
        done = run_bounded(*argv)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: path:")
        assert " has over 1048576 vertices or edges\n" in done.stderr

    def test_oversized_graph_file_is_bad_json(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1000000000, "edges": [[0, 1]]}')
        done = run_bounded("bounds", "--graph", str(path))
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith(
            f"error: bad graph JSON in {str(path)!r}: "
            "1000000000 vertices exceed the cap of 1048576\n"
        )


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        args = ("table", "--name", "spum-paths", "--to", "6", "--format", "csv")
        first, _ = run(capsys, *args)
        second, _ = run(capsys, *args)
        assert first == second

    def test_parser_is_built_once_and_kept_clean(self, capsys):
        assert cli._parser() is cli._parser()
        run(capsys, "construct", "--name", "mystery", "--n", "3", expect=2)
        out, _ = run(capsys, "construct", "--name", "spum-cycle4", "--format", "json")
        assert json.loads(out)["labels"] == [3, 4, 5, 6, 8, 9, 10]
        # a later call does not inherit --format from the one before
        out, _ = run(capsys, "construct", "--name", "spum-cycle4")
        assert not out.startswith("{")

    def test_jobs_do_not_change_stdout(self, capsys):
        base = ("search", "--invariant", "sd", "--target", "path:6", "--format", "json")
        serial, _ = run(capsys, *base)
        parallel, _ = run(capsys, *base, "--jobs", "4")
        assert serial == parallel

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--invariant", "sd", "--target", "path:3"),
            ("table", "--name", "spum-paths", "--to", "3"),
            ("check-conjecture", "--name", "sd-paths", "--n", "3"),
        ],
        ids=["search", "table", "check-conjecture"],
    )
    def test_jobs_below_one_usage_error(self, capsys, argv):
        run(capsys, *argv, "--jobs", "0", expect=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--invariant", "sd", "--target", "path:3"),
            ("table", "--name", "spum-paths", "--to", "3"),
            ("check-conjecture", "--name", "sd-paths", "--n", "3"),
        ],
        ids=["search", "table", "check-conjecture"],
    )
    def test_jobs_past_sys_maxsize_usage_error(self, capsys, argv):
        # islice, which cuts the batches, takes no stop past sys.maxsize
        _, err = run(capsys, *argv, "--jobs", str(sys.maxsize + 1), expect=2)
        assert "--jobs: expected at most" in err
        run(capsys, *argv, "--jobs", str(sys.maxsize))

    def test_out_of_memory_exits_three(self, capsys, monkeypatch):
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "induce", exhausted)
        _, err = run(capsys, "induce", "--labels", "1,2,3,4", expect=3)
        assert "error: out of memory" in err
        assert "Traceback" not in err

    def test_unknown_verb_usage_error(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()
