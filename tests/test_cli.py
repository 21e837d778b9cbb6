"""CLI tests: exact output bytes, exit codes, and determinism."""
from __future__ import annotations

import json

import pytest

from sumdiam.cli import main

C4_JSON = '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}'
PAW_JSON = '{"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]}'


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return captured.out, captured.err


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
        run(capsys, "construct", "--name", "sd-path", expect=2)

    def test_unknown_name_usage_error(self, capsys):
        run(capsys, "construct", "--name", "mystery", "--n", "3", expect=2)

    def test_domain_error_exit_one(self, capsys):
        run(capsys, "construct", "--name", "spum-path-even", "--n", "5", expect=1)

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

    def test_wall_time_on_stderr_only(self, capsys):
        out, err = run(capsys, "search", "--invariant", "spum", "--target", "path:3")
        assert "wall_time_ms=" in err
        assert "wall_time_ms=" not in out


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
    @pytest.mark.parametrize(
        "text", ["[" * 200_000, '{"n": 1e400, "edges": []}'], ids=["deep", "infinite-n"]
    )
    def test_bad_graph_file_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        _, err = run(capsys, "bounds", "--graph", str(path), expect=2)
        assert err.startswith(f"error: bad graph JSON in {str(path)!r}: ")

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

    def test_add_isolated(self, capsys):
        out, _ = run(
            capsys, "combine", "--name", "add-isolated", "--labels", "1,2,3",
            "--target", "path:2", "--isolates", "2", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True

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


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        args = ("table", "--name", "spum-paths", "--to", "6", "--format", "csv")
        first, _ = run(capsys, *args)
        second, _ = run(capsys, *args)
        assert first == second

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

    def test_unknown_verb_usage_error(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()
