"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.adp import ADPSolver
from repro.data.csvio import load_database_csv, save_database_csv
from repro.data.database import Database
from repro.engine.evaluate import use_context
from repro.query.parser import parse_query
from tests.row_oracle import RowEngineContext


@pytest.fixture
def csv_database(tmp_path):
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
    )
    return save_database_csv(database, tmp_path / "db")


class TestClassifyCommand:
    def test_easy_query(self, capsys):
        assert main(["classify", "Q(A, B) :- R1(A), R2(A, B)"]) == 0
        out = capsys.readouterr().out
        assert "poly-time" in out

    def test_hard_query_prints_certificate(self, capsys):
        assert main(["classify", "Qswing(A) :- R2(A, B), R3(B)"]) == 0
        out = capsys.readouterr().out
        assert "NP-hard" in out
        assert "core query" in out or "triad" in out


class TestSolveCommand:
    def test_solve_with_k(self, capsys, csv_database):
        code = main(["solve", "Q(A, B) :- R1(A), R2(A, B)", str(csv_database), "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective = 1" in out
        assert "remove" in out

    def test_solve_with_ratio_and_counting(self, capsys, csv_database):
        code = main(
            [
                "solve",
                "Q(A, B) :- R1(A), R2(A, B)",
                str(csv_database),
                "--ratio",
                "0.5",
                "--counting-only",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective" in out

    def test_solve_empty_result_is_success(self, capsys, tmp_path):
        # An empty result is a legitimate empty answer: scripts piping the
        # CLI must not see a failure exit code.
        empty = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]}, {"R1": [], "R2": []})
        path = save_database_csv(empty, tmp_path / "empty")
        code = main(["solve", "Q(A, B) :- R1(A), R2(A, B)", str(path), "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|Q(D)| = 0" in out
        assert "objective = 0" in out

    def test_solve_empty_result_json(self, capsys, tmp_path):
        empty = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]}, {"R1": [], "R2": []})
        path = save_database_csv(empty, tmp_path / "empty")
        code = main(
            ["solve", "Q(A, B) :- R1(A), R2(A, B)", str(path), "--k", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_size"] == 0
        assert payload["objective"] == 0
        assert payload["method"] == "empty-result"

    def test_solve_json_output(self, capsys, csv_database):
        code = main(
            ["solve", "Q(A, B) :- R1(A), R2(A, B)", str(csv_database), "--k", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert payload["objective"] == 1
        assert payload["engine"] == "columnar"
        assert payload["classification"] in ("poly-time", "np-hard")
        assert isinstance(payload["removed"], list) and payload["removed"]

    def test_solve_row_engine_matches_columnar(self, capsys, csv_database):
        query = "Q(A, B) :- R1(A), R2(A, B)"
        assert main(["solve", query, str(csv_database), "--k", "2", "--json"]) == 0
        columnar = json.loads(capsys.readouterr().out)
        with use_context(RowEngineContext()):
            row = ADPSolver().solve_in_context(
                parse_query(query), load_database_csv(csv_database), 2
            )
        assert row.objective == columnar["objective"]
        assert row.k == columnar["k"]

    def test_solve_rejects_the_removed_row_engine(self, capsys, csv_database):
        args = ["solve", "Q(A, B) :- R1(A), R2(A, B)", str(csv_database), "--k", "2"]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--engine", "row"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'row'" in capsys.readouterr().err

    def test_k_and_ratio_are_mutually_exclusive(self, csv_database):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve",
                    "Q(A, B) :- R1(A), R2(A, B)",
                    str(csv_database),
                    "--k",
                    "1",
                    "--ratio",
                    "0.5",
                ]
            )


class TestExperimentsCommand:
    def test_single_figure(self, capsys):
        assert main(["experiments", "--only", "fig12_13"]) == 0
        out = capsys.readouterr().out
        assert "Figures 12-13" in out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--only", "nope"])


class TestExplainCommand:
    QUERY = "Q(A, B) :- R1(A), R2(A, B)"

    def test_text_output(self, capsys, csv_database):
        assert main(["explain", self.QUERY, str(csv_database)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "join order:" in out
        assert "cardinalities (estimate vs actual):" in out

    def test_json_plan_fingerprints_identical_across_configs(
        self, capsys, csv_database
    ):
        """Golden snapshot: the plan block (fingerprint included) must be
        byte-identical across --engine columnar|parallel and
        --backend python|numpy."""
        from repro.engine.backend import numpy_available

        variants = [
            [],
            ["--engine", "parallel", "--workers", "2"],
            ["--backend", "python"],
        ]
        if numpy_available():
            variants.append(["--backend", "numpy"])
            variants.append(
                ["--engine", "parallel", "--workers", "2", "--backend", "numpy"]
            )
        plans = set()
        fingerprints = set()
        for extra in variants:
            args = ["explain", self.QUERY, str(csv_database), "--json"] + extra
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            plans.add(json.dumps(payload["plan"], sort_keys=True))
            fingerprints.add(payload["plan"]["fingerprint"])
        assert len(plans) == 1
        assert len(fingerprints) == 1

    def test_no_analyze_skips_actuals(self, capsys, csv_database):
        args = ["explain", self.QUERY, str(csv_database), "--json", "--no-analyze"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["analyzed"] is False
        assert payload["execution"]["operators"] == []

    def test_row_engine_with_workers_rejected(self, capsys, csv_database):
        args = [
            "explain", self.QUERY, str(csv_database),
            "--engine", "row", "--workers", "2",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
