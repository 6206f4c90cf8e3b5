"""Tests for the command-line interface."""

import pytest

from repro.catalog import load_query
from repro.cli import main


class TestGenerate:
    def test_writes_query_json(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        code = main([
            "generate", str(path), "--topology", "chain",
            "--tables", "5", "--seed", "3",
        ])
        assert code == 0
        query = load_query(path)
        assert query.num_tables == 5
        assert query.topology == "chain"


class TestOptimize:
    def test_random_query_optimization(self, capsys):
        code = main([
            "optimize", "--topology", "star", "--tables", "4",
            "--precision", "low", "--cost-model", "cout",
            "--time-limit", "15", "--check-dp",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "plan:" in captured.out
        assert "guaranteed factor:" in captured.out
        assert "DP optimum:" in captured.out

    def test_query_file_and_artifacts(self, tmp_path, capsys):
        query_path = tmp_path / "q.json"
        main(["generate", str(query_path), "--tables", "4", "--seed", "1"])
        lp_path = tmp_path / "model.lp"
        plan_path = tmp_path / "plan.json"
        code = main([
            "optimize", "--query", str(query_path),
            "--precision", "low", "--cost-model", "cout",
            "--time-limit", "15",
            "--export-lp", str(lp_path),
            "--save-plan", str(plan_path),
        ])
        assert code == 0
        assert lp_path.exists()
        assert plan_path.exists()
        from repro.catalog import load_plan

        plan = load_plan(plan_path)
        assert plan.num_joins == 3

    def test_explain_and_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "plan.dot"
        code = main([
            "optimize", "--tables", "3", "--precision", "low",
            "--cost-model", "cout", "--time-limit", "15",
            "--explain", "--export-dot", str(dot_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "-> Join" in captured.out
        assert dot_path.read_text().startswith("digraph plan {")

    def test_export_mps(self, tmp_path, capsys):
        mps_path = tmp_path / "model.mps"
        code = main([
            "optimize", "--tables", "3", "--precision", "low",
            "--cost-model", "cout", "--time-limit", "15",
            "--export-mps", str(mps_path),
        ])
        assert code == 0
        assert mps_path.exists()
        from repro.milp import read_mps

        loaded = read_mps(mps_path)
        assert loaded.num_variables > 0

    def test_portfolio_algorithm(self, capsys):
        code = main([
            "optimize", "--tables", "3", "--precision", "low",
            "--cost-model", "cout", "--time-limit", "20",
            "--algorithm", "milp-portfolio",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "plan:" in captured.out

    def test_cold_start_flag(self, capsys):
        code = main([
            "optimize", "--tables", "3", "--precision", "low",
            "--cost-model", "cout", "--time-limit", "15",
            "--no-warm-start",
        ])
        assert code == 0


class TestAlgorithmFlag:
    def test_auto_smoke(self, capsys):
        # ISSUE-2 tier-1 smoke: `optimize --algorithm auto --tables 6`.
        code = main(["optimize", "--algorithm", "auto", "--tables", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert "algorithm:         auto -> " in captured.out
        assert "plan:" in captured.out

    def test_explicit_algorithms(self, capsys):
        for algorithm in ("greedy", "selinger", "ikkbz"):
            code = main([
                "optimize", "--algorithm", algorithm,
                "--topology", "chain", "--tables", "5",
                "--cost-model", "cout",
            ])
            captured = capsys.readouterr()
            assert code == 0, algorithm
            assert "plan:" in captured.out

    def test_inapplicable_engine_reports_cleanly(self, capsys):
        # No traceback: the adapter turns the engine's PlanError into a
        # NO_SOLUTION result and the CLI prints the reason, exit 1.
        code = main([
            "optimize", "--algorithm", "selinger", "--tables", "30",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "26" in captured.out

    def test_unknown_algorithm_exits_2(self, capsys):
        code = main([
            "optimize", "--algorithm", "definitely-not-real",
            "--tables", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "registered:" in captured.err
        assert "milp" in captured.err

    def test_algorithms_subcommand(self, capsys):
        code = main(["algorithms"])
        captured = capsys.readouterr()
        assert code == 0
        for name in ("milp", "selinger", "auto", "greedy"):
            assert name in captured.out

    def test_algorithms_json_is_machine_readable(self, capsys):
        import json

        code = main(["algorithms", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        rows = {row["name"]: row for row in payload["algorithms"]}
        assert {"milp", "selinger", "auto", "greedy"} <= set(rows)
        assert rows["milp"]["honors_time_limit"] is True
        assert rows["greedy"]["honors_time_limit"] is False
        assert rows["auto"]["honors_time_limit"] is None
        assert all(
            set(row) == {"name", "honors_time_limit", "description"}
            for row in rows.values()
        )


class TestServeSubcommand:
    def test_serve_help_documents_endpoints(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--port", "--workers", "--queue-capacity",
                     "--default-deadline", "--no-coalesce"):
            assert flag in out


class TestTraceSubcommand:
    @pytest.fixture(autouse=True)
    def no_tracer(self):
        from repro import obs

        obs.clear()
        yield
        obs.clear()

    def test_records_and_dumps_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main([
            "trace", "--queries", "1", "--duplicates", "0",
            "--tables", "4", "--algorithm", "greedy",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "served 1 requests" in captured.out
        assert "1 kept" in captured.out
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"request", "queue.wait", "rung"} <= names
        # The summary table follows the dump.
        assert "span" in captured.out
        assert "total_ms" in captured.out

    def test_jsonl_to_stdout(self, capsys):
        import json

        code = main([
            "trace", "--queries", "1", "--duplicates", "0",
            "--tables", "4", "--algorithm", "greedy",
            "--dump-format", "jsonl",
        ])
        captured = capsys.readouterr()
        assert code == 0
        rows = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.startswith("{")
        ]
        assert len(rows) == 1
        assert rows[0]["name"] == "request"

    def test_tracer_uninstalled_afterwards(self, capsys):
        from repro import obs

        main([
            "trace", "--queries", "1", "--duplicates", "0",
            "--tables", "4", "--algorithm", "greedy",
            "--dump-format", "jsonl",
        ])
        assert obs.active() is None


class TestHarnessPassthrough:
    def test_figure1_subcommand(self, capsys):
        code = main([
            "figure1", "--sizes", "4", "--seeds", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 1" in captured.out
