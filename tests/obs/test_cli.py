"""The ``python -m repro`` observed-run CLI path."""

import json

import pytest

from repro.__main__ import main, observed_run


class TestObservedRun:
    def test_writes_all_exports(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = observed_run(
            "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
            str(trace), str(events), str(metrics), explain=True, threads=8)
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule explanation:" in out
        assert "observed execution:" in out
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        lines = events.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert "observed execution:" in metrics.read_text()

    def test_main_routes_observability_flags(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = main(["run", "--events-out", str(events), "--threads", "8"])
        assert code == 0
        assert events.exists()

    def test_explain_alone_runs_without_files(self, capsys):
        assert main(["run", "--explain", "--threads", "8"]) == 0
        assert "step 4" in capsys.readouterr().out

    @pytest.mark.parametrize("legacy", [
        ["--explain"], ["--diagnose"], ["--concurrent", "4"],
        # Removed with the run registry.
        ["compare", "a", "b"],
        ["diagnose", "--record"],
        # A flag of the mode the switch did not select, both directions.
        *(["run", "--concurrent", "4", *flag] for flag in (
            ["--sql", "SELECT * FROM A"], ["--threads", "8"], ["--explain"],
            ["--trace-out", "t.json"], ["--metrics-out", "m.txt"])),
        *(["run", *flag] for flag in (
            ["--shared"], ["--report"], ["--monitors"], ["--profile"],
            ["--prom-out", "m.prom"], ["--policy", "adaptive"])),
        *(["diagnose", "--from-events", "missing.jsonl", *flag] for flag in (
            ["--theta", "0.5"], ["--strategy", "lpt"], ["--threads", "4"],
            ["--events-out", "e.jsonl"])),
    ])
    def test_legacy_top_level_flags_are_usage_errors(self, legacy, capsys):
        with pytest.raises(SystemExit) as error:
            main(legacy)
        assert error.value.code == 2
        assert "usage: python -m repro" in capsys.readouterr().err
