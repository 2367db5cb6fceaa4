"""The diagnose / compare CLI paths and the Makefile demo flows."""

import pytest

from repro.__main__ import main


@pytest.fixture
def runs_dir(tmp_path, monkeypatch):
    path = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(path))
    return path


class TestDiagnoseCommand:
    def test_diagnose_prints_full_report(self, capsys):
        assert main(["diagnose", "--threads", "6"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "imbalance doctor" in out
        assert "redistribution-skew" in out

    def test_record_persists_run(self, runs_dir, capsys):
        code = main(["diagnose", "--threads", "6", "--record",
                     "--run-id", "cli-run", "--label", "from the test"])
        assert code == 0
        assert (runs_dir / "cli-run.json").exists()
        assert "recorded run 'cli-run'" in capsys.readouterr().out

    def test_from_events_reloads_log(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["diagnose", "--threads", "6",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--from-events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "diagnosis (jsonl run):" in out
        assert "critical path:" in out


class TestCompareCommand:
    def test_compare_two_recorded_runs(self, runs_dir, capsys):
        main(["diagnose", "--threads", "6", "--record",
              "--run-id", "a"])
        main(["diagnose", "--threads", "6", "--record",
              "--run-id", "b"])
        capsys.readouterr()
        assert main(["compare", "a", "b"]) == 0
        out = capsys.readouterr().out
        assert "compare a (A) vs b (B):" in out
        assert "within tolerance" in out

    def test_gate_fails_on_regression(self, runs_dir, capsys):
        # Same workload, but the candidate gets starved of threads —
        # the gate must turn that into a non-zero exit.
        main(["diagnose", "--threads", "10", "--record",
              "--run-id", "base"])
        main(["diagnose", "--threads", "2", "--record",
              "--run-id", "starved"])
        capsys.readouterr()
        assert main(["compare", "base", "starved"]) == 0
        assert main(["compare", "base", "starved", "--gate"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_explicit_runs_dir_flag(self, tmp_path, capsys):
        explicit = tmp_path / "explicit"
        main(["diagnose", "--threads", "6", "--record",
              "--run-id", "x", "--runs-dir", str(explicit)])
        main(["diagnose", "--threads", "6", "--record",
              "--run-id", "y", "--runs-dir", str(explicit)])
        capsys.readouterr()
        assert main(["compare", "x", "y",
                     "--runs-dir", str(explicit)]) == 0

    def test_loose_tolerance_passes_gate(self, runs_dir, capsys):
        main(["diagnose", "--threads", "10", "--record",
              "--run-id", "base"])
        main(["diagnose", "--threads", "2", "--record",
              "--run-id", "starved"])
        capsys.readouterr()
        assert main(["compare", "base", "starved", "--gate",
                     "--tolerance", "10.0"]) == 0
