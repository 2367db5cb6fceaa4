"""The diagnose CLI path, the diagnosis front door, and the twin row
that A/Bs two diagnoses (the comparison the run registry used to make)."""

import json

from repro.__main__ import main
from repro.bench import twins
from repro.diag import diagnose


class TestDiagnoseCommand:
    def test_diagnose_prints_full_report(self, capsys):
        assert main(["diagnose", "--threads", "6"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "imbalance doctor" in out
        assert "redistribution-skew" in out

    def test_from_events_reloads_log(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["diagnose", "--threads", "6",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--from-events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "diagnosis (jsonl run):" in out
        assert "critical path:" in out

    def test_from_events_replays_a_workload_log(self, tmp_path, capsys):
        """A workload log takes the other branch: alerts and profile
        re-rendered from the file, then the span / snapshot self-audit."""
        events = tmp_path / "workload.jsonl"
        assert main(["run", "--concurrent", "4", "--monitors", "--profile",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--from-events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "workload event log:" in out
        assert "latency_slo" in out and "attributed" in out
        assert "workload log self-audit: spans and metric snapshots" in out


def test_diagnose_front_door_matches_parts(observed):
    diagnosis = diagnose(observed)
    assert diagnosis.bottleneck == diagnosis.critical_path.bottleneck
    text = diagnosis.render()
    assert "diagnosis (live run):" in text
    assert "critical path:" in text
    assert "imbalance doctor" in text


def test_bottleneck_row_holds_its_gates():
    """Random vs LPT on the skewed triggered join, each through
    ``diagnose``: LPT moves the clock and the critical path, not the
    bottleneck — pins and relations, no wall clock (so tier-1)."""
    row = {row.name: row for row in twins.TABLE}["bottleneck"]
    record = twins.run(row)
    pins = json.loads(twins.PINS_PATH.read_text())[row.name]
    assert twins.compare(row, record, pins) == []
    assert record["lpt"]["facts"]["bottleneck"] == "join"
