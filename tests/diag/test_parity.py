"""Live-vs-reloaded parity: diagnosing an exported JSONL log must give
results identical to diagnosing the live execution it came from."""

import pytest

from repro.diag import ObservedRun, diagnose
from repro.errors import ReproError
from repro.obs.export import write_jsonl


@pytest.fixture
def log_path(observed_skewed, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(observed_skewed, path)
    return path


class TestParity:
    def test_critical_path_identical(self, observed_skewed, log_path):
        live = diagnose(observed_skewed)
        reloaded = diagnose(str(log_path))
        assert reloaded.critical_path.to_json() == \
            live.critical_path.to_json()
        assert reloaded.critical_path.segments == \
            live.critical_path.segments

    def test_findings_identical(self, observed_skewed, log_path):
        live = diagnose(observed_skewed)
        reloaded = diagnose(str(log_path))
        assert [f.to_json() for f in reloaded.findings] == \
            [f.to_json() for f in live.findings]

    def test_run_views_identical(self, observed_skewed, log_path):
        live = ObservedRun.of(observed_skewed)
        reloaded = ObservedRun.of(log_path)
        assert reloaded.source == "jsonl"
        assert live.source == "live"
        assert reloaded.ops == live.ops
        assert reloaded.events == live.events
        assert reloaded.trace.events == live.trace.events
        assert reloaded.response_time == live.response_time

    def test_instance_work_reconstruction_identical(self, observed_skewed,
                                                    log_path):
        live = ObservedRun.of(observed_skewed)
        reloaded = ObservedRun.of(log_path)
        assert reloaded.instance_busy_times("join") == \
            live.instance_busy_times("join")


class TestSchemaGuard:
    def test_schema_1_log_rejected_for_diagnosis(self, tmp_path):
        import json
        path = tmp_path / "v1.jsonl"
        path.write_text(json.dumps(
            {"type": "meta", "schema": 1, "response_time": 1.0,
             "startup_time": 0.1, "total_threads": 2,
             "dilation": 1.0}) + "\n")
        with pytest.raises(ReproError, match="schema 1"):
            ObservedRun.of(path)
