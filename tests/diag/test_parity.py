"""Live-vs-reloaded parity: diagnosing an exported JSONL log must give
results identical to diagnosing the live execution it came from."""

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.diag import ObservedRun, diagnose
from repro.errors import ReproError
from repro.faults import ActivationFaults, FaultPlan
from repro.obs.bus import FAULT_ACTIVATION
from repro.obs.export import read_jsonl, write_jsonl


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
        assert reloaded.obs.events == live.obs.events
        assert reloaded.obs.trace.events == live.obs.trace.events
        assert reloaded.response_time == live.response_time

    def test_instance_work_reconstruction_identical(self, observed_skewed,
                                                    log_path):
        live = ObservedRun.of(observed_skewed)
        reloaded = ObservedRun.of(log_path)
        assert reloaded.instance_busy_times("join") == \
            live.instance_busy_times("join")


@pytest.fixture(scope="module")
def faulted_cancelled():
    """An observed two-query workload under retried activation faults
    (default wasted cost, so every failed attempt leaves a ``fault``
    span), one query cancelled mid-run: the partial post-mortem."""
    db = DBS3(processors=48, options=ExecutionOptions(
        observability=ObservabilityOptions(observe=True)))
    for name, cardinality, seed in (("A", 2_000, 1), ("B", 200, 2),
                                    ("C", 1_500, 3), ("D", 150, 4)):
        db.create_table(generate_wisconsin(name, cardinality, seed=seed),
                        "unique1", degree=20)
    faults = FaultPlan(seed=3, activations=(
        ActivationFaults(rate=0.1, max_retries=8),))
    session = db.session(options=WorkloadOptions(faults=faults))
    victim = session.submit("SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
                            threads=10, tag="victim")
    session.submit("SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
                   threads=10, tag="survivor")
    victim.cancel(at=0.08)
    return session.run().executions


class TestFaultedCancelledParity:
    def test_the_run_has_fault_spans_and_a_mid_run_cancel(
            self, faulted_cancelled):
        victim = faulted_cancelled["victim"]
        assert victim.status == "cancelled"
        assert victim.total_activations > 0
        for execution in faulted_cancelled.values():
            kinds = {span.kind for span in execution.obs.trace.events}
            assert {"activation", "fault"} <= kinds
            faults = execution.obs.events_of(FAULT_ACTIVATION)
            assert faults and all(e.data["wasted"] > 0
                                  and not e.data["aborts"] for e in faults)

    @pytest.mark.parametrize("tag", ["victim", "survivor"])
    def test_reloaded_bus_equals_live_bus_store_by_store(
            self, faulted_cancelled, tag, tmp_path):
        live = faulted_cancelled[tag].obs
        path = tmp_path / f"{tag}.jsonl"
        write_jsonl(faulted_cancelled[tag], path)
        reloaded = read_jsonl(path).obs
        assert reloaded.events == live.events
        assert reloaded.trace.events == live.trace.events
        assert reloaded.series.keys() == live.series.keys()
        for name, series in live.series.items():
            assert reloaded.series[name].to_pairs() == series.to_pairs()

    @pytest.mark.parametrize("tag", ["victim", "survivor"])
    def test_diagnosis_identical(self, faulted_cancelled, tag, tmp_path):
        path = tmp_path / f"{tag}.jsonl"
        write_jsonl(faulted_cancelled[tag], path)
        live = diagnose(faulted_cancelled[tag])
        reloaded = diagnose(path)
        assert reloaded.run.status == live.run.status
        assert reloaded.critical_path.to_json() == \
            live.critical_path.to_json()
        assert reloaded.critical_path.segments == \
            live.critical_path.segments
        assert [f.to_json() for f in reloaded.findings] == \
            [f.to_json() for f in live.findings]


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
