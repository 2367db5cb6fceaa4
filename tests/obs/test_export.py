"""Exporters: JSONL round-trip, Chrome trace structure, self-audit."""

import hashlib
import json

import pytest

from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    QuerySchedule,
)
from repro.errors import ReproError
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.obs.export import (
    SCHEMA_VERSION,
    chrome_trace,
    jsonl_records,
    metrics_snapshot,
    read_jsonl,
    verify_against_metrics,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.probes import ACTIVE_THREADS, queue_depth_key


def _observed(plan, threads=4, strategy="random"):
    executor = Executor(Machine.uniform(processors=8),
                        ExecutionOptions(
                            observability=ObservabilityOptions(observe=True)))
    return executor.execute(plan,
                            QuerySchedule.for_plan(plan, threads, strategy))


@pytest.fixture
def observed(join_db):
    plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
    return _observed(plan)


#: sha256 over ``write_jsonl`` + ``write_chrome_trace`` +
#: ``metrics_snapshot`` of a fault-free observed run: the ``observed``
#: fixture (degree 20, the linear scan) and the same join at degree 100
#: on eight threads (the ready index, its probes and counters).  A change
#: of the exported format is a declared one: it moves these pins.
EXPORT_SHA256 = {
    "scan": "b348430a88a21ccfb8afe679f333fd53c9a6f974f5e0f8cabd09795080e2e5b1",
    "indexed": "ac1c259a7fb99f0e444435b76e39967f776ccd61a51659507ee2b3dfedd62719",
}


class TestPinnedBytes:
    @staticmethod
    def _digest(execution, tmp_path):
        write_jsonl(execution, tmp_path / "events.jsonl")
        write_chrome_trace(execution, tmp_path / "trace.json")
        digest = hashlib.sha256()
        digest.update((tmp_path / "events.jsonl").read_bytes())
        digest.update((tmp_path / "trace.json").read_bytes())
        digest.update(metrics_snapshot(execution).encode())
        return digest.hexdigest()

    def test_scan_export_is_pinned(self, observed, tmp_path):
        assert self._digest(observed, tmp_path) == EXPORT_SHA256["scan"]

    def test_indexed_export_is_pinned(self, tmp_path):
        from repro.bench.workloads import make_join_database
        db = make_join_database(2000, 200, degree=100, theta=0.0)
        execution = _observed(assoc_join_plan(
            db.entry_a, db.entry_b, "key", "key"), threads=8)
        assert self._digest(execution, tmp_path) == EXPORT_SHA256["indexed"]


class TestSelfAudit:
    def test_bus_counts_match_metrics(self, observed):
        assert verify_against_metrics(observed) == []

    def test_triggered_plan_consistent_too(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        assert verify_against_metrics(_observed(plan, strategy="lpt")) == []

    def test_unobserved_execution_rejected(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = Executor(Machine.uniform(processors=8)).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        with pytest.raises(ReproError):
            metrics_snapshot(execution)
        with pytest.raises(ReproError):
            list(jsonl_records(execution))


class TestJsonl:
    def test_round_trip_counts(self, observed, tmp_path):
        path = tmp_path / "events.jsonl"
        count = write_jsonl(observed, path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == count
        assert records[0]["type"] == "meta"
        assert records[0]["response_time"] == pytest.approx(
            observed.response_time)
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert set(by_type) == {"meta", "op", "event", "span", "sample",
                                "counter"}
        assert records[0]["schema"] == SCHEMA_VERSION
        # the re-parsed log must agree with the metrics aggregates
        for op_record in by_type["op"]:
            metrics = observed.operation(op_record["name"])
            assert op_record["enqueues"] == metrics.enqueues
            assert op_record["dequeue_batches"] == metrics.dequeue_batches
            assert op_record["secondary_accesses"] == metrics.secondary_accesses
        dequeues = [r for r in by_type["event"]
                    if r["kind"] == "queue.dequeue" and r["op"] == "join"]
        assert len(dequeues) == observed.operation("join").dequeue_batches

    def test_samples_are_compacted(self, observed):
        samples = [r for r in jsonl_records(observed)
                   if r["type"] == "sample" and r["name"] == ACTIVE_THREADS]
        values = [r["value"] for r in samples]
        assert all(a != b for a, b in zip(values, values[1:]))


class TestReadJsonl:
    """read_jsonl must be the exact inverse of write_jsonl."""

    @pytest.fixture
    def reloaded(self, observed, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(observed, path)
        return read_jsonl(path)

    def test_schema_and_meta(self, observed, reloaded):
        assert reloaded.schema == SCHEMA_VERSION
        assert reloaded.response_time == observed.response_time
        assert reloaded.startup_time == observed.startup_time
        assert reloaded.meta["total_threads"] == observed.total_threads

    def test_events_round_trip_to_event_objects(self, observed, reloaded):
        # Event is a named tuple, so this compares kind, time,
        # operation, thread and the full payload of every event.
        assert reloaded.events == list(observed.obs.events)

    def test_spans_round_trip_to_trace(self, observed, reloaded):
        assert reloaded.trace.events == observed.trace.events

    def test_series_round_trip_compacted(self, observed, reloaded):
        # A series stores changes only, so what was stored is what was
        # written and what comes back.
        assert set(reloaded.series) == set(observed.obs.series)
        for name, series in observed.obs.series.items():
            assert reloaded.series[name].to_pairs() == series.to_pairs()

    def test_counters_round_trip(self, observed, reloaded):
        assert reloaded.counters == dict(observed.obs.counters)

    def test_op_records_round_trip(self, observed, reloaded):
        by_name = {record["name"]: record for record in reloaded.ops}
        assert set(by_name) == set(observed.operations)
        for name, metrics in observed.operations.items():
            assert by_name[name]["busy_time"] == metrics.busy_time
            assert by_name[name]["queue_activations"] == \
                list(metrics.queue_activations)

    def test_missing_meta_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "kind": "op.start", "t": 0.0}\n')
        with pytest.raises(ReproError, match="meta header"):
            read_jsonl(path)

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"type": "meta", "schema": SCHEMA_VERSION + 1,
             "response_time": 1.0, "startup_time": 0.0,
             "total_threads": 1, "dilation": 1.0}) + "\n")
        with pytest.raises(ReproError, match="newer"):
            read_jsonl(path)

    @pytest.mark.parametrize("meta", [
        {"schema": SCHEMA_VERSION - 1}, {}], ids=["older", "missing"])
    def test_any_other_schema_rejected_naming_both_versions(self, meta,
                                                            tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(
            {"type": "meta", **meta, "response_time": 1.0}) + "\n")
        with pytest.raises(ReproError) as raised:
            read_jsonl(path)
        assert f"schema {meta.get('schema')}" in str(raised.value)
        assert f"exactly schema {SCHEMA_VERSION}" in str(raised.value)

    def test_unknown_record_type_rejected(self, observed, tmp_path):
        path = tmp_path / "mystery.jsonl"
        write_jsonl(observed, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "hologram"}\n')
        with pytest.raises(ReproError, match="hologram"):
            read_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            read_jsonl(path)


class TestChromeTrace:
    def test_document_loads_and_has_tracks(self, observed, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(observed, path)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert len(events) == count
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        assert all(e["pid"] == 1 for e in events)

    def test_one_named_track_per_thread(self, observed):
        document = chrome_trace(observed)
        names = [e for e in document["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "thread_name"]
        span_tids = {e["tid"] for e in document["traceEvents"]
                     if e["ph"] == "X"}
        assert {e["tid"] for e in names} == span_tids
        assert len(names) == observed.total_threads

    def test_spans_use_microseconds(self, observed):
        document = chrome_trace(observed)
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        start, end = observed.trace.span
        assert min(s["ts"] for s in spans) == pytest.approx(start * 1e6)
        assert max(s["ts"] + s["dur"] for s in spans) == pytest.approx(
            end * 1e6)

    def test_counter_tracks_cover_probes(self, observed):
        document = chrome_trace(observed)
        counters = {e["name"] for e in document["traceEvents"]
                    if e["ph"] == "C"}
        assert ACTIVE_THREADS in counters
        assert queue_depth_key("join") in counters


class TestSnapshot:
    def test_snapshot_extends_summary(self, observed):
        text = metrics_snapshot(observed)
        assert "observed execution:" in text
        assert "bus events" in text
        assert "active threads: peak" in text
        assert "join" in text and "enqueues=" in text

    def test_ready_churn_reported_at_high_degree(self):
        # The ready index only engages at READY_INDEX_MIN_INSTANCES
        # queues, so its notify/stale counters need a wide operation.
        from repro.bench.workloads import make_join_database
        db = make_join_database(2000, 200, degree=96, theta=0.0)
        plan = ideal_join_plan(db.entry_a, db.entry_b, "key", "key")
        execution = _observed(plan, threads=8)
        text = metrics_snapshot(execution)
        assert "ready_notify/join" in text
        assert verify_against_metrics(execution) == []
