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
#: on eight threads (the ready index, which exports nothing of its
#: own).  A change of the exported format is a declared one: it moves
#: these pins.
EXPORT_SHA256 = {
    "scan": "203b2a6322a71f60756dbfffa04271cbe3a68cfd35b07dbc9f697efa06b53c2e",
    "indexed": "000a49f0f02d2cd7456aa57c91e5455f9546ecdd06c70ab0d15e2b760836dc6f",
}


#: sha256 over ``workload_jsonl_records`` + ``metrics.render_prom()`` +
#: ``report().render()`` of one observed, monitored served run
#: (:func:`_served`): every registry instrument kind, the folding,
#: fault, cancel and shedding counters, and the alert rules' readings
#: of the registry end up in these bytes.
WORKLOAD_EXPORT_SHA256 = (
    "70bc484c624fcdf58ac2b1336b20c3d627c2d59a8a3294de08136230242c8942")


def _served():
    """The serving mix at twice its saturation on the small serving
    machine: priority order with a bounded queue, folding, a seeded
    fault plan, two cancels and the standard monitor pack."""
    import dataclasses

    from repro.faults.plan import FaultPlan
    from repro.obs.monitor import default_monitors
    from repro.serve.arrivals import make_arrival_process
    from repro.serve.harness import (
        build_submissions,
        default_templates,
        measure_saturation,
        serving_machine,
    )
    from repro.serve.policies import ServingPolicy
    from repro.workload.engine import WorkloadExecutor
    from repro.workload.options import WorkloadOptions

    machine = serving_machine()
    templates = default_templates()
    rate = 2.0 * measure_saturation(templates, machine=machine, count=30)
    times = make_arrival_process("poisson", rate).times(40, seed=1)
    submissions = build_submissions(templates, times, machine=machine,
                                    seed=1)
    for index in (10, 25):
        submissions[index] = dataclasses.replace(
            submissions[index], cancel_at=submissions[index].arrival + 0.02)
    operations = sorted({node.name for submission in submissions
                         for node in submission.compiled.plan.nodes})
    workload = WorkloadOptions(
        max_concurrent=3, shared=True,
        faults=FaultPlan.generate(1, tuple(operations),
                                  horizon=times[-1] * 1.2),
        serving=ServingPolicy(policy="priority", queue_limit=5),
        observability=ObservabilityOptions(
            observe=True, monitors=default_monitors()))
    return WorkloadExecutor(machine, ExecutionOptions(seed=1),
                            workload).execute(submissions)


def _workload_export_digest(result):
    from repro.obs.export import workload_jsonl_records
    digest = hashlib.sha256()
    for record in workload_jsonl_records(result):
        digest.update(json.dumps(record, sort_keys=True).encode())
    digest.update(result.metrics.render_prom().encode())
    digest.update(result.report().render().encode())
    return digest.hexdigest()


def _export_digest(execution, tmp_path):
    write_jsonl(execution, tmp_path / "events.jsonl")
    write_chrome_trace(execution, tmp_path / "trace.json")
    digest = hashlib.sha256()
    digest.update((tmp_path / "events.jsonl").read_bytes())
    digest.update((tmp_path / "trace.json").read_bytes())
    digest.update(metrics_snapshot(execution).encode())
    return digest.hexdigest()


class TestPinnedBytes:
    def test_scan_export_is_pinned(self, observed, tmp_path):
        assert _export_digest(observed, tmp_path) == EXPORT_SHA256["scan"]

    def test_indexed_export_is_pinned(self, tmp_path):
        from repro.bench.workloads import make_join_database
        db = make_join_database(2000, 200, degree=100, theta=0.0)
        execution = _observed(assoc_join_plan(
            db.entry_a, db.entry_b, "key", "key"), threads=8)
        assert _export_digest(execution, tmp_path) == EXPORT_SHA256["indexed"]

    def test_served_workload_export_is_pinned(self):
        result = _served()
        assert result.alerts and result.metrics.family("queries_shed_total")
        assert _workload_export_digest(result) == WORKLOAD_EXPORT_SHA256


class TestSelectionPathIsNotObserved:
    """The ready index is the simulator's faster way to the linear
    scan's answer, not part of the simulated machine: an observed run
    exports the same bytes whichever selection path ran."""

    DEGREE = 100

    @pytest.fixture(scope="class")
    def wide_db(self):
        from repro.bench.workloads import make_join_database
        return make_join_database(2000, 200, degree=self.DEGREE, theta=0.0)

    @pytest.mark.parametrize("strategy", ["random", "lpt"])
    @pytest.mark.parametrize("build", [ideal_join_plan, assoc_join_plan],
                             ids=["ideal", "assoc"])
    def test_index_and_scan_export_the_same_bytes(
            self, wide_db, build, strategy, tmp_path, monkeypatch):
        from repro.engine import operation
        assert self.DEGREE >= operation.READY_INDEX_MIN_INSTANCES
        plan = build(wide_db.entry_a, wide_db.entry_b, "key", "key")
        indexed = _export_digest(_observed(plan, 8, strategy), tmp_path)
        # Lifting the threshold forces the scan, as the golden traces do.
        monkeypatch.setattr(operation, "READY_INDEX_MIN_INSTANCES",
                            self.DEGREE + 1)
        scanned = _export_digest(_observed(plan, 8, strategy), tmp_path)
        assert indexed == scanned


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
        assert set(by_type) == {"meta", "op", "event", "span", "sample"}
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
        assert reloaded.obs.events == observed.obs.events

    def test_spans_round_trip_to_trace(self, observed, reloaded):
        assert reloaded.obs.trace.events == observed.obs.trace.events

    def test_series_round_trip_compacted(self, observed, reloaded):
        # A series stores changes only, so what was stored is what was
        # written and what comes back.
        assert set(reloaded.obs.series) == set(observed.obs.series)
        for name, series in observed.obs.series.items():
            assert reloaded.obs.series[name].to_pairs() == series.to_pairs()

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
        start, end = observed.obs.trace.span
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
