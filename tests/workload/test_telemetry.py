"""Workload telemetry acceptance: report percentiles, free disabled
mode, session accessors, and the schema-3 JSONL round trip.

With telemetry *enabled*, the :class:`WorkloadReport` percentiles
match percentiles computed directly from ``QueryHandle.result()``
latencies, and the JSONL span export round-trips and passes the
status self-audit on a run with cancellation, a timeout, and a shared
fold.  That telemetry moves nothing when on is relation (a) of
``tests/properties/test_lattice.py``.
"""

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadError,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.faults import ActivationFaults, FaultPlan
from repro.obs.alerts import Alert
from repro.obs.export import (
    read_jsonl,
    verify_workload_jsonl,
    write_workload_jsonl,
)
from repro.obs.metrics import QUERIES_FINISHED, QUERY_LATENCY, percentile
from repro.obs.monitor import LatencySloMonitor, default_monitors
from repro.obs.spans import SPAN_DONE
from repro.prof import EngineProfiler

QUERIES = (
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
    "SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
    "SELECT * FROM A JOIN D ON A.unique1 = D.unique1",
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
)

OBSERVE = WorkloadOptions(
    observability=ObservabilityOptions(observe=True))


def _db(observe_queries: bool = False) -> DBS3:
    options = (ExecutionOptions(observability=ObservabilityOptions(
        observe=True)) if observe_queries else None)
    db = DBS3(processors=48, options=options)
    db.create_table(generate_wisconsin("A", 1_000, seed=1), "unique1",
                    degree=10)
    db.create_table(generate_wisconsin("B", 100, seed=2), "unique1",
                    degree=10)
    db.create_table(generate_wisconsin("C", 800, seed=3), "unique1",
                    degree=10)
    db.create_table(generate_wisconsin("D", 80, seed=4), "unique1",
                    degree=10)
    return db


def _submit_all(session, stagger: float = 0.005):
    return [session.submit(sql, at=i * stagger, tag=f"q{i}")
            for i, sql in enumerate(QUERIES)]


class TestReportAcceptance:
    def test_percentiles_match_handle_latencies(self):
        """WorkloadReport p50/p95/p99 == percentile() over the
        latencies read directly off each handle's execution."""
        session = _db().session(options=OBSERVE)
        handles = _submit_all(session)
        report = session.report()
        latencies = [h.result().response_time for h in handles
                     if h.status == SPAN_DONE]
        assert report.queries == len(QUERIES)
        for q in (50, 95, 99):
            assert report.latency[f"p{q}"] == percentile(latencies, q)

    def test_registry_agrees_with_statuses(self):
        session = _db().session(options=OBSERVE)
        _submit_all(session)
        registry = session.metrics()
        assert registry.total(QUERIES_FINISHED) == len(QUERIES)
        latency = registry.get(QUERY_LATENCY, status=SPAN_DONE)
        assert len(latency.values) == len(QUERIES)

    def test_render_and_json(self):
        session = _db().session(options=OBSERVE)
        _submit_all(session)
        report = session.report()
        assert report.problems == []
        text = report.render()
        assert text.startswith("workload report")
        assert "p95" in text
        payload = report.to_json()
        assert payload["queries"] == len(QUERIES)
        assert payload["problems"] == []


class TestDisabledMode:
    def test_off_by_default(self):
        session = _db().session()
        _submit_all(session)
        result = session.run()
        assert result.metrics is None
        assert result.spans is None

    def test_accessors_demand_observability(self):
        session = _db().session()
        handles = _submit_all(session)
        with pytest.raises(WorkloadError):
            session.metrics()
        with pytest.raises(WorkloadError):
            handles[0].span


class TestSessionAccessors:
    def test_handle_span(self):
        session = _db().session(options=OBSERVE)
        handles = _submit_all(session)
        span = handles[0].span
        assert span.tag == "q0"
        assert span.status == SPAN_DONE
        assert span.latency == handles[0].result().response_time

    def test_shared_fold_links_visible_on_handles(self):
        session = _db().session(options=WorkloadOptions(
            shared=True,
            observability=ObservabilityOptions(observe=True)))
        handles = _submit_all(session, stagger=0.0)
        sub = handles[3].span       # duplicate of q0's join
        host = handles[0].span
        assert sub.folds
        assert "q3" in host.subscribers


class TestJsonlRoundTrip:
    def test_chaos_style_run_round_trips(self, tmp_path):
        """Cancellation + timeout + shared fold, exported and audited:
        the loaded file must agree with itself and with the live
        executions."""
        db = _db(observe_queries=True)
        operations = sorted({node.name for sql in QUERIES
                             for node in db.compile(sql).plan.nodes})
        plan = FaultPlan(seed=0, activations=(
            ActivationFaults(operation=operations[-1], rate=0.05,
                             max_retries=25, backoff=0.005),))
        session = db.session(options=WorkloadOptions(
            shared=True, faults=plan,
            observability=ObservabilityOptions(observe=True)))
        handles = _submit_all(session)
        handles[1].cancel(at=0.02)
        session.submit(QUERIES[1], at=0.0, tag="q4", timeout=0.015)
        result = session.run()
        assert result.execution("q1").status == "cancelled"
        assert result.execution("q4").status == "timed_out"
        assert any(span.folds for span in result.spans)

        path = tmp_path / "workload.jsonl"
        write_workload_jsonl(result, path)
        loaded = read_jsonl(path)
        assert loaded.is_workload
        assert loaded.makespan == result.makespan
        assert len(loaded.qspans) == 5
        assert loaded.metrics
        assert verify_workload_jsonl(loaded) == []
        assert {record["tag"]: record["status"]
                for record in loaded.qspans} == {
            tag: execution.status
            for tag, execution in result.executions.items()}


class TestSchema4Records:
    """Alerts and the self-profile ride the same JSONL as the spans."""

    def _monitored_result(self):
        session = _db().session(options=WorkloadOptions(
            observability=ObservabilityOptions(
                monitors=default_monitors(slo=1e-6), profile=True)))
        _submit_all(session)
        return session.run()

    def test_alerts_and_profile_round_trip(self, tmp_path):
        result = self._monitored_result()
        assert len(result.alerts) > 0
        path = tmp_path / "workload.jsonl"
        write_workload_jsonl(result, path)
        loaded = read_jsonl(path)
        assert [Alert.from_json(record) for record in loaded.alerts] == \
            list(result.alerts)
        profiler = EngineProfiler.from_json(loaded.profile)
        assert profiler.nodes == result.profile.nodes
        assert profiler.wall_ns == result.profile.wall_ns
        assert verify_workload_jsonl(loaded) == []

    def test_unmonitored_log_carries_no_alert_records(self, tmp_path):
        session = _db().session(options=OBSERVE)
        _submit_all(session)
        path = tmp_path / "workload.jsonl"
        write_workload_jsonl(session.run(), path)
        loaded = read_jsonl(path)
        assert loaded.alerts == []
        assert loaded.profile is None

    def test_resolved_state_survives_the_trip(self, tmp_path):
        session = _db().session(options=WorkloadOptions(
            observability=ObservabilityOptions(monitors=(
                LatencySloMonitor(slo=1e-6, burn_budget=0.25),))))
        _submit_all(session)
        result = session.run()
        path = tmp_path / "workload.jsonl"
        write_workload_jsonl(result, path)
        reloaded = [Alert.from_json(r) for r in read_jsonl(path).alerts]
        assert [(a.key, a.active, a.resolved_at) for a in reloaded] == \
            [(a.key, a.active, a.resolved_at) for a in result.alerts]
