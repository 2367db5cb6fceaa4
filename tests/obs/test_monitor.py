"""Monitor rules: unit evaluation per control point, plus the live run.

The unit half drives each rule with synthetic :class:`MonitorContext`
payloads (exactly what the workload engine emits at its control
points); the integration half runs a real monitored workload and
checks the fired alerts land on ``WorkloadResult.alerts``, round-trip
through the schema-4 JSONL export, and cost nothing when no rules are
installed.
"""

import pytest

from repro import (
    DBS3,
    ObservabilityOptions,
    WorkloadError,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.obs.alerts import SEV_CRITICAL, AlertBus
from repro.obs.metrics import FAULT_RETRIES, MetricsRegistry
from repro.obs.monitor import (
    POINT_ADMISSION,
    POINT_FINISH,
    POINT_WAVE,
    SLO_MIN_FINISHED,
    STRAGGLER_MIN_THREADS,
    AdmissionWaitMonitor,
    LatencySloMonitor,
    MonitorEngine,
    RetryStormMonitor,
    StragglerMonitor,
    default_monitors,
)


def _engine(rule, metrics=None) -> MonitorEngine:
    return MonitorEngine((rule,), metrics)


class TestLatencySloMonitor:
    def test_fires_per_query_over_slo(self):
        engine = _engine(LatencySloMonitor(slo=1.0, burn_budget=0.25))
        engine.observe(POINT_FINISH, 0.5, tag="q0", latency=0.5,
                       status="done")
        engine.observe(POINT_FINISH, 2.0, tag="q1", latency=2.0,
                       status="done")
        assert [a.key for a in engine.alerts] == ["q1"]
        assert engine.alerts.alerts[0].value == 2.0

    def test_burn_alert_needs_min_finished(self):
        assert SLO_MIN_FINISHED == 4
        engine = _engine(LatencySloMonitor(slo=1.0, burn_budget=0.25))
        for i in range(3):
            engine.observe(POINT_FINISH, float(i), tag=f"q{i}",
                           latency=2.0, status="done")
        assert not engine.alerts.of("latency_slo") or all(
            a.key != "burn" for a in engine.alerts)
        engine.observe(POINT_FINISH, 3.0, tag="q3", latency=2.0,
                       status="done")
        burn = [a for a in engine.alerts if a.key == "burn"]
        assert len(burn) == 1
        assert burn[0].severity == SEV_CRITICAL
        assert burn[0].active

    def test_burn_resolves_when_share_recovers(self):
        engine = _engine(LatencySloMonitor(slo=1.0, burn_budget=0.5))
        for i in range(4):  # 4/4 over budget -> fires
            engine.observe(POINT_FINISH, float(i), tag=f"q{i}",
                           latency=2.0, status="done")
        assert engine.alerts.is_active("latency_slo", "burn")
        for i in range(4, 9):  # fast finishes pull the share to 4/9
            engine.observe(POINT_FINISH, float(i), tag=f"q{i}",
                           latency=0.1, status="done")
        burn = [a for a in engine.alerts if a.key == "burn"]
        assert len(burn) == 1
        assert not burn[0].active
        assert burn[0].resolved_at == 7.0  # share hits 4/8 = budget

    def test_reset_clears_counts_across_runs(self):
        rule = LatencySloMonitor(slo=1.0, burn_budget=0.25)
        engine = _engine(rule)
        engine.observe(POINT_FINISH, 1.0, tag="q0", latency=2.0,
                       status="done")
        # A new MonitorEngine (a new run) resets the rule's counters.
        fresh = _engine(rule)
        assert rule.finished == 0
        fresh.observe(POINT_FINISH, 1.0, tag="q0", latency=0.5,
                      status="done")
        assert len(fresh.alerts) == 0


class TestAdmissionWaitMonitor:
    def test_fires_per_breaching_admission(self):
        engine = _engine(AdmissionWaitMonitor(ceiling=0.1))
        engine.observe(POINT_ADMISSION, 1.0,
                       admitted=[("q0", 0.05), ("q1", 0.5)])
        assert [a.key for a in engine.alerts] == ["q1"]
        assert engine.alerts.alerts[0].value == 0.5


class TestRetryStormMonitor:
    def test_fires_once_at_threshold(self):
        metrics = MetricsRegistry()
        counter = metrics.counter(FAULT_RETRIES, operation="join")
        engine = _engine(RetryStormMonitor(threshold=3), metrics)
        counter.inc(2)
        engine.observe(POINT_FINISH, 1.0, tag="q0", latency=0.1,
                       status="done")
        assert len(engine.alerts) == 0
        counter.inc(1)
        engine.observe(POINT_FINISH, 2.0, tag="q1", latency=0.1,
                       status="done")
        engine.observe(POINT_FINISH, 3.0, tag="q2", latency=0.1,
                       status="done")
        assert len(engine.alerts) == 1  # monotone total: fires once
        assert engine.alerts.alerts[0].fired_at == 2.0


class TestStragglerMonitor:
    #: One wave payload: (finished_at, busy, idle) per thread, keyed
    #: exactly like the engine's POINT_WAVE data.
    def test_fires_on_spread_with_blame(self):
        engine = _engine(StragglerMonitor(ratio=2.0))
        engine.observe(
            POINT_WAVE, 5.0, tag="q0", wave=1, started_at=0.0,
            ops=[("join", [(1.0, 0.9, 0.1), (1.0, 0.9, 0.1),
                           (5.0, 4.8, 0.2)])])  # spread 5/2.33 = 2.14
        assert len(engine.alerts) == 1
        alert = engine.alerts.alerts[0]
        assert alert.key == "q0/w1/join"
        assert "processing skew" in alert.message

    def test_blames_queue_wait_when_straggler_was_idle(self):
        engine = _engine(StragglerMonitor(ratio=2.0))
        engine.observe(
            POINT_WAVE, 5.0, tag="q0", wave=0, started_at=0.0,
            ops=[("join", [(1.0, 0.9, 0.1), (1.0, 0.9, 0.1),
                           (5.0, 0.5, 4.5)])])
        assert "queue wait" in engine.alerts.alerts[0].message

    def test_uniform_wave_is_silent(self):
        engine = _engine(StragglerMonitor(ratio=2.0))
        engine.observe(
            POINT_WAVE, 1.1, tag="q0", wave=0, started_at=0.0,
            ops=[("join", [(1.0, 1.0, 0.0), (1.1, 1.0, 0.1)])])
        assert len(engine.alerts) == 0

    def test_single_thread_ops_are_skipped(self):
        assert STRAGGLER_MIN_THREADS == 2
        engine = _engine(StragglerMonitor(ratio=2.0))
        engine.observe(
            POINT_WAVE, 9.0, tag="q0", wave=0, started_at=0.0,
            ops=[("scan", [(9.0, 9.0, 0.0)])])
        assert len(engine.alerts) == 0


# -- the live run -------------------------------------------------------------

QUERIES = (
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
    "SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
)


def _db() -> DBS3:
    db = DBS3(processors=24)
    db.create_table(generate_wisconsin("A", 800, seed=1), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("B", 80, seed=2), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("C", 600, seed=3), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("D", 60, seed=4), "unique1",
                    degree=8)
    return db


def _run(options: WorkloadOptions):
    session = _db().session(options=options)
    for i, sql in enumerate(QUERIES):
        session.submit(sql, tag=f"q{i}")
    return session.run()


class TestMonitoredRun:
    def test_tight_slo_fires_on_every_query(self):
        session = _db().session(options=WorkloadOptions(
            observability=ObservabilityOptions(monitors=(
                LatencySloMonitor(slo=1e-6, burn_budget=0.25),))))
        for i, sql in enumerate(QUERIES * 2):  # SLO_MIN_FINISHED queries
            session.submit(sql, tag=f"q{i}")
        result = session.run()
        slo = [a for a in result.alerts if a.key.startswith("q")]
        assert {a.key for a in slo} == {"q0", "q1", "q2", "q3"}
        burn = [a for a in result.alerts if a.key == "burn"]
        assert len(burn) == 1 and burn[0].active

    def test_loose_thresholds_fire_nothing(self):
        result = _run(WorkloadOptions(observability=ObservabilityOptions(
            monitors=(LatencySloMonitor(1e9, 0.25), AdmissionWaitMonitor(1e9),
                      StragglerMonitor(1e9), RetryStormMonitor(8)))))
        assert len(result.alerts) == 0
        assert result.metrics is not None  # rules imply the registry

    def test_monitors_do_not_move_virtual_time(self):
        bare = _run(WorkloadOptions())
        monitored = _run(WorkloadOptions(
            observability=ObservabilityOptions(
                monitors=default_monitors(slo=1e-6))))
        assert monitored.makespan == bare.makespan
        for tag in bare.order:
            assert (monitored.execution(tag).response_time
                    == bare.execution(tag).response_time)

    def test_no_rules_means_no_alert_bus(self):
        result = _run(WorkloadOptions())
        assert result.alerts is None
        session = _db().session()
        session.submit(QUERIES[0])
        with pytest.raises(WorkloadError, match="no alerts"):
            session.alerts()

    def test_session_alerts_accessor(self):
        session = _db().session(options=WorkloadOptions(
            observability=ObservabilityOptions(
                monitors=(LatencySloMonitor(slo=1e-6, burn_budget=0.25),))))
        session.submit(QUERIES[0], tag="q0")
        bus = session.alerts()
        assert isinstance(bus, AlertBus)
        assert [a.key for a in bus if a.key == "q0"]

    def test_alert_log_is_deterministic(self):
        options = WorkloadOptions(observability=ObservabilityOptions(
            monitors=default_monitors(slo=1e-6)))
        first = _run(options)
        second = _run(options)
        signature = [(a.rule, a.key, a.severity, a.fired_at, a.value,
                      a.threshold, a.resolved_at) for a in first.alerts]
        assert signature == [
            (a.rule, a.key, a.severity, a.fired_at, a.value,
             a.threshold, a.resolved_at) for a in second.alerts]
