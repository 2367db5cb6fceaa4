"""Property-based tests on the monitor/alert layer.

Random small workloads under randomly-drawn rule thresholds must
always produce a *lawful* alert log:

* every fired alert records a genuine crossing (value at or past its
  threshold, stamped inside the simulation bounds);
* exactly one alert per crossing — event keys never repeat, condition
  keys never overlap (a key re-fires only after it resolved);
* resolve-on-recovery — a resolved alert closes no earlier than it
  fired, and at most one alert per (rule, key) is still active at the
  end of the run;
* monitors are pure observers — a monitored run is bit-identical
  (event stream, makespan, per-query response times) to a bare one,
  and no rules means no alert bus at all;
* the log is deterministic — the same workload under the same rules
  fires byte-for-byte the same alerts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DBS3,
    ObservabilityOptions,
    WorkloadOptions,
    generate_wisconsin,
)

#: Rules whose alerts are one-shot events: each key marks one crossing
#: and can never fire twice.
EVENT_RULES = {"admission_wait", "straggler"}

QUERIES = (
    "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
    "SELECT * FROM C JOIN D ON C.unique1 = D.unique1",
)


def _make_db() -> DBS3:
    db = DBS3(processors=24)
    db.create_table(generate_wisconsin("A", 300, seed=1), "unique1",
                    degree=6)
    db.create_table(generate_wisconsin("B", 50, seed=2), "unique1",
                    degree=6)
    db.create_table(generate_wisconsin("C", 250, seed=3), "unique1",
                    degree=6)
    db.create_table(generate_wisconsin("D", 40, seed=4), "unique1",
                    degree=6)
    return db


submissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(QUERIES) - 1),
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False)),
    min_size=1, max_size=5)

#: Thresholds spanning "fires on everything" to "fires on nothing".
workloads = st.fixed_dictionaries({
    "submissions": submissions,
    "max_concurrent": st.integers(min_value=1, max_value=4),
    "slo": st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    "ceiling": st.floats(min_value=1e-6, max_value=10.0,
                         allow_nan=False),
    "ratio": st.floats(min_value=1.01, max_value=50.0, allow_nan=False),
    "burn_budget": st.floats(min_value=0.05, max_value=0.95,
                             allow_nan=False),
})


def _options(spec) -> WorkloadOptions:
    from repro.obs.monitor import (
        AdmissionWaitMonitor,
        LatencySloMonitor,
        RetryStormMonitor,
        StragglerMonitor,
    )
    return WorkloadOptions(
        max_concurrent=spec["max_concurrent"],
        observability=ObservabilityOptions(monitors=(
            LatencySloMonitor(spec["slo"], spec["burn_budget"]),
            AdmissionWaitMonitor(spec["ceiling"]),
            StragglerMonitor(spec["ratio"]),
            RetryStormMonitor(8))))


def _run(spec, options: WorkloadOptions | None = None):
    session = _make_db().session(
        options=options if options is not None else _options(spec))
    for i, (query, at) in enumerate(spec["submissions"]):
        session.submit(QUERIES[query], at=at, tag=f"q{i}")
    return session.run()


def _signature(alerts):
    return [(a.rule, a.key, a.severity, a.fired_at, a.value,
             a.threshold, a.resolved_at, a.message) for a in alerts]


class TestAlertLawfulness:
    @given(spec=workloads)
    @settings(max_examples=20, deadline=None)
    def test_every_alert_is_a_genuine_stamped_crossing(self, spec):
        result = _run(spec)
        for alert in result.alerts:
            assert alert.value >= alert.threshold, alert
            assert 0.0 <= alert.fired_at <= result.makespan, alert
            if alert.resolved_at is not None:
                assert alert.fired_at <= alert.resolved_at, alert
                assert alert.resolved_at <= result.makespan, alert

    @given(spec=workloads)
    @settings(max_examples=20, deadline=None)
    def test_exactly_one_alert_per_crossing(self, spec):
        result = _run(spec)
        by_key = {}
        for alert in result.alerts:
            by_key.setdefault((alert.rule, alert.key), []).append(alert)
        for (rule, key), alerts in by_key.items():
            if rule in EVENT_RULES or (rule == "latency_slo"
                                       and key != "burn"):
                assert len(alerts) == 1, (rule, key)
            # Condition lifecycles never overlap: a key re-fires only
            # after the previous alert resolved, and at most the last
            # one may still be active.
            assert [a.fired_at for a in alerts] == sorted(
                a.fired_at for a in alerts)
            for earlier, later in zip(alerts, alerts[1:]):
                assert earlier.resolved_at is not None, (rule, key)
                assert earlier.resolved_at <= later.fired_at, (rule, key)
            assert sum(a.active for a in alerts) <= 1, (rule, key)

    @given(spec=workloads)
    @settings(max_examples=10, deadline=None)
    def test_monitors_are_pure_observers(self, spec):
        bare = _run(spec, options=WorkloadOptions(
            max_concurrent=spec["max_concurrent"]))
        monitored = _run(spec)
        assert bare.alerts is None
        assert monitored.makespan == bare.makespan
        assert monitored.bus.events == bare.bus.events
        assert {t: monitored.execution(t).response_time
                for t in monitored.order} == \
            {t: bare.execution(t).response_time for t in bare.order}

    @given(spec=workloads)
    @settings(max_examples=10, deadline=None)
    def test_alert_log_is_deterministic(self, spec):
        assert _signature(_run(spec).alerts) == \
            _signature(_run(spec).alerts)
