"""Property-based tests: the adaptive controller's invariants.

The controller may only ever *re-arrange* the schedule — never grow
it, never change an answer, never behave differently on replay:

* :func:`resplit_shares` conserves the thread budget exactly, never
  takes a pool's last thread, and only moves threads from consumers
  to producers;
* :func:`wave_evidence` is a pure function of the wave payload — it
  either abstains (``None``) or returns actionable evidence with the
  boost capped by the policy;
* on a uniform (fault-free) workload the adaptive policy is
  bit-identical to static and records no decision, whatever the
  thread grant;
* a strategy switch never changes a result row;
* the decision log is deterministic per seed — two identical runs
  produce byte-identical logs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import SchedulingPolicy, resplit_shares, wave_evidence
from repro.adapt.controller import BOOST_CAP
from repro.bench.chaos import (
    ADAPTIVE_THREADS,
    build_adaptive_scenario,
    run_adaptive_workload,
)
from repro.engine.executor import OperationSchedule, QuerySchedule
from repro.engine.strategies import RANDOM
from repro.faults import FaultPlan, SlowdownWindow
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.workload.options import WorkloadOptions

shares_lists = st.lists(st.integers(min_value=1, max_value=20),
                        min_size=2, max_size=6)
modes_for = st.sampled_from([TRIGGERED, PIPELINED])
idle_fractions = st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False, allow_infinity=False)

#: One pool's wave stamps: (finished_at, busy_time, idle_time).
stamps = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
wave_payloads = st.lists(
    st.tuples(st.sampled_from(["scan", "join", "store", "xmit"]),
              st.lists(stamps, min_size=1, max_size=6)),
    min_size=1, max_size=4,
    unique_by=lambda op: op[0],
)


class TestResplitShareProperties:
    @given(shares=shares_lists,
           modes=st.lists(modes_for, min_size=6, max_size=6),
           starved_idle=idle_fractions)
    @settings(max_examples=200, deadline=None)
    def test_budget_conserved_and_no_pool_emptied(self, shares, modes,
                                                  starved_idle):
        modes = modes[:len(shares)]
        out = resplit_shares(shares, modes, starved_idle)
        assert sum(out) == sum(shares)
        assert all(share >= 1 for share in out)

    @given(shares=shares_lists,
           modes=st.lists(modes_for, min_size=6, max_size=6),
           starved_idle=idle_fractions)
    @settings(max_examples=200, deadline=None)
    def test_threads_only_flow_from_consumers_to_producers(
            self, shares, modes, starved_idle):
        modes = modes[:len(shares)]
        out = resplit_shares(shares, modes, starved_idle)
        for before, after, mode in zip(shares, out, modes):
            if mode == TRIGGERED:
                assert after >= before
            else:
                assert after <= before

    @given(shares=shares_lists,
           modes=st.lists(modes_for, min_size=6, max_size=6),
           starved_idle=idle_fractions)
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, shares, modes, starved_idle):
        modes = modes[:len(shares)]
        assert resplit_shares(shares, modes, starved_idle) \
            == resplit_shares(shares, modes, starved_idle)

    @given(shares=shares_lists, starved_idle=idle_fractions)
    @settings(max_examples=100, deadline=None)
    def test_no_contrast_is_an_identity(self, shares, starved_idle):
        for mode in (TRIGGERED, PIPELINED):
            assert resplit_shares(shares, [mode] * len(shares),
                                  starved_idle) == shares


class TestWaveEvidenceProperties:
    @given(ops=wave_payloads)
    @settings(max_examples=150, deadline=None)
    def test_abstains_or_returns_actionable_capped_evidence(self, ops):
        evidence = wave_evidence(0.0, ops)
        if evidence is not None:
            assert evidence.actionable
            assert evidence.boost <= BOOST_CAP
            assert 0.0 <= evidence.starved_idle <= 1.0

    @given(ops=wave_payloads)
    @settings(max_examples=100, deadline=None)
    def test_pure_function_of_the_payload(self, ops):
        assert wave_evidence(0.0, ops) == wave_evidence(0.0, ops)

    @given(ops=wave_payloads)
    @settings(max_examples=100, deadline=None)
    def test_fully_busy_pools_yield_no_queue_wait_evidence(self, ops):
        busy_ops = [(name, [(f, max(b, 0.1), 0.0) for f, b, _ in pool])
                    for name, pool in ops]
        evidence = wave_evidence(0.0, busy_ops)
        if evidence is not None:
            # No pool idled, so only the Fig 12 half can have fired.
            assert evidence.boost == 1.0
            assert evidence.skewed


class TestAdaptiveWorkloadProperties:
    @given(threads=st.integers(min_value=4, max_value=14))
    @settings(max_examples=5, deadline=None)
    def test_no_signal_means_bit_identical_to_static(self, threads):
        def run(policy):
            db, plan, schema = build_adaptive_scenario()
            session = db.session(options=WorkloadOptions(
                scheduling=SchedulingPolicy(policy=policy)))
            session.submit_plan(plan, schema, threads=threads, tag="q0")
            return session.run()

        static, adaptive = run("static"), run("adaptive")
        assert adaptive.makespan == static.makespan
        assert len(adaptive.decisions) == 0
        assert {t: e.result_cardinality
                for t, e in adaptive.executions.items()} \
            == {t: e.result_cardinality
                for t, e in static.executions.items()}

    @given(factor=st.floats(min_value=4.0, max_value=12.0,
                            allow_nan=False))
    @settings(max_examples=5, deadline=None)
    def test_strategy_switch_never_changes_rows(self, factor):
        def run(policy):
            db, plan, schema = build_adaptive_scenario()
            schedule = QuerySchedule({
                node.name: OperationSchedule(5, strategy=RANDOM,
                                             allow_secondary=False)
                for node in plan.nodes})
            faults = FaultPlan(seed=0, slowdowns=(
                SlowdownWindow(0.0, float("inf"), factor,
                               operation="join1", thread_ids=(0, 1)),))
            session = db.session(options=WorkloadOptions(
                scheduling=SchedulingPolicy(policy=policy,
                                            resplit=False),
                faults=faults))
            session.submit_plan(plan, schema, threads=ADAPTIVE_THREADS,
                                schedule=schedule, tag="q0")
            return session.run()

        static, adaptive = run("static"), run("adaptive")
        assert {t: e.result_cardinality
                for t, e in adaptive.executions.items()} \
            == {t: e.result_cardinality
                for t, e in static.executions.items()}

    @given(factor=st.sampled_from([3.0, 6.0, 12.0]))
    @settings(max_examples=3, deadline=None)
    def test_decision_log_is_deterministic_per_seed(self, factor):
        first = run_adaptive_workload(factor, "adaptive")
        second = run_adaptive_workload(factor, "adaptive")
        assert first.decisions.to_json() == second.decisions.to_json()
        assert first.makespan == second.makespan
