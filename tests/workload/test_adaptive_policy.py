"""Adaptive scheduling: the SchedulingPolicy API and the controller.

Acceptance behaviors from the diagnostics-driven-scheduling design:

* ``SchedulingPolicy`` holds the four knobs some caller sets
  (validated at construction) and nests in ``WorkloadOptions``, which
  no longer takes a flat ``rebalance=``;
* with the producer joins slowed, the controller re-splits the wave
  grant toward the blamed producers (conserving the thread budget
  exactly), beats the static policy in virtual time, and changes no
  result row;
* with a thread-targeted slowdown faking the Fig 12
  equal-counts/unequal-costs signature, a Random consumer switches to
  LPT — again without changing a row;
* ``policy="static"`` and the no-signal adaptive run are bit-identical
  to each other (the escape hatch);
* step 0 generalizes to multi-resource grant vectors without moving
  the CPU-only path.
"""

import dataclasses
import warnings

import pytest

from repro.adapt import SchedulingPolicy, resplit_shares
from repro.bench.chaos import (
    ADAPTIVE_THREADS,
    build_adaptive_scenario,
    run_adaptive_workload,
)
from repro.engine.executor import (
    ExecutionError,
    ObservabilityOptions,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.strategies import LPT, RANDOM
from repro.errors import WorkloadError
from repro.faults import FaultPlan, SlowdownWindow
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.obs.bus import SCHEDULE_RESPLIT, SCHEDULE_SWITCH
from repro.obs.explain import STEP_RESPLIT, STEP_SWITCH
from repro.scheduler.allocation import ResourceVector, allocate_to_queries
from repro.workload.options import WorkloadOptions


def _rows(result):
    return sum(e.result_cardinality for e in result.executions.values())


class TestSchedulingPolicyApi:
    def test_defaults_are_static(self):
        policy = SchedulingPolicy()
        assert policy.policy == "static"
        assert not policy.adaptive
        assert policy.rebalance

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scheduling policy"):
            SchedulingPolicy(policy="clairvoyant")

    def test_only_the_knobs_somebody_sets_are_fields(self):
        """The decision thresholds are constants of
        :mod:`repro.adapt.controller`, not options."""
        assert [f.name for f in dataclasses.fields(SchedulingPolicy)] == [
            "policy", "resplit", "multi_resource", "rebalance"]
        with pytest.raises(TypeError, match="boost_cap"):
            SchedulingPolicy(boost_cap=2.0)

    def test_replace_returns_an_updated_copy(self):
        policy = SchedulingPolicy()
        adaptive = policy.replace(policy="adaptive", resplit=False)
        assert adaptive.adaptive and not adaptive.resplit
        assert policy.policy == "static" and policy.resplit

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulingPolicy().policy = "adaptive"

    def test_nested_in_workload_options(self):
        options = WorkloadOptions(
            scheduling=SchedulingPolicy(policy="adaptive"))
        assert options.scheduling.adaptive
        assert WorkloadOptions().scheduling == SchedulingPolicy()

    def test_workload_options_replace_swaps_the_block(self):
        options = WorkloadOptions(max_concurrent=2)
        swapped = options.replace(
            scheduling=SchedulingPolicy(policy="adaptive"))
        assert swapped.scheduling.adaptive
        assert swapped.max_concurrent == 2
        assert not options.scheduling.adaptive

    def test_non_policy_scheduling_rejected(self):
        with pytest.raises(WorkloadError, match="scheduling"):
            WorkloadOptions(scheduling="adaptive")


class TestDeprecatedRebalanceAlias:
    def test_flat_rebalance_keyword_is_gone(self):
        with pytest.raises(TypeError, match="rebalance"):
            WorkloadOptions(rebalance=False)

    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            WorkloadOptions()
            WorkloadOptions(scheduling=SchedulingPolicy(rebalance=False))


class TestMonitorsValidation:
    def test_non_monitor_member_rejected(self):
        with pytest.raises(ExecutionError,
                           match="must contain Monitor rules"):
            ObservabilityOptions(monitors=("latency_slo",))

    def test_monitor_list_coerced_to_tuple(self):
        from repro.obs.monitor import default_monitors
        rules = list(default_monitors())
        options = ObservabilityOptions(monitors=rules)
        assert options.monitors == tuple(rules)


class _Scenario:
    """One adaptive-vs-static pair over the chained-join scenario."""

    @staticmethod
    def run(policy, factor=6.0):
        return run_adaptive_workload(factor, policy)


class TestResplit:
    @pytest.fixture(scope="class")
    def pair(self):
        return (_Scenario.run("static"), _Scenario.run("adaptive"))

    def test_resplit_event_carries_before_and_after_grants(self, pair):
        _, adaptive = pair
        events = adaptive.bus.events_of(SCHEDULE_RESPLIT)
        assert events, "slowed producers fired no resplit"
        for event in events:
            before, after = event.data["before"], event.data["after"]
            assert before.keys() == after.keys()
            assert sum(after.values()) == sum(before.values())
            assert event.data["boost"] > 1.0
            assert event.data["drivers"]

    def test_decision_log_records_the_resplit(self, pair):
        _, adaptive = pair
        assert adaptive.decisions is not None
        steps = [d.step for d in adaptive.decisions.decisions]
        assert STEP_RESPLIT in steps

    def test_adaptive_beats_static_on_the_slowed_cell(self, pair):
        static, adaptive = pair
        assert adaptive.makespan < static.makespan

    def test_resplit_changes_no_result_row(self, pair):
        static, adaptive = pair
        assert _rows(adaptive) == _rows(static)

    def test_static_run_carries_no_decision_log(self, pair):
        static, _ = pair
        assert static.decisions is None


class TestEscapeHatch:
    def test_uniform_cell_is_bit_identical_across_policies(self):
        static = _Scenario.run("static", factor=1.0)
        adaptive = _Scenario.run("adaptive", factor=1.0)
        assert adaptive.makespan == static.makespan
        assert _rows(adaptive) == _rows(static)
        assert len(adaptive.decisions) == 0
        assert not adaptive.bus.events_of(SCHEDULE_RESPLIT)
        assert not adaptive.bus.events_of(SCHEDULE_SWITCH)


class TestStrategySwitch:
    """A thread-targeted slowdown under static binding fakes Fig 12:
    equal estimated bucket costs, unequal observed ones."""

    @staticmethod
    def run(policy):
        db, plan, schema = build_adaptive_scenario()
        schedule = QuerySchedule({
            node.name: OperationSchedule(5, strategy=RANDOM,
                                         allow_secondary=False)
            for node in plan.nodes})
        faults = FaultPlan(seed=0, slowdowns=(
            SlowdownWindow(0.0, float("inf"), 8.0,
                           operation="join1", thread_ids=(0, 1)),))
        session = db.session(options=WorkloadOptions(
            scheduling=SchedulingPolicy(policy=policy, resplit=False),
            faults=faults))
        session.submit_plan(plan, schema, threads=ADAPTIVE_THREADS,
                            schedule=schedule, tag="q0")
        return session.run()

    @pytest.fixture(scope="class")
    def pair(self):
        return (self.run("static"), self.run("adaptive"))

    def test_switch_event_names_the_operation_and_strategies(self, pair):
        _, adaptive = pair
        events = adaptive.bus.events_of(SCHEDULE_SWITCH)
        assert events, "the Fig 12 signature fired no switch"
        event = events[0]
        assert event.data["before"] == RANDOM
        assert event.data["after"] == LPT
        assert event.data["estimated_skew"] <= 1.5
        assert event.data["observed"]

    def test_decision_log_records_the_switch(self, pair):
        _, adaptive = pair
        assert [d.step for d in adaptive.decisions.decisions].count(
            STEP_SWITCH) == len(adaptive.bus.events_of(SCHEDULE_SWITCH))

    def test_switch_changes_no_result_row(self, pair):
        static, adaptive = pair
        assert _rows(adaptive) == _rows(static)


class TestResplitShares:
    def test_moves_only_the_proven_idle_fraction(self):
        assert resplit_shares([7, 3], [TRIGGERED, PIPELINED], 0.5) \
            == [8, 2]

    def test_never_takes_a_consumers_last_thread(self):
        assert resplit_shares([9, 1], [TRIGGERED, PIPELINED], 0.9) \
            == [9, 1]

    def test_no_contrast_no_move(self):
        shares = [5, 5]
        assert resplit_shares(shares, [TRIGGERED, TRIGGERED], 0.9) == shares
        assert resplit_shares(shares, [PIPELINED, PIPELINED], 0.9) == shares


class TestMultiResourceAllocation:
    def test_memory_axis_caps_the_grant(self):
        grants = allocate_to_queries(
            20, [10, 10], [1.0, 1.0],
            resources=[ResourceVector(cpu=10, memory_bytes=900),
                       ResourceVector(cpu=10, memory_bytes=100)],
            capacities=ResourceVector(cpu=20, memory_bytes=1000))
        # Equal complexity weights split the memory capacity evenly
        # (500 each): the hungry query is capped at half its demand.
        assert grants[0] == 5
        assert grants[1] == 10

    def test_unbound_axes_reproduce_the_cpu_only_split(self):
        legacy = allocate_to_queries(16, [10, 10], [1.0, 3.0])
        vectors = allocate_to_queries(
            16, [10, 10], [1.0, 3.0],
            resources=[ResourceVector(), ResourceVector()],
            capacities=ResourceVector())
        assert vectors == legacy

    def test_cpu_axis_is_an_entitlement_not_a_pass_through(self):
        # Naming the CPU axis tightens each query to its complexity-
        # weight share of the capacity *before* water-filling — the
        # malleable-scheduling semantics, deliberately different from
        # the share-then-redistribute CPU-only path.
        grants = allocate_to_queries(
            16, [10, 10], [1.0, 3.0],
            resources=[ResourceVector(cpu=10), ResourceVector(cpu=10)],
            capacities=ResourceVector(cpu=16))
        assert grants == [4, 10]

    def test_resources_without_capacities_rejected(self):
        with pytest.raises(Exception):
            allocate_to_queries(16, [10], [1.0],
                                resources=[ResourceVector(cpu=10)])

    def test_negative_axis_rejected(self):
        with pytest.raises(Exception):
            ResourceVector(cpu=-1.0)

    def test_multi_resource_workload_matches_cpu_only_when_unbound(self):
        cpu_only = _Scenario.run("static", factor=1.0)
        db, plan, schema = build_adaptive_scenario()
        session = db.session(options=WorkloadOptions(
            scheduling=SchedulingPolicy(multi_resource=True)))
        session.submit_plan(plan, schema, threads=ADAPTIVE_THREADS,
                            tag="q0")
        vectors = session.run()
        assert vectors.makespan == cpu_only.makespan
        assert _rows(vectors) == _rows(cpu_only)
