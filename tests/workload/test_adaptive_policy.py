"""Adaptive scheduling: the ``WorkloadOptions.scheduling`` mode and the
controller.

Acceptance behaviors from the diagnostics-driven-scheduling design:

* ``WorkloadOptions(scheduling=...)`` names one of the two modes
  (validated at construction); the controller's switches and
  thresholds are not options;
* with the producer joins slowed, the controller re-splits the wave
  grant toward the blamed producers (conserving the thread budget
  exactly), beats the static policy in virtual time, and changes no
  result row;
* with a thread-targeted slowdown faking the Fig 12
  equal-counts/unequal-costs signature, a Random consumer switches to
  LPT — again without changing a row;
* ``scheduling="static"`` and the no-signal adaptive run are
  bit-identical to each other: relation (d) of
  ``tests/properties/test_lattice.py``.
"""

import dataclasses
import warnings

import pytest

from repro.adapt import resplit_shares
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
from repro.workload.options import POLICIES, WorkloadOptions


def _rows(result):
    return sum(e.result_cardinality for e in result.executions.values())


class TestSchedulingPolicyApi:
    """The scheduling mode is one field of ``WorkloadOptions``."""

    def test_defaults_are_static(self):
        assert POLICIES == ("static", "adaptive")
        assert WorkloadOptions().scheduling == "static"

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scheduling policy"):
            WorkloadOptions(scheduling="clairvoyant")

    def test_only_the_knobs_somebody_sets_are_fields(self):
        """The controller's switches and decision thresholds are
        constants of :mod:`repro.adapt.controller`, not options."""
        names = [f.name for f in dataclasses.fields(WorkloadOptions)]
        assert names.count("scheduling") == 1
        for knob in ("resplit", "multi_resource", "rebalance", "boost_cap"):
            assert knob not in names
            with pytest.raises(TypeError, match=knob):
                WorkloadOptions(**{knob: False})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WorkloadOptions().scheduling = "adaptive"

    def test_nested_in_workload_options(self):
        assert WorkloadOptions(scheduling="adaptive").scheduling == "adaptive"

    def test_non_policy_scheduling_rejected(self):
        for mode in (None, "Adaptive", ("adaptive",)):
            with pytest.raises(WorkloadError, match="scheduling"):
                WorkloadOptions(scheduling=mode)


class TestDeprecatedRebalanceAlias:
    def test_flat_rebalance_keyword_is_gone(self):
        with pytest.raises(TypeError, match="rebalance"):
            WorkloadOptions(rebalance=False)

    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            WorkloadOptions()
            WorkloadOptions(scheduling="adaptive")


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
            scheduling=policy, faults=faults))
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
        """Resplit fires beside the switch in this scenario: two kinds
        of decision in one run, each logged once per bus event."""
        _, adaptive = pair
        # What one decision and its bus event both name: the target
        # and the value chosen for it.
        pairs = (
            (STEP_RESPLIT, SCHEDULE_RESPLIT,
             lambda e: (f"{e.data['tag']}/w{e.data['wave']}",
                        e.data["after"])),
            (STEP_SWITCH, SCHEDULE_SWITCH,
             lambda e: (e.operation, e.data["after"])),
        )
        for step, kind, key in pairs:
            logged = [(d.target, d.chosen)
                      for d in adaptive.decisions.decisions if d.step == step]
            events = [key(e) for e in adaptive.bus.events_of(kind)]
            assert logged, f"no {step} decision recorded"
            assert logged == events
        assert {d.step for d in adaptive.decisions.decisions} == {
            STEP_RESPLIT, STEP_SWITCH}

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
