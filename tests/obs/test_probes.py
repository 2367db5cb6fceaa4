"""Series step-function semantics, edge cases, and the self-audit
under deliberate bus corruption."""

import pytest

from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    QuerySchedule,
)
from repro.errors import ReproError
from repro.lera.plans import ideal_join_plan
from repro.machine.machine import Machine
from repro.obs.bus import DEQUEUE, ENQUEUE, Event
from repro.obs.export import verify_against_metrics
from repro.obs.probes import Series


class TestEmptySeries:
    def test_at_is_zero_anywhere(self):
        series = Series("empty")
        assert series.at(0.0) == 0.0
        assert series.at(123.4) == 0.0

    def test_len_and_pairs(self):
        series = Series("empty")
        assert len(series) == 0
        assert series.to_pairs() == []

    def test_peak_and_last_raise(self):
        series = Series("empty")
        with pytest.raises(ReproError):
            series.peak
        with pytest.raises(ReproError):
            series.last


class TestStepFunction:
    @pytest.fixture
    def series(self):
        s = Series("depth")
        for t, value in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            s.sample(t, value)
        return s

    def test_before_first_sample(self, series):
        assert series.at(-0.5) == 0.0

    def test_at_exact_boundaries(self, series):
        # at() is right-continuous: the value at a sample time is the
        # value that sample set.
        assert series.at(0.0) == 1.0
        assert series.at(1.0) == 3.0
        assert series.at(2.0) == 2.0

    def test_between_samples(self, series):
        assert series.at(0.5) == 1.0
        assert series.at(1.999) == 3.0

    def test_at_and_beyond_last_boundary(self, series):
        # The step function extends flat past the last sample.
        assert series.at(2.0) == 2.0
        assert series.at(100.0) == 2.0
        assert series.at(100.0) == series.last

    def test_peak(self, series):
        assert series.peak == 3.0


class TestRepeatedTimestamps:
    def test_last_sample_at_a_time_wins(self):
        # Discrete-event ties: several updates can land on the same
        # virtual instant; the final state at that instant is what the
        # step function must report.
        series = Series("ties")
        series.sample(1.0, 5.0)
        series.sample(1.0, 7.0)
        series.sample(1.0, 4.0)
        assert series.at(1.0) == 4.0
        assert series.at(2.0) == 4.0
        assert series.at(0.9) == 0.0
        assert series.peak == 7.0

    def test_compaction_keeps_value_changes_only(self):
        series = Series("dups")
        for t, value in ((0.0, 1.0), (1.0, 1.0), (1.0, 2.0),
                         (2.0, 2.0), (3.0, 1.0)):
            series.sample(t, value)
        assert series.to_pairs() == [(0.0, 1.0), (1.0, 2.0), (3.0, 1.0)]
        # The step function is the one the repeated samples described.
        assert [series.at(t) for t in (0.5, 1.0, 2.0, 3.0)] == [
            1.0, 2.0, 2.0, 1.0]


class TestSelfAuditCorruption:
    """verify_against_metrics must notice a tampered bus."""

    @pytest.fixture
    def observed(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key")
        executor = Executor(Machine.uniform(processors=8),
                            ExecutionOptions(
                                observability=ObservabilityOptions(
                                    observe=True)))
        return executor.execute(plan, QuerySchedule.for_plan(plan, 4))

    def test_clean_bus_passes(self, observed):
        assert verify_against_metrics(observed) == []

    def test_dropped_dequeue_detected(self, observed):
        events = observed.obs.events
        index = next(i for i, e in enumerate(events) if e.kind == DEQUEUE)
        del events[index]
        problems = verify_against_metrics(observed)
        assert any("dequeue_batches" in p for p in problems)

    def test_forged_enqueue_detected(self, observed):
        operation = next(iter(observed.operations))
        observed.obs.events.append(
            Event(ENQUEUE, 0.0, operation, 0, {"count": 1}))
        problems = verify_against_metrics(observed)
        assert any("enqueues" in p and operation in p for p in problems)
