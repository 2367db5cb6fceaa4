"""Worker-thread model: clocks, accounting, main queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operation import OperationBlueprint, OperationRuntime
from repro.engine.strategies import make_strategy
from repro.engine.threads import RUNNABLE, WorkerThread
from repro.lera.graph import LeraNode
from repro.lera.operators import ScanFilterSpec
from repro.lera.predicates import TRUE
from repro.machine.costs import DEFAULT_COSTS
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key")
_seconds = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def _operation(instances=6, threads=2):
    fragments = [Fragment("R", i, SCHEMA, [(i,)]) for i in range(instances)]
    node = LeraNode("op", ScanFilterSpec(fragments, TRUE, SCHEMA))
    from repro.engine.dbfuncs import make_dbfunc
    runtime = OperationRuntime(OperationBlueprint(
        node, make_dbfunc(node.spec, DEFAULT_COSTS), make_strategy("random"),
        cache_size=1), None)
    runtime.build_pool(list(range(threads)), start_time=1.0)
    return runtime


class TestWorkerThread:
    def test_initial_state(self):
        operation = _operation()
        thread = operation.threads[0]
        assert thread.state == RUNNABLE
        assert thread.clock == 1.0
        assert thread.busy_time == 0.0

    def test_advance_accounts_busy_and_idle(self):
        thread = _operation().threads[0]
        thread.advance(2.0, busy=True)
        thread.advance(1.0, busy=False)
        assert thread.clock == 4.0
        assert thread.busy_time == 2.0
        assert thread.idle_time == 1.0

    def test_wait_until_only_moves_forward(self):
        thread = _operation().threads[0]
        thread.wait_until(5.0)
        assert thread.clock == 5.0
        assert thread.idle_time == 4.0
        thread.wait_until(3.0)  # in the past: no-op
        assert thread.clock == 5.0

    @given(clock=_seconds, seconds=_seconds, instant=_seconds)
    @settings(max_examples=100)
    def test_advance_then_wait_is_advance_and_wait_until(
            self, clock, seconds, instant):
        merged, reference = _operation().threads
        merged.clock = reference.clock = clock
        merged.advance_then_wait(seconds, instant)
        reference.advance(seconds, busy=True)
        reference.wait_until(instant)
        assert ((merged.clock, merged.busy_time, merged.idle_time)
                == (reference.clock, reference.busy_time,
                    reference.idle_time))
        if instant <= clock + seconds:
            assert merged.idle_time == 0.0

    def test_utilization(self):
        thread = _operation().threads[0]
        thread.advance(3.0, busy=True)
        thread.advance(1.0, busy=False)
        thread.finished_at = thread.clock
        assert thread.utilization == pytest.approx(0.75)

    def test_utilization_zero_lifetime(self):
        thread = _operation().threads[0]
        assert thread.utilization == 0.0


class TestMainQueueAssignment:
    def test_round_robin_distribution(self):
        operation = _operation(instances=6, threads=2)
        first, second = operation.threads
        assert {q.instance for q in first.main_queues} == {0, 2, 4}
        assert {q.instance for q in second.main_queues} == {1, 3, 5}

    def test_every_queue_has_exactly_one_owner(self):
        operation = _operation(instances=7, threads=3)
        owners = [q.instance for t in operation.threads
                  for q in t.main_queues]
        assert sorted(owners) == list(range(7))

    def test_more_threads_than_queues(self):
        operation = _operation(instances=2, threads=5)
        owned = [len(t.main_queues) for t in operation.threads]
        assert sum(owned) == 2
        # threads beyond the queue count own no main queue
        assert owned.count(0) == 3
