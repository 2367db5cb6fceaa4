"""Activation queues: FIFO order, ready times, capacity."""

import pytest

from repro.engine.queues import ActivationQueue
from repro.errors import ExecutionError
from repro.lera.activation import DATA, Activation, trigger
from repro.obs.probes import queue_depth_key


def _queue(kind="pipelined", capacity=None, estimate=0.0):
    return ActivationQueue("op", 0, kind, queue_depth_key("op"),
                           capacity=capacity, cost_estimate=estimate)


class TestEnqueueDequeue:
    def test_starts_empty(self):
        queue = _queue()
        assert len(queue) == 0
        assert not queue.has_ready(100.0)
        assert queue.next_ready_time() is None

    def test_fifo_within_same_ready_time(self):
        queue = _queue()
        for i in range(5):
            queue.enqueue(1.0, Activation(DATA, 0, (i,)))
        batch = queue.dequeue_ready(1.0, limit=5)
        assert [a.row[0] for a in batch] == [0, 1, 2, 3, 4]

    def test_ready_time_orders_across_producers(self):
        queue = _queue()
        queue.enqueue(2.0, Activation(DATA, 0, ("late",)))
        queue.enqueue(1.0, Activation(DATA, 0, ("early",)))
        batch = queue.dequeue_ready(3.0, limit=2)
        assert [a.row[0] for a in batch] == ["early", "late"]

    def test_future_activations_not_ready(self):
        queue = _queue()
        queue.enqueue(5.0, trigger(0))
        assert not queue.has_ready(4.999)
        assert queue.has_ready(5.0)
        assert queue.next_ready_time() == 5.0

    def test_dequeue_respects_limit(self):
        queue = _queue()
        for i in range(10):
            queue.enqueue(0.0, Activation(DATA, 0, (i,)))
        batch = queue.dequeue_ready(1.0, limit=3)
        assert len(batch) == 3
        assert len(queue) == 7

    def test_dequeue_stops_at_future_items(self):
        queue = _queue()
        queue.enqueue(1.0, Activation(DATA, 0, ("a",)))
        queue.enqueue(9.0, Activation(DATA, 0, ("b",)))
        batch = queue.dequeue_ready(2.0, limit=10)
        assert len(batch) == 1
        assert queue.next_ready_time() == 9.0

    def test_counters(self):
        queue = _queue()
        queue.enqueue(0.0, trigger(0))
        queue.dequeue_ready(1.0, limit=1)
        assert queue.enqueued == 1
        assert len(queue) == 0


class TestCapacity:
    def test_unbounded_never_over(self):
        queue = _queue()
        for i in range(1000):
            queue.enqueue(0.0, Activation(DATA, 0, (i,)))
        assert not queue.over_capacity

    def test_over_capacity_flag(self):
        queue = _queue(capacity=2)
        queue.enqueue(0.0, Activation(DATA, 0, (1,)))
        assert not queue.over_capacity
        queue.enqueue(0.0, Activation(DATA, 0, (2,)))
        assert queue.over_capacity

    def test_capacity_must_be_positive(self):
        with pytest.raises(ExecutionError):
            _queue(capacity=0)


class TestMetadata:
    def test_cost_estimate_stored(self):
        assert _queue(estimate=3.5).cost_estimate == 3.5

    def test_repr_mentions_operation(self):
        assert "op" in repr(_queue())
