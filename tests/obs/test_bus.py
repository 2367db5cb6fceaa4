"""Event-bus and probe-series primitives."""

import pytest

from repro.engine.queues import ActivationQueue
from repro.errors import ReproError
from repro.lera.activation import trigger
from repro.obs.bus import DEQUEUE, ENQUEUE, MEMORY, EventBus
from repro.obs.probes import (
    ACTIVE_THREADS,
    MEMORY_PENALTY,
    Series,
    queue_depth_key,
)


class TestSeries:
    def test_sample_and_last_peak(self):
        series = Series("depth")
        series.sample(0.0, 1)
        series.sample(1.0, 3)
        series.sample(2.0, 2)
        assert len(series) == 3
        assert series.last == 2
        assert series.peak == 3

    def test_empty_series_raises(self):
        with pytest.raises(ReproError):
            Series("empty").last
        with pytest.raises(ReproError):
            Series("empty").peak

    def test_a_series_keeps_only_changes(self):
        # A sample repeating the last value stores nothing; the first
        # sample of every run of equal values is the one kept.
        series = Series("depth")
        for t, v in [(0.0, 1), (1.0, 1), (2.0, 2), (3.0, 2.0), (4.0, 1)]:
            series.sample(t, v)
        assert series.to_pairs() == [(0.0, 1), (2.0, 2), (4.0, 1)]
        assert len(series) == 3

    def test_key_helpers(self):
        assert queue_depth_key("join") == "queue_depth/join"


class TestEventBus:
    def test_emit_and_query(self):
        bus = EventBus()
        bus.emit(ENQUEUE, 0.5, operation="join", thread_id=2, count=3)
        bus.emit(DEQUEUE, 0.7, operation="join", thread_id=2,
                 count=3, secondary=False)
        bus.emit(DEQUEUE, 0.9, operation="scan", thread_id=1,
                 count=1, secondary=True)
        assert bus.kind_counts() == {ENQUEUE: 1, DEQUEUE: 2}
        assert len(bus.events_of(DEQUEUE)) == 2
        assert len(bus.events_of(DEQUEUE, "join")) == 1
        assert bus.events[0].data == {"count": 3}
        # Digests hash reprs of records, so the spelling is part of
        # the format.
        assert repr(bus.events[0]) == (
            "Event(kind='queue.enqueue', t=0.5, operation='join', "
            "thread_id=2, data={'count': 3})")

    def test_round_trip_totals(self):
        bus = EventBus()
        bus.emit(ENQUEUE, 0.1, operation="join", count=4)
        bus.emit(ENQUEUE, 0.2, operation="join", count=6)
        bus.emit(DEQUEUE, 0.3, operation="join", count=10, secondary=False)
        bus.emit(DEQUEUE, 0.4, operation="join", count=0, secondary=True)
        assert bus.enqueue_total("join") == 10
        assert bus.dequeue_batch_total("join") == 2
        assert bus.secondary_access_total("join") == 1
        assert bus.enqueue_total("ghost") == 0

    def test_queue_depth_probe_follows_hooks(self):
        bus = EventBus()
        queue = ActivationQueue("join", 0, "pipelined",
                                queue_depth_key("join"))
        queue.obs = bus
        queue.enqueue(0.1, trigger(0))
        queue.enqueue(0.2, trigger(0))
        assert len(queue.dequeue_ready(0.3, limit=2)) == 2
        depth = bus.series[queue_depth_key("join")]
        assert depth.to_pairs() == [(0.1, 1), (0.2, 2), (0.3, 0)]
        assert depth.peak == 2
        assert depth.last == 0

    def test_add_samples_and_counts(self):
        bus = EventBus()
        assert bus.add("x", 1.0, 2) == 2
        assert bus.add("x", 2.0, -1) == 1
        assert bus.add("x", 3.0, 0) == 1    # counted, not re-sampled
        assert bus.add("x", 4.0, 3) == 4    # from the series' last value
        assert bus.series["x"].to_pairs() == [(1.0, 2), (2.0, 1), (4.0, 4)]
        # The total starts at 0.0, so an integer delta stores a float.
        assert type(bus.series["x"].values[0]) is float

    def test_sample_active_and_memory(self):
        bus = EventBus()
        bus.sample_active(0.0, 4)
        bus.add_memory_penalty(1.0, "join", 3, 0.25)
        bus.add_memory_penalty(2.0, "join", 3, 0.25)
        assert bus.series[ACTIVE_THREADS].last == 4
        assert bus.series[MEMORY_PENALTY].last == pytest.approx(0.5)
        assert len(bus.events_of(MEMORY, "join")) == 2

    def test_hand_over_moves_one_operations_records(self):
        host, rider = EventBus(), EventBus()
        host.emit(ENQUEUE, 0.1, operation="join", thread_id=1, count=2)
        host.emit(ENQUEUE, 0.2, operation="scan", thread_id=0, count=1)
        host.trace.record(1, "join", "activation", 0.1, 0.2)
        host.trace.record(0, "scan", "activation", 0.0, 0.2)
        host.add(queue_depth_key("join"), 0.1, 2)
        host.add(queue_depth_key("scan"), 0.2, 1)
        rider.emit(DEQUEUE, 0.05, operation="filter", count=1,
                   secondary=False)
        host.hand_over("join", rider)
        assert [e.operation for e in host.events] == ["scan"]
        assert [e.operation for e in rider.events] == ["filter", "join"]
        assert [s.operation for s in host.trace.events] == ["scan"]
        assert [s.operation for s in rider.trace.events] == ["join"]
        assert set(host.series) == {queue_depth_key("scan")}
        # The running total goes on from where the host left it.
        assert rider.add(queue_depth_key("join"), 0.3, -2) == 0
