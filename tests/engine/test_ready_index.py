"""Ready index: exact equivalence with the legacy linear queue scan.

The index replaces the simulator's O(d) per-step scan; every test here
checks it against a straight reimplementation of that scan, including
a randomized enqueue/dequeue/query fuzz over drifting thread clocks
that compares each strategy's pick from the index's ranked candidates
with the pick the old strategies (sort and draw, ``max``) made from
the scan's.
"""

import random

import pytest

from repro.engine.dbfuncs import make_dbfunc
from repro.engine.operation import (
    READY_INDEX_MIN_INSTANCES,
    OperationBlueprint,
    OperationRuntime,
)
from repro.engine.ready_index import ReadyIndex
from repro.engine.strategies import make_strategy
from repro.lera.activation import DATA, Activation, trigger
from repro.lera.graph import LeraNode
from repro.lera.operators import ScanFilterSpec
from repro.lera.predicates import TRUE
from repro.machine.costs import DEFAULT_COSTS
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key")


def _operation(instances=12, threads=3, allow_secondary=True,
               with_index=True, strategy="random"):
    """A triggered operation with its pool built and the index attached.

    The index is attached explicitly so the tests are independent of
    the READY_INDEX_MIN_INSTANCES wall-clock gate.  Fragment sizes
    repeat, so LPT's estimates tie.
    """
    fragments = [Fragment("R", i, SCHEMA, [(j,) for j in range(1 + i % 4)])
                 for i in range(instances)]
    node = LeraNode("op", ScanFilterSpec(fragments, TRUE, SCHEMA))
    operation = OperationRuntime(OperationBlueprint(
        node, make_dbfunc(node.spec, DEFAULT_COSTS), make_strategy(strategy),
        cache_size=1, allow_secondary=allow_secondary), None)
    operation.build_pool(list(range(threads)), start_time=0.0)
    if with_index and operation.ready_index is None:
        operation.ready_index = ReadyIndex(operation)
    return operation


def _scan_reference(thread, now):
    """The legacy per-step scan, restated (mirrors Simulator._scan_select):
    the ready instance ids in instance order."""
    operation = thread.operation
    ready = []
    polls = 0
    future = None
    for queue in thread.main_queues:
        if queue.has_ready(now):
            ready.append(queue.instance)
        else:
            polls += 1
            t = queue.next_ready_time()
            if t is not None and (future is None or t < future):
                future = t
    used_secondary = False
    if not ready and operation.allow_secondary:
        main_set = thread.main_queue_set
        for queue in operation.queues:
            if queue.instance in main_set:
                continue
            if queue.has_ready(now):
                ready.append(queue.instance)
            else:
                polls += 1
                t = queue.next_ready_time()
                if t is not None and (future is None or t < future):
                    future = t
        used_secondary = True
    return ready, polls, future, used_secondary


def _ranked(operation, instances):
    """*instances* in the operation's strategy's rank order."""
    return sorted(instances, key=operation.lpt_keys.__getitem__
                  if operation.strategy.ranks_by_cost else None)


def _assert_matches_scan(operation, now, pick=None):
    """Index selection == scan selection for every thread of the pool:
    the candidates in rank order, polls, ``used_secondary`` and, on an
    empty selection, the future time.  *pick*, if given, is called as
    ``pick(thread, want_ready, ready)`` on every non-empty selection."""
    index = operation.ready_index
    for thread in operation.threads:
        want_ready, want_polls, want_future, want_secondary = \
            _scan_reference(thread, now)
        quiet = index.quiet(thread, now)
        if quiet is not None:
            # The O(1) miss may only answer when the scan is a full
            # miss with something to wait for, and must name its time.
            assert (want_ready, want_polls, want_future, want_secondary) == (
                [], len(operation.queues), quiet, True)
        got_ready, got_polls, got_future, got_secondary = index.select(
            thread, now, operation.allow_secondary)
        where = f"thread {thread.pool_index} @ {now}"
        assert list(got_ready) == _ranked(operation, want_ready), where
        assert got_polls == want_polls, where
        assert got_secondary == want_secondary, where
        # The simulator consults the future time only on an empty
        # selection; the scan's future skips ready queues, so the two
        # only coincide in that (empty) case.
        assert got_future == (None if want_ready else want_future), where
        if want_ready and pick is not None:
            pick(thread, want_ready, got_ready)


class TestSelection:
    def test_empty_operation_selects_nothing(self):
        operation = _operation()
        _assert_matches_scan(operation, now=10.0)

    def test_ready_mains_in_instance_order(self):
        operation = _operation(instances=12, threads=3)
        # Thread 0's mains are instances 0, 3, 6, 9; make three ready
        # out of order.
        for instance in (9, 0, 6):
            operation.queues[instance].enqueue(1.0, trigger(instance))
        ready, polls, _, used_secondary = operation.ready_index.select(
            operation.threads[0], 2.0, True)
        assert ready == [0, 6, 9]
        assert polls == 1          # instance 3 scanned empty
        assert not used_secondary
        _assert_matches_scan(operation, 2.0)
        # A positional strategy picks from the ranked list as it is.
        assert operation.strategy.choose(random.Random(0), ready) in ready
        assert ready == [0, 6, 9]

    def test_lpt_ranks_by_cost(self):
        operation = _operation(instances=12, threads=3, strategy="lpt")
        # Thread 0's mains 0, 3, 6, 9 hold 1, 4, 3, 2 rows.
        for instance in (9, 0, 6, 3):
            operation.queues[instance].enqueue(1.0, trigger(instance))
        ready = operation.ready_index.select(
            operation.threads[0], 2.0, True)[0]
        assert ready == [0, 9, 6, 3]
        assert operation.strategy.choose(random.Random(0), ready) == 3

    def test_future_main_not_selected(self):
        operation = _operation()
        operation.queues[0].enqueue(5.0, trigger(0))
        ready, polls, future, _ = operation.ready_index.select(
            operation.threads[0], 4.999, True)
        assert ready == []
        assert polls == 12         # mains AND secondaries polled empty
        assert future == 5.0

    def test_secondary_fallback_excludes_mains(self):
        operation = _operation(instances=12, threads=3)
        # Nothing ready for thread 0; instances 1 and 5 (mains of
        # threads 1 and 2) are ready.
        operation.queues[1].enqueue(1.0, trigger(1))
        operation.queues[5].enqueue(1.0, trigger(5))
        ready, polls, _, used_secondary = operation.ready_index.select(
            operation.threads[0], 2.0, True)
        assert sorted(ready) == [1, 5]
        assert used_secondary
        # 4 own mains + 6 not-ready secondaries were scanned empty.
        assert polls == 10
        _assert_matches_scan(operation, 2.0)

    def test_main_preferred_over_earlier_secondary(self):
        operation = _operation(instances=12, threads=3)
        operation.queues[1].enqueue(0.5, trigger(1))   # other pool, earlier
        operation.queues[3].enqueue(1.0, trigger(3))   # own main, later
        ready, _, _, used_secondary = operation.ready_index.select(
            operation.threads[0], 2.0, True)
        assert ready == [3]
        assert not used_secondary

    def test_no_secondary_when_disallowed(self):
        operation = _operation(allow_secondary=False)
        operation.queues[1].enqueue(1.0, trigger(1))   # not thread 0's main
        ready, polls, future, used_secondary = operation.ready_index.select(
            operation.threads[0], 2.0, False)
        assert ready == []
        assert polls == 4
        assert not used_secondary
        # Without secondary access the thread only waits on its mains.
        assert future is None
        _assert_matches_scan(operation, 2.0)


class TestIncrementalMaintenance:
    def test_dequeue_retires_ready_entry(self):
        operation = _operation()
        queue = operation.queues[0]
        queue.enqueue(1.0, trigger(0))
        thread = operation.threads[0]
        assert operation.ready_index.select(thread, 2.0, True)[0] == [0]
        queue.dequeue_ready(2.0, limit=1)
        assert operation.ready_index.select(thread, 2.0, True)[0] == []
        _assert_matches_scan(operation, 2.0)

    def test_dequeue_reveals_next_head(self):
        operation = _operation()
        queue = operation.queues[0]
        queue.enqueue(1.0, Activation(DATA, 0, ("a",)))
        queue.enqueue(5.0, Activation(DATA, 0, ("b",)))
        queue.dequeue_ready(2.0, limit=1)
        thread = operation.threads[0]
        assert operation.ready_index.select(thread, 2.0, True)[::2] == (
            [], 5.0)
        assert operation.ready_index.select(thread, 5.0, True)[0] == [0]

    def test_earlier_enqueue_displaces_head(self):
        operation = _operation()
        queue = operation.queues[0]
        queue.enqueue(9.0, Activation(DATA, 0, ("late",)))
        thread = operation.threads[0]
        index = operation.ready_index
        assert index.select(thread, 0.0, True)[2] == 9.0
        queue.enqueue(3.0, Activation(DATA, 0, ("early",)))
        assert index.select(thread, 0.0, True)[2] == 3.0
        # The stale 9.0 entry must not resurface after consuming 3.0.
        queue.dequeue_ready(4.0, limit=1)
        assert index.select(thread, 4.0, True)[2] == 9.0
        _assert_matches_scan(operation, 4.0)

    def test_ready_set_member_rechecked_against_slower_clock(self):
        operation = _operation()
        queue = operation.queues[0]
        queue.enqueue(5.0, trigger(0))
        fast, slow = operation.threads[0], operation.threads[0]
        # A query at now=10 admits the entry to the ready set ...
        assert operation.ready_index.select(fast, 10.0, True)[0] == [0]
        # ... but a query at now=4 must still see it as not ready.
        assert operation.ready_index.select(slow, 4.0, True)[0] == []
        _assert_matches_scan(operation, 4.0)


class TestQuiet:
    """The O(1) miss ``Simulator._step`` asks for before it scans."""

    def test_answers_when_everything_pending_is_in_the_future(self):
        operation = _operation()
        operation.queues[7].enqueue(5.0, trigger(7))
        operation.queues[2].enqueue(8.0, trigger(2))
        for thread in operation.threads:
            assert operation.ready_index.quiet(thread, 4.0) == 5.0
        _assert_matches_scan(operation, 4.0)

    def test_declines_when_something_is_ready(self):
        operation = _operation()
        operation.queues[7].enqueue(5.0, trigger(7))
        for thread in operation.threads:
            assert operation.ready_index.quiet(thread, 5.0) is None

    def test_declines_on_a_ready_set_member_without_walking_the_set(self):
        operation = _operation()
        index = operation.ready_index
        operation.queues[0].enqueue(5.0, trigger(0))
        # A faster thread admits instance 0 to the ready sets; for a
        # thread still at 4.0 the scan is a miss, but telling so would
        # take a walk over the set — quiet leaves that to select.
        assert index.select(operation.threads[1], 10.0, True)[0]
        assert index.quiet(operation.threads[2], 4.0) is None
        assert index.select(operation.threads[2], 4.0, True)[:3] == (
            [], 12, 5.0)

    def test_declines_on_a_member_of_the_own_pool_set_alone(self):
        operation = _operation()
        index = operation.ready_index
        operation.queues[0].enqueue(5.0, trigger(0))
        # Thread 0 finds its main queue ready at 10.0, so only its own
        # pool's set admits instance 0; the operation-wide structure
        # still holds it as a heap entry.  At 4.0 the scan is a miss
        # again, but quiet only answers when both ready sets are empty.
        thread = operation.threads[0]
        assert index.select(thread, 10.0, True)[0]
        assert index.quiet(thread, 4.0) is None
        assert index.select(thread, 4.0, True)[:3] == ([], 12, 5.0)

    def test_declines_with_nothing_to_wait_for(self):
        operation = _operation()
        assert operation.ready_index.quiet(operation.threads[0], 1.0) is None

    def test_declines_without_secondary_access(self):
        operation = _operation(allow_secondary=False)
        operation.queues[0].enqueue(5.0, trigger(0))
        assert operation.ready_index.quiet(operation.threads[0], 1.0) is None

    def test_purges_stale_tops_like_select(self):
        def heaps(ask):
            operation = _operation()
            index = operation.ready_index
            queue = operation.queues[0]
            queue.enqueue(9.0, Activation(DATA, 0, ("late",)))
            queue.enqueue(3.0, Activation(DATA, 0, ("early",)))
            queue.dequeue_ready(4.0, limit=1)     # 3.0 entries go stale
            before = sum(len(heap) for heap in index._heaps)
            ask(index, operation.threads[0])
            return before, [list(heap) for heap in index._heaps]

        via_quiet = heaps(lambda index, thread: index.quiet(thread, 4.0))
        via_select = heaps(lambda index, thread: index.select(
            thread, 4.0, True))
        assert via_quiet == via_select
        # Both stale 3.0 tops went; the 9.0 entries stay.
        assert via_quiet[0] - sum(map(len, via_quiet[1])) == 2


class TestGate:
    def test_index_attached_above_threshold(self):
        operation = _operation(instances=READY_INDEX_MIN_INSTANCES,
                               threads=4, with_index=False)
        assert operation.ready_index is not None
        assert all(q.listener is operation.ready_index
                   for q in operation.queues)

    def test_small_degree_stays_on_scan(self):
        operation = _operation(instances=READY_INDEX_MIN_INSTANCES - 1,
                               threads=4, with_index=False)
        assert operation.ready_index is None
        assert all(q.listener is None for q in operation.queues)


# -- the old strategies over the scan's candidates, restated as the oracle ---

def _old_random(rng, ready, keys):
    if len(ready) == 1:
        return ready[0]
    ready.sort()
    return ready[rng.randrange(len(ready))]


def _old_lpt(rng, ready, keys):
    return max(ready, key=keys.__getitem__)


OLD_CHOICE = {"random": _old_random, "lpt": _old_lpt}


def _fuzz(strategy, allow_secondary, seed):
    """Random traffic over drifting clocks; at every query instant each
    thread's selection is compared with the scan's
    (:func:`_assert_matches_scan`), and each non-empty one also by the
    strategy's pick from the index's ranked candidates against the old
    strategy's from the scan's, and the RNG state after the choice.
    Ends with a drain check after every head time.  Returns how often
    each corner came up."""
    rng = random.Random(seed)
    operation = _operation(instances=30, threads=4, strategy=strategy,
                           allow_secondary=allow_secondary)
    index = operation.ready_index
    queues = operation.queues
    pick_rng, old_rng = random.Random(seed), random.Random(seed)
    seen = dict.fromkeys(("lone", "several", "secondary", "filtered",
                          "helper", "stale", "duplicate"), 0)

    def pick(thread, want_ready, ready):
        secondary = not thread.main_queue_set & set(want_ready)
        seen["filtered"] += index._bound[-1 if secondary
                                         else thread.pool_index] > now
        seen["secondary"] += secondary
        seen["lone" if len(want_ready) == 1 else "several"] += 1
        want = OLD_CHOICE[strategy](old_rng, list(want_ready),
                                    operation.lpt_keys)
        where = f"{strategy}: thread {thread.pool_index} @ {now}"
        assert operation.strategy.choose(pick_rng, ready) == want, where
        assert pick_rng.getstate() == old_rng.getstate(), where

    for step in range(3000):
        action = rng.random()
        if allow_secondary and step % 1000 == 999:
            # A helper thread: a pool slot with no main queues.
            operation.add_threads([100 + step], 0.0)
            seen["helper"] += 1
        elif action < 0.4:
            queue = queues[rng.randrange(len(queues))]
            queue.enqueue(round(rng.uniform(0.0, 50.0), 3),
                          Activation(DATA, queue.instance, (step,)))
        elif action < 0.7:
            queue = queues[rng.randrange(len(queues))]
            queue.dequeue_ready(round(rng.uniform(0.0, 50.0), 3),
                                limit=rng.randrange(1, 4))
        else:
            for slot, heap in enumerate(index._heaps):
                member = index._member[slot]
                valid = [entry for entry in heap
                         if entry[0] == index._nrt[entry[1]]]
                seen["stale"] += len(heap) - len(valid)
                seen["duplicate"] += len(valid) - len(
                    {entry for entry in valid if not member[entry[1]]})
            now = round(rng.uniform(0.0, 50.0), 3)
            _assert_matches_scan(operation, now, pick)
    now = 60.0
    _assert_matches_scan(operation, now, pick)
    return seen


def _assert_corners(seen, allow_secondary):
    corners = ["lone", "several", "filtered", "stale", "duplicate"]
    if allow_secondary:
        corners += ["secondary", "helper"]
    assert all(seen[corner] > 0 for corner in corners), seen


class TestFuzzAgainstScan:
    def test_randomized_traffic_matches_scan_exactly(self):
        _assert_corners(_fuzz("random", True, seed=20250805), True)

    @pytest.mark.parametrize("strategy, allow_secondary", [
        ("random", False), ("lpt", True), ("lpt", False)])
    def test_each_pick_is_the_scans(self, strategy, allow_secondary):
        _assert_corners(_fuzz(strategy, allow_secondary, seed=20251019),
                        allow_secondary)
