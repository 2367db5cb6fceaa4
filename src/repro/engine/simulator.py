"""The discrete-event, virtual-time simulator.

This is the reproduction's substitute for real POSIX threads on the
KSR1 (CPython's GIL forbids true shared-memory CPU parallelism): every
worker thread is a simulated actor with a private virtual clock, and
the event loop always advances the thread whose clock is smallest.
Queue scans, mutex acquisitions, activation processing and pipeline
enqueues all charge calibrated virtual time, so the load-balancing
dynamics the paper measures — main/secondary queue discipline,
Random/LPT consumption, pipelined overlap, skew-induced stragglers —
play out exactly as they would on the prototype, deterministically.

The real relational work still happens: operators produce actual
result tuples while their clocks advance.

Processor over-subscription (more threads than processors) is modelled
as processor sharing: work is dilated by the number of *currently
active* threads over the processor count.  When over-subscription is
possible, activations are processed in time slices so that a long
activation re-samples the dilation as other threads drain — a lone
straggler finishing the last expensive activation runs at full speed,
exactly as on the real machine.  With no over-subscription the
dilation is identically 1 and whole activations are charged in one
step (fast path).

One simulator instance models one machine, and the event heap is
shared: a *workload* of several queries runs by admitting each query's
operations into the same loop (:meth:`Simulator.add_operations`,
possibly at different virtual times) and letting their threads
interleave — the dilation then follows the combined active thread
count, which is exactly how concurrent queries contend on the real
machine.  The workload engine (:mod:`repro.workload.engine`) is the
simulator's only client; a single query is a workload of one.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import TYPE_CHECKING, Callable

from repro.engine.dbfuncs import ExecContext, ProcessResult, new_record
from repro.engine.operation import OperationRuntime
from repro.engine.queues import ActivationQueue
from repro.engine.ready_index import ReadyIndex
from repro.engine.threads import (
    BLOCKED,
    FINISHED,
    RUNNABLE,
    WAITING,
    WorkerThread,
)
from repro.engine.trace import TraceEvent
from repro.errors import ExecutionFaultError
from repro.obs.bus import (
    BLOCK,
    DEQUEUE,
    ENQUEUE,
    FAULT_ACTIVATION,
    FAULT_STALL,
    OP_FINALIZE,
    OP_FINISH,
    THREAD_FINISH,
    UNBLOCK,
    Event,
)
from repro.lera.activation import DATA, Activation
from repro.machine.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.injector import FaultInjector
    from repro.prof.profiler import EngineProfiler

#: Number of slices a dilated activation is split into; finer slices
#: track the draining of concurrent threads more precisely.
DILATION_SLICES = 16

#: Method -> profiler section of the event loop's timed phases, wrapped
#: once at construction when the run is profiled.  The perf ledger reads
#: the ``ready_scan`` call count as the number of event-loop steps: the
#: *scans* — a wake-up :meth:`ReadyIndex.quiet` answers makes none.
#: The operator bodies are timed as ``dbfunc`` on each admitted
#: operation's ``DBFunc`` (:meth:`Simulator.add_operations`).
_PROFILED_SECTIONS = {
    "run": "sim",
    "_index_select": "ready_scan",
    "_scan_select": "ready_scan",
    "_deliver": "deliver",
    "_fail_attempt": "fault",
    "_finalize_operation": "finalize",
}


class _WorkInProgress:
    """A partially charged activation (slicing mode only)."""

    __slots__ = ("emitted", "started_at", "remaining", "slice")

    def __init__(self, emitted: list, started_at: float,
                 total: float) -> None:
        self.emitted = emitted
        self.started_at = started_at
        self.remaining = total
        self.slice = max(total / DILATION_SLICES, 1e-12)


class Simulator:
    """Runs operations of one (or several) queries to completion."""

    def __init__(self, machine: Machine, seed: int,
                 injector: "FaultInjector",
                 profiler: "EngineProfiler | None",
                 on_operation_complete: Callable[
                     [OperationRuntime, WorkerThread], None],
                 on_query_abort: Callable[
                     [OperationRuntime, ExecutionFaultError, float], None]
                 ) -> None:
        self.machine = machine
        self.rng = random.Random(seed)
        #: Invoked as ``callback(operation, thread)`` right after an
        #: operation's last thread terminates (``finished_at`` is set,
        #: downstream input-close already handled).  The workload
        #: engine hooks query-completion bookkeeping — next-wave
        #: admission, thread re-granting — in here.
        self.on_operation_complete = on_operation_complete
        #: Invoked as ``callback(operation, error, at)`` when an
        #: activation exhausts its fault retries.  The workload engine
        #: drains the owning query's wave here, and the simulation
        #: continues for the survivors.
        self.on_query_abort = on_query_abort
        #: The run's :class:`~repro.faults.injector.FaultInjector`
        #: (``NO_FAULTS`` for a run without a plan).  Each hook sits
        #: behind one of its precomputed flags; the one ``_step`` reads
        #: is held here.
        self._injector = injector
        self._perturbs_cpu = injector.perturbs_cpu
        #: Times the event loop's phases (and each admitted operator
        #: body) as sections; ``None`` for an unprofiled run.
        self._profiler = profiler
        self._heap: list[tuple[float, int, WorkerThread]] = []
        self._seq = 0
        #: The one context every activation shares on a machine that
        #: cannot charge a touch (its ``penalty`` stays 0.0); Allcache
        #: machines get one per activation, owned by the thread.
        self._uniform_ctx = (ExecContext(machine, -1)
                          if machine.directory is None else None)
        #: Threads currently runnable (not parked, blocked or done),
        #: and the dilation factor every charge multiplies by — both
        #: written only by :meth:`_shift_active`.
        self._active = 0
        self._dilation = machine.dilation(0)
        #: Unfinished threads currently admitted (active + waiting +
        #: blocked).  Drives the over-subscription (slicing) decision;
        #: ``_active`` alone drives the dilation.
        self._live = 0
        self._sliced = False
        # Per-thread slicing state, keyed by thread id.
        self._in_progress: dict[int, _WorkInProgress] = {}
        self._pending_batch: dict[int, list[Activation]] = {}
        if profiler is not None:
            profiler.instrument(self, _PROFILED_SECTIONS)

    # -- public API -----------------------------------------------------------

    def add_operations(self, operations: list[OperationRuntime]) -> None:
        """Admit built operations into the event loop.

        Their threads join the shared heap; the over-subscription mode
        is re-evaluated against the combined live thread count.  Safe
        to call mid-run (from an operation-complete callback): new
        threads start at their pool's build time, which can never lie
        in the past of the event being processed.
        """
        added = 0
        profiler = self._profiler
        injector = self._injector
        for operation in operations:
            if profiler is not None:
                profiler.instrument(operation.dbfunc, {"process": "dbfunc"})
            operation.may_fail = (injector.can_fail
                                  and injector.may_fail(operation.name))
            for thread in operation.threads:
                if thread.finished_at is None:
                    self._push(thread)
                    added += 1
        self._live += added
        self._sliced = self._live > self.machine.processors
        if operations:
            self._shift_active(added, operations[0].bus,
                               operations[0].started_at)

    def add_threads(self, operation: OperationRuntime,
                    threads: list[WorkerThread]) -> None:
        """Admit freshly granted helper threads of an existing operation.

        Used by the workload engine's dynamic reallocation: when a
        query completes, its processors are re-granted to the remaining
        queries as extra pool threads, mid-wave.
        """
        for thread in threads:
            self._push(thread)
        self._live += len(threads)
        self._sliced = self._live > self.machine.processors
        if threads:
            self._shift_active(len(threads), operation.bus,
                               threads[0].started_at)

    def run(self, until: float | None = None) -> float | None:
        """Drain the event loop, optionally pausing at a time boundary.

        Processes events while the earliest pending clock is <=
        *until* (all of them when ``None``).  Returns the clock of the
        first unprocessed event, or ``None`` when the heap drained —
        the workload engine uses the boundary to interleave query
        arrivals with the running simulation.
        """
        heap = self._heap
        injector = self._injector
        in_progress = self._in_progress
        pop = heapq.heappop
        step = self._step
        limit = math.inf if until is None else until
        # One test per pop covers both the caller's boundary and the
        # next time-triggered fault (``inf`` when none is pending).
        bound = min(limit, injector.next_time_at)
        while heap:
            clock = heap[0][0]
            if clock >= bound:
                if clock > limit:
                    return clock
                if clock >= injector.next_time_at:
                    # Memory pressure fires between events, at the
                    # granularity of event pops.
                    injector.apply_time(clock, self.machine)
                    bound = min(limit, injector.next_time_at)
            thread = pop(heap)[2]
            if thread.state != RUNNABLE:
                continue
            if in_progress and thread.thread_id in in_progress:
                self._advance_slice(thread)
            else:
                step(thread)
        return None

    def drain_operations(self, operations: list[OperationRuntime],
                         at: float) -> int:
        """Cancel in-flight operations: discard their pending work.

        Used for query cancellation/abort.  Queued activations are
        dropped (counted as ``discarded``), input is closed, the
        end-of-input emission is suppressed, and every parked thread is
        woken so it observes the drained state and terminates through
        the normal :meth:`_finish_thread` path — completion callbacks
        still fire, and co-running operations are untouched.  Returns
        the number of discarded activations.
        """
        discarded = 0
        for operation in operations:
            if not operation.threads or operation.complete:
                continue
            # Suppress the operator's end-of-input emission: a
            # cancelled aggregate must not deliver partial groups.
            operation.finalized = True
            for queue in operation.queues:
                dropped = queue.discard_pending(at)
                if dropped:
                    operation.pending_activations -= dropped
                    operation.discarded += dropped
                    discarded += dropped
            operation.close_input()
            for thread in operation.threads:
                tid = thread.thread_id
                # Abandon partially charged slices (the activation was
                # already processed, only its delivery is dropped) and
                # discard fetched-but-unprocessed batch entries.
                self._in_progress.pop(tid, None)
                batch = self._pending_batch.pop(tid, None)
                if batch:
                    operation.discarded += len(batch)
                    discarded += len(batch)
            self._wake_all(operation)
            for queue in operation.queues:
                if queue.blocked_producers:
                    self._wake_blocked(queue, at)
        return discarded

    @property
    def idle(self) -> bool:
        """True when no runnable event is pending."""
        return not self._heap

    # -- scheduling internals ---------------------------------------------------

    def _push(self, thread: WorkerThread) -> None:
        heapq.heappush(self._heap, (thread.clock, self._seq, thread))
        self._seq += 1

    def _shift_active(self, delta: int, bus, t: float) -> None:
        """Move the runnable-thread count by *delta* at virtual time *t*.

        The count's only writer: the factor every charge multiplies by
        is recomputed where the count moves and nowhere else, and an
        observed run (*bus* set) samples ``active_threads`` here.
        """
        self._active = active = self._active + delta
        self._dilation = self.machine.dilation(active)
        if bus is not None:
            bus.sample_active(t, active)

    def _wake_one(self, operation: OperationRuntime) -> None:
        """Signal one waiting consumer thread (condition-variable style)."""
        thread = operation.waiting_threads.popleft()
        thread.state = RUNNABLE
        self._push(thread)
        # Sampled at the woken thread's (parked) clock — it will jump
        # forward when the thread next steps.
        self._shift_active(1, operation.bus, thread.clock)

    def _wake_all(self, operation: OperationRuntime) -> None:
        """Broadcast: input closed, every parked thread must re-check."""
        while operation.waiting_threads:
            self._wake_one(operation)

    def _wake_blocked(self, queue: ActivationQueue, at_time: float) -> None:
        """Un-block producers once *queue* dropped below capacity."""
        for producer in queue.blocked_producers:
            producer.state = RUNNABLE
            producer.wait_until(at_time)
            self._push(producer)
            bus = producer.operation.bus
            if bus is not None:
                bus.emit(UNBLOCK, at_time, producer.operation.name,
                         producer.thread_id, queue=queue.operation_name,
                         instance=queue.instance)
            self._shift_active(1, bus, at_time)
        queue.blocked_producers.clear()

    # -- one thread step ---------------------------------------------------------

    def _scan_select(self, thread: WorkerThread, now: float
                     ) -> tuple[list[ActivationQueue], int,
                                float | None, bool]:
        """Legacy candidate selection: linear scan over every queue.

        Scans main queues first, falling back to secondary queues; the
        earliest future ready time is tracked during the same scan so
        an idle thread knows when to re-check.  Kept as the reference
        implementation the ready index must match exactly (see the
        golden-trace tests); O(d) per step, so only used by operations
        below ``READY_INDEX_MIN_INSTANCES`` (they carry no index).
        """
        operation = thread.operation
        ready: list[ActivationQueue] = []
        polls = 0
        future: float | None = None
        for queue in thread.main_queues:
            if queue.has_ready(now):
                ready.append(queue)
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
                    ready.append(queue)
                else:
                    polls += 1
                    t = queue.next_ready_time()
                    if t is not None and (future is None or t < future):
                        future = t
            used_secondary = True
        return ready, polls, future, used_secondary

    #: The indexed ready scan as a method of the simulator, so that a
    #: profiled run can time it like ``_scan_select``; the
    #: unprofiled path calls ``ReadyIndex.select`` with no frame in
    #: between.
    _index_select = staticmethod(ReadyIndex.select)

    def _charge_factor(self, thread: WorkerThread) -> float:
        """Dilation times any injected slowdown at the thread's clock."""
        factor = self._dilation
        if self._perturbs_cpu:
            factor *= self._injector.speed_factor(
                thread.operation.name, thread.thread_id, thread.clock)
        return factor

    def _stalled(self, thread: WorkerThread) -> bool:
        """Park the thread to the end of a stall window covering it
        (asked only when the plan perturbs the CPU)."""
        operation = thread.operation
        until = self._injector.stall_until(
            operation.name, thread.thread_id, thread.clock)
        if until is None:
            return False
        if operation.bus is not None:
            operation.bus.emit(FAULT_STALL, thread.clock, operation.name,
                               thread.thread_id, until=until)
        thread.stall(until)
        self._push(thread)
        return True

    def _step(self, thread: WorkerThread) -> None:
        operation = thread.operation
        costs = self.machine.costs
        if self._perturbs_cpu:
            if self._stalled(thread):
                return
            dilation = self._charge_factor(thread)
        else:
            dilation = self._dilation
        now = thread.clock
        index = operation.ready_index
        if index is None:
            ready, polls, future, used_secondary = self._scan_select(
                thread, now)
        else:
            # A quiet operation's scan is arithmetic: every queue polled
            # empty, wake at the index's floor — the select not made.
            future = index.quiet(thread, now)
            if future is not None:
                ready, polls, used_secondary = (), len(operation.queues), True
            else:
                ready, polls, future, used_secondary = self._index_select(
                    index, thread, now, operation.allow_secondary)

        if polls:
            operation.polls += polls
            scan = polls * costs.poll_empty * dilation
            if future is not None and not ready:
                # The fruitless poll, the commonest event there is:
                # charge the empty scan, sleep to the floor, requeue.
                thread.advance_then_wait(scan, future)
                heapq.heappush(self._heap, (thread.clock, self._seq, thread))
                self._seq += 1
                return
            # WorkerThread.advance(scan, busy=True), written out, as
            # are the two charges below: the same additions in order.
            thread.clock += scan
            thread.busy_time += scan

        if not ready:
            # Nothing to wait for: a future comes from a polled queue,
            # so the branch above took every miss that has one.
            if not operation.input_closed:
                thread.state = WAITING
                operation.waiting_threads.append(thread)
                self._shift_active(-1, operation.bus, thread.clock)
            else:
                self._finish_thread(thread)
            return

        queue = operation.strategy.choose(self.rng, ready)
        batch = queue.dequeue_ready(thread.clock, operation.cache_size)
        operation.pending_activations -= len(batch)
        operation.dequeue_batches += 1
        access_cost = costs.dequeue_batch
        secondary = used_secondary or queue.instance not in thread.main_queue_set
        if secondary:
            access_cost += costs.secondary_access
            operation.secondary_accesses += 1
        if operation.bus is not None:
            # EventBus.emit, written out: one record per dequeue batch.
            operation.bus.events.append(Event(
                DEQUEUE, thread.clock, operation.name, thread.thread_id,
                {"instance": queue.instance, "count": len(batch),
                 "secondary": secondary}))
        access_cost *= dilation
        thread.clock += access_cost
        thread.busy_time += access_cost
        if queue.blocked_producers and not queue.over_capacity:
            self._wake_blocked(queue, thread.clock)

        if self._sliced:
            # Start the first activation; the rest of the batch (and
            # the back-pressure check) continue in _advance_slice.
            self._pending_batch[thread.thread_id] = list(batch)
            self._begin_activation(thread)
            self._push(thread)
            return

        # Consumer instances this batch enqueued into, for the
        # back-pressure check; a terminal operation fills none.
        filled = set() if operation.outputs[0].consumer is not None else None
        if operation.may_fail:
            for i, activation in enumerate(batch):
                failed = self._attempt(thread, activation,
                                       len(batch) - i - 1)
                if failed is None:
                    self._charge_whole(thread, activation, filled)
                elif failed.aborts:
                    return
        else:
            for activation in batch:
                self._charge_whole(thread, activation, filled)
        if filled:
            self._after_batch(thread, filled)
        else:
            # No consumer queue filled, so no back-pressure to check.
            heapq.heappush(self._heap, (thread.clock, self._seq, thread))
            self._seq += 1

    def _after_batch(self, thread: WorkerThread, filled: set[int]) -> None:
        """Back-pressure check once a batch is fully processed: *filled*
        names the instances of the own edge's consumer it enqueued into."""
        consumer = thread.operation.outputs[0].consumer
        for instance in filled:
            target = consumer.queues[instance]
            if target.over_capacity:
                thread.state = BLOCKED
                target.blocked_producers.append(thread)
                bus = thread.operation.bus
                if bus is not None:
                    bus.emit(BLOCK, thread.clock, thread.operation.name,
                             thread.thread_id, target=consumer.name,
                             instance=instance)
                self._shift_active(-1, bus, thread.clock)
                return
        self._push(thread)

    # -- whole-activation path (no over-subscription) ------------------------------

    def _charge_whole(self, thread: WorkerThread, activation: Activation,
                      filled: set[int] | None) -> None:
        # _run_dbfunc, written out: this runs once per activation.
        operation = thread.operation
        ctx = self._uniform_ctx or ExecContext(self.machine, thread.thread_id)
        cost, emitted = operation.dbfunc.process(activation.instance,
                                                 activation, ctx)
        operation.activation_costs.append(cost)
        operation.activation_outputs.append(len(emitted))
        if ctx.penalty:
            self._add_penalty(thread, ctx.penalty)
        start = thread.clock
        if emitted:
            # Only a lone own edge ends in result_rows (a folded
            # query's edge collects into its own list): such an
            # operation collects in place below and enqueues nothing.
            lone = operation.outputs[-1].collector is operation.result_rows
            if not lone:
                cost += self._enqueue_charge(operation.outputs, len(emitted))
        if self._injector.adjusts_charges:
            # Disk latency spikes and slowdown windows fold into the
            # single whole-activation charge (dilation is identically
            # 1 on this path, so the factor applies here, not in
            # _charge_factor).
            cost = self._injector.charge(operation, thread.thread_id,
                                         activation, start, cost)
        thread.clock += cost
        thread.busy_time += cost
        tracer = operation.tracer
        if tracer is not None:
            # ExecutionTrace.record, written out: one span per activation.
            tracer.events.append(TraceEvent(
                thread.thread_id, operation.name,
                "activation", start, thread.clock))
        if emitted:
            if lone:
                operation.result_rows.extend(emitted)
            else:
                self._deliver(thread, emitted, start, filled)

    # -- sliced path (over-subscription possible) ------------------------------------

    def _begin_activation(self, thread: WorkerThread) -> None:
        batch = self._pending_batch.get(thread.thread_id)
        if not batch:
            return
        if thread.operation.may_fail:
            while batch:
                activation = batch.pop(0)
                failed = self._attempt(thread, activation, len(batch))
                if failed is None:
                    self._start_work(thread, activation)
                    return
                if failed.aborts:
                    return
            return
        self._start_work(thread, batch.pop(0))

    def _start_work(self, thread: WorkerThread,
                    activation: Activation) -> None:
        total, emitted = self._run_dbfunc(thread, activation)
        if emitted:
            total += self._enqueue_charge(thread.operation.outputs,
                                          len(emitted))
        if self._injector.has_disk:
            # Disk latency adds to the total; slowdown windows apply
            # per slice (via _charge_factor), re-sampled as windows
            # open and close.
            total += self._injector.disk_extra(thread.operation, activation,
                                               thread.clock)
        self._in_progress[thread.thread_id] = _WorkInProgress(
            emitted, thread.clock, total)

    def _advance_slice(self, thread: WorkerThread) -> None:
        if self._perturbs_cpu and self._stalled(thread):
            return
        work = self._in_progress[thread.thread_id]
        slice_cost = min(work.remaining, work.slice)
        thread.advance(slice_cost * self._charge_factor(thread), busy=True)
        work.remaining -= slice_cost
        if work.remaining > 1e-15:
            self._push(thread)
            return
        del self._in_progress[thread.thread_id]
        tracer = thread.operation.tracer
        if tracer is not None:
            tracer.events.append(TraceEvent(
                thread.thread_id, thread.operation.name,
                "activation", work.started_at, thread.clock))
        filled: set[int] = set()
        if work.emitted:
            self._deliver(thread, work.emitted, work.started_at, filled)
        if self._pending_batch.get(thread.thread_id):
            # Back-pressure is only checked between batches, matching
            # the whole-activation path.
            self._begin_activation(thread)
            self._push(thread)
            return
        self._pending_batch.pop(thread.thread_id, None)
        self._after_batch(thread, filled)

    # -- fault handling -------------------------------------------------------------

    def _attempt(self, thread: WorkerThread, activation: Activation,
                 rest: int):
        """One processing attempt of *activation* under the fault plan.

        Returns ``None`` when it may run; otherwise the failure is
        charged (:meth:`_fail_attempt`) and its decision returned.  A
        decision that ``aborts`` has also discarded the *rest* of the
        thread's batch and aborted the owning query.
        """
        decision = self._injector.attempt(thread.operation, activation,
                                          thread.clock)
        if decision is None:
            return None
        self._fail_attempt(thread, activation, decision)
        if decision.aborts:
            thread.operation.discarded += rest
            self._pending_batch.pop(thread.thread_id, None)
            self._abort_query(thread, activation, decision)
        return decision

    def _fail_attempt(self, thread: WorkerThread, activation: Activation,
                      decision) -> None:
        """Charge one failed processing attempt and schedule the retry.

        The DBFunc did *not* run (stateful operators must not observe
        failed attempts); the wasted work is the static per-instance
        cost estimate (or the spec's override).  A retried activation
        re-enters its own instance queue at ``now + backoff``, where
        the normal main/secondary consumption discipline — including
        stealing — redistributes it.
        """
        operation = thread.operation
        operation.faults_injected += 1
        start = thread.clock
        if decision.wasted > 0.0:
            thread.advance(decision.wasted * self._charge_factor(thread),
                           busy=True)
            if operation.tracer is not None:
                operation.tracer.record(thread.thread_id, operation.name,
                                        "fault", start, thread.clock)
        if operation.bus is not None:
            operation.bus.emit(FAULT_ACTIVATION, thread.clock, operation.name,
                               thread.thread_id, instance=activation.instance,
                               attempt=decision.attempt,
                               wasted=decision.wasted,
                               backoff=decision.backoff,
                               aborts=decision.aborts)
        if decision.aborts:
            operation.fault_aborts += 1
            return
        operation.fault_retries += 1
        operation.queues[activation.instance].enqueue(
            thread.clock + decision.backoff, activation)
        operation.pending_activations += 1

    def _abort_query(self, thread: WorkerThread, activation: Activation,
                     decision) -> None:
        """An activation exhausted its retries: abort the owning query.

        :attr:`on_query_abort` drains the query's wave and the
        simulation continues for the survivors; this thread then
        terminates through the normal finish path.
        """
        operation = thread.operation
        error = ExecutionFaultError(
            f"activation of operation {operation.name!r} instance "
            f"{activation.instance} failed {decision.attempt} times "
            f"(retries exhausted) at t={thread.clock:.6f}")
        self.on_query_abort(operation, error, thread.clock)
        self._finish_thread(thread)

    # -- shared activation machinery ----------------------------------------------

    def _finalize_operation(self, thread: WorkerThread) -> None:
        """End-of-input emission, executed once by the last live thread."""
        operation = thread.operation
        operation.finalized = True
        filled: set[int] = set()
        for instance in range(operation.instances):
            ctx = self._uniform_ctx or ExecContext(self.machine,
                                                   thread.thread_id)
            result = operation.dbfunc.finalize(instance, ctx)
            if result is None:
                continue
            operation.memory_penalty += ctx.penalty
            operation.finalize_cost += result.cost
            started_at = thread.clock
            thread.advance(result.cost * self._charge_factor(thread),
                           busy=True)
            if operation.tracer is not None:
                operation.tracer.record(thread.thread_id, operation.name,
                                        "finalize", started_at, thread.clock)
            if operation.bus is not None:
                operation.bus.emit(OP_FINALIZE, thread.clock, operation.name,
                                   thread.thread_id, instance=instance,
                                   cost=result.cost)
                if ctx.penalty:
                    operation.bus.add_memory_penalty(
                        thread.clock, operation.name, thread.thread_id,
                        ctx.penalty)
            if result.emitted:
                self._deliver(thread, result.emitted, started_at, filled)

    def _run_dbfunc(self, thread: WorkerThread,
                    activation: Activation) -> ProcessResult:
        """Run the operator body on *activation* and record its cost
        and output (the sliced path; :meth:`_charge_whole` writes this
        out)."""
        operation = thread.operation
        ctx = self._uniform_ctx or ExecContext(self.machine, thread.thread_id)
        result = operation.dbfunc.process(activation.instance, activation, ctx)
        operation.activation_costs.append(result.cost)
        operation.activation_outputs.append(len(result.emitted))
        if ctx.penalty:
            self._add_penalty(thread, ctx.penalty)
        return result

    def _add_penalty(self, thread: WorkerThread, penalty: float) -> None:
        """Account an activation's Allcache access penalty."""
        operation = thread.operation
        operation.memory_penalty += penalty
        if operation.bus is not None:
            operation.bus.add_memory_penalty(
                thread.clock, operation.name, thread.thread_id, penalty)

    def _enqueue_charge(self, outputs: list, count: int) -> float:
        """One enqueue charge per emitted row and active edge into a
        consumer, added to the processing cost of an activation that
        emitted *count* rows."""
        targets = 0
        for edge in outputs:
            if edge.active and edge.consumer is not None:
                targets += 1
        return count * self.machine.costs.enqueue * targets

    def _deliver(self, thread: WorkerThread, emitted: list,
                 started_at: float, filled: set[int] | None) -> None:
        """Route (or collect) an activation's non-empty output down
        every active edge.

        Tuples become visible progressively across the activation's
        realized duration, which is what lets a consumer overlap with
        its producer (pipelined execution).  Only the own edge (the
        first) participates in back-pressure (``filled``): a slow
        subscriber must not stall the shared producer or its
        co-subscribers, so the edges of folded queries are exempt by
        design.  Enqueue charges are handled in :meth:`_enqueue_charge`
        (one per active edge into a consumer).
        """
        duration = thread.clock - started_at
        for edge in thread.operation.outputs:
            if edge.active:
                consumer = edge.consumer
                if consumer is None:
                    edge.collector.extend(emitted)
                else:
                    self._route_rows(thread, consumer, edge.router, emitted,
                                     started_at, duration, filled)
            filled = None

    def _route_rows(self, thread: WorkerThread, consumer: OperationRuntime,
                    router, emitted, started_at: float, duration: float,
                    filled: set[int] | None) -> None:
        """Enqueue *emitted* into *consumer* down one edge
        (``filled=None`` skips back-pressure registration)."""
        operation = thread.operation
        count = len(emitted)
        queues = consumer.queues
        # Fast path: a single consumer instance makes routing trivial
        # (the hash router would return 0 for every row).
        instances = [0] * count if len(queues) == 1 else router(emitted)
        for i, row in enumerate(emitted):
            instance = instances[i]
            ready_time = started_at + duration * (i + 1) / count
            # Activation(DATA, instance, row), built with no frame.
            queues[instance].enqueue(
                ready_time, new_record(Activation, (DATA, instance, row, None)))
        if filled is not None:
            filled.update(instances)
        consumer.pending_activations += count
        operation.enqueues += count
        if operation.bus is not None:
            operation.bus.emit(ENQUEUE, thread.clock, operation.name,
                               thread.thread_id, consumer=consumer.name,
                               count=count)
        # Batched wakeups: nothing else touches the event heap during
        # the enqueue loop, so waking min(count, waiting) threads
        # afterwards yields the same pop order and tie-break sequence
        # as waking one after each enqueue.
        waiting = len(consumer.waiting_threads)
        if waiting:
            for _ in range(waiting if waiting < count else count):
                self._wake_one(consumer)

    def _finish_thread(self, thread: WorkerThread) -> None:
        operation = thread.operation
        if operation.live_threads == 1 and not operation.finalized:
            # Last thread standing: run the operator's end-of-input
            # behaviour (aggregate emission) before terminating.
            self._finalize_operation(thread)
        thread.state = FINISHED
        thread.finished_at = thread.clock
        self._live -= 1
        operation.live_threads -= 1
        if operation.bus is not None:
            operation.bus.emit(THREAD_FINISH, thread.clock, operation.name,
                               thread.thread_id)
        self._shift_active(-1, operation.bus, thread.clock)
        if operation.live_threads > 0:
            return
        operation.finished_at = max(
            t.finished_at for t in operation.threads
            if t.finished_at is not None)
        if operation.bus is not None:
            operation.bus.emit(OP_FINISH, operation.finished_at,
                               operation.name,
                               threads=len(operation.threads),
                               activations=len(operation.activation_costs))
        for edge in operation.outputs:
            consumer = edge.consumer
            if edge.active and consumer is not None:
                consumer.producers_remaining -= 1
                if consumer.producers_remaining <= 0:
                    consumer.close_input()
                    self._wake_all(consumer)
        self.on_operation_complete(operation, thread)
