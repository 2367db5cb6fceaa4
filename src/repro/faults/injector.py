"""Runtime application of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` is the only mutable piece of the faults
layer: it owns the plan's seeded RNG (separate from the simulator's
strategy RNG, so injecting faults never perturbs Random-strategy
draws), the per-activation retry ledger, and the queue of pending
memory-pressure events.  Every simulator holds one, fixed at
construction: a run without a plan gets :data:`NO_FAULTS`, the shared
injector of the empty plan, so "no plan" and "empty plan" are one path.
The simulator consults it through a handful of hooks, each behind a
flag the injector precomputes from its plan (``perturbs_cpu``,
``can_fail``, ``next_time_at``), which the empty plan leaves off:
nothing in it is ever mutated.

Virtual-time semantics of each hook:

* ``stall_until`` — a thread about to run inside a stall window of its
  operator (or of every operator) is parked (idle) until the window
  ends.
* ``speed_factor`` — multiplies into the dilation factor of every
  work/poll/access charge whose *start* instant falls inside a
  matching slowdown window (sliced execution therefore re-samples the
  factor per slice, whole execution once per activation).
* ``attempt`` — decides whether a dequeued activation's processing
  attempt fails *before* its DBFunc runs (stateful operators must not
  observe failed attempts); returns the retry/abort decision.
* ``announce_slowdown`` — the simulator's one work-factor helper calls
  it for every slowed work charge (a whole activation, or one slice of
  it); the first slowdown each thread of an operator meets lands on
  the operation's bus, the rest are dropped.
* ``apply_time`` — fires memory-pressure events whose instant has
  passed, shrinking the machine's Allcache budget.

When a metrics registry is attached, every decision also lands on the
``faults_*`` counter families — stamped with the virtual instant, so
the :class:`~repro.obs.monitor.RetryStormMonitor` can read the running
``fault_retries_total`` off the registry mid-run and date the exact
control point a retry storm started.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.faults.plan import FaultPlan


@dataclass(frozen=True, slots=True)
class FailureDecision:
    """One failed processing attempt: what it costs and what happens next.

    ``aborts`` is True when the attempt exhausted the controlling
    spec's ``max_retries``; otherwise the activation is re-enqueued at
    ``now + backoff``.
    """

    wasted: float
    backoff: float
    attempt: int
    aborts: bool
    operation: str


class FaultInjector:
    """Applies one :class:`FaultPlan` to one run.

    Single-use: the retry ledger and memory-event queue are consumed
    by the run.  ``bus`` (optional) receives machine-level
    ``fault.memory`` events; per-operation fault events go to each
    operation's own bus.
    """

    def __init__(self, plan: FaultPlan, bus=None, metrics=None) -> None:
        self.plan = plan
        self.bus = bus
        self.metrics = metrics
        self.rng = random.Random(plan.seed)
        self.perturbs_cpu = bool(plan.slowdowns or plan.stalls)
        # Operators that can fail: explicit targets plus the wildcard.
        self._fail_any = any(
            spec.operation is None and spec.rate > 0
            for spec in plan.activations)
        self._fail_ops = {
            spec.operation for spec in plan.activations
            if spec.operation is not None and spec.rate > 0}
        # Retry ledger: the activation's address -> (attempts,
        # activation).  Activations hash by value, so equal ones must
        # not share a count; the entry pins the activation so its
        # address stays unique while tracked, and goes on success or
        # abort.
        self._attempts: dict[int, tuple[int, object]] = {}
        self._pending_memory = sorted(plan.memory, key=lambda m: m.at)
        # Precomputed hot-path gates: the simulator consults these
        # plain attributes before paying a method call, so an empty
        # plan costs one attribute check per site and nothing more.
        self.can_fail = self._fail_any or bool(self._fail_ops)
        #: Instant of the next pending time-triggered fault, ``inf``
        #: when none is pending (plain attribute, maintained by
        #: :meth:`apply_time`).
        self.next_time_at = (self._pending_memory[0].at
                             if self._pending_memory else math.inf)
        # One slowdown announcement per (thread, operation) pair so
        # continuous faults don't flood the bus.
        self._announced: set[tuple[int, str]] = set()

    # ------------------------------------------------------------------
    # CPU perturbation

    def stall_until(self, op_name: str, now: float) -> float | None:
        """End of the latest stall window covering *now*, if any."""
        until = None
        for window in self.plan.stalls:
            if (window.t0 <= now < window.t1
                    and window.operation in (None, op_name)):
                if until is None or window.t1 > until:
                    until = window.t1
        return until

    def speed_factor(self, op_name: str, thread_id: int,
                     now: float) -> float:
        """Product of all matching slowdown factors at *now*."""
        factor = 1.0
        for window in self.plan.slowdowns:
            if (window.t0 <= now < window.t1
                    and window.operation in (None, op_name)
                    and (window.thread_ids is None
                         or thread_id in window.thread_ids)):
                factor *= window.factor
        return factor

    # ------------------------------------------------------------------
    # Transient activation failures

    def may_fail(self, op_name: str) -> bool:
        """Fast gate: could any activation of this operator fail?"""
        return self._fail_any or op_name in self._fail_ops

    def attempt(self, operation, activation, now: float):
        """Decide one processing attempt.

        Returns ``None`` when the attempt succeeds (and clears any
        retry history), or a :class:`FailureDecision` when it fails.
        The RNG is only consulted for activations an applicable spec
        targets, so un-targeted operators never advance it.
        """
        spec = self._draw_failure(operation)
        key = id(activation)
        if spec is None:
            # A clean attempt after earlier failures: retry succeeded.
            self._attempts.pop(key, None)
            return None
        attempts = self._attempts.get(key, (0, None))[0] + 1
        if self.metrics is not None:
            from repro.obs.metrics import FAULTS_INJECTED
            self.metrics.counter(
                FAULTS_INJECTED, operation=operation.name).inc()
        wasted = operation.queues[activation.instance].cost_estimate
        if attempts > spec.max_retries:
            self._attempts.pop(key, None)
            if self.metrics is not None:
                from repro.obs.metrics import FAULT_ABORTS
                self.metrics.counter(
                    FAULT_ABORTS, operation=operation.name).inc()
            return FailureDecision(
                wasted=wasted, backoff=0.0, attempt=attempts,
                aborts=True, operation=operation.name)
        self._attempts[key] = (attempts, activation)
        backoff = min(spec.backoff * (2.0 ** (attempts - 1)),
                      spec.backoff_cap)
        if self.metrics is not None:
            from repro.obs.metrics import FAULT_BACKOFF, FAULT_RETRIES
            self.metrics.counter(
                FAULT_RETRIES, operation=operation.name).inc()
            self.metrics.counter(FAULT_BACKOFF).inc(backoff)
        return FailureDecision(
            wasted=wasted, backoff=backoff, attempt=attempts,
            aborts=False, operation=operation.name)

    def _draw_failure(self, operation):
        """The first applicable spec whose seeded draw fires, if any."""
        name = operation.name
        for spec in self.plan.activations:
            if spec.rate <= 0:
                continue
            if spec.operation is not None and spec.operation != name:
                continue
            if self.rng.random() < spec.rate:
                return spec
        return None

    # ------------------------------------------------------------------
    # Time-triggered faults (memory pressure)

    def apply_time(self, now: float, machine) -> None:
        """Fire every pending memory-pressure event with ``at <= now``."""
        while self._pending_memory and self._pending_memory[0].at <= now:
            event = self._pending_memory.pop(0)
            self.next_time_at = (self._pending_memory[0].at
                                 if self._pending_memory else math.inf)
            released = machine.shrink_cache_budget(event.factor)
            if self.metrics is not None:
                from repro.obs.metrics import FAULT_MEMORY_EVENTS
                self.metrics.counter(FAULT_MEMORY_EVENTS).inc()
            if self.bus is not None:
                from repro.obs.bus import FAULT_MEMORY
                self.bus.emit(FAULT_MEMORY, now, factor=event.factor,
                              scheduled_at=event.at,
                              capacity_bytes=released)

    # ------------------------------------------------------------------
    # Bus announcements

    def announce_slowdown(self, operation, thread_id: int, now: float,
                          factor: float) -> None:
        """Emit ``fault.slowdown`` for the first slowed work charge of
        *thread_id* in *operation* (observed runs only)."""
        if operation.bus is None:
            return
        key = (thread_id, operation.name)
        if key in self._announced:
            return
        self._announced.add(key)
        from repro.obs.bus import FAULT_SLOWDOWN
        operation.bus.emit(FAULT_SLOWDOWN, now, operation=operation.name,
                           thread_id=thread_id, factor=factor)


#: The injector of every run without a fault plan: the empty plan's,
#: shared by all of them.  Its flags are all off, so no hook ever
#: mutates it (its ledger, announcements and counters stay empty) and
#: a run pays no construction for it.
NO_FAULTS = FaultInjector(FaultPlan())

