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
``can_fail``, ``adjusts_charges``, ``has_disk``, ``next_time_at``),
which the empty plan leaves off: nothing in it is ever mutated.

Virtual-time semantics of each hook:

* ``stall_until`` — a thread about to run inside a stall window is
  parked (idle) until the window ends.
* ``speed_factor`` — multiplies into the dilation factor of every
  work/poll/access charge whose *start* instant falls inside a
  matching slowdown window (sliced execution therefore re-samples the
  factor per slice, whole execution once per activation).
* ``attempt`` — decides whether a dequeued activation's processing
  attempt fails *before* its DBFunc runs (stateful operators must not
  observe failed attempts); returns the retry/abort decision.
* ``charge`` — folds disk latency spikes and the slowdown factor into
  one activation's work charge.
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
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import FaultError
from repro.faults.plan import ActivationFaults, DiskFault, FaultPlan
from repro.lera.activation import CONTROL


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


def _matches(window, op_name: str, thread_id: int | None) -> bool:
    if window.operation is not None and window.operation != op_name:
        return False
    if window.thread_ids is not None and thread_id not in window.thread_ids:
        return False
    return True


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
        self._fail_ops.update(
            spec.operation for spec in plan.disk if spec.error_rate > 0)
        self._disk_by_op: dict[str, list[DiskFault]] = {}
        for spec in plan.disk:
            self._disk_by_op.setdefault(spec.operation, []).append(spec)
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
        self.has_disk = bool(self._disk_by_op)
        self.adjusts_charges = self.has_disk or self.perturbs_cpu
        self.can_fail = self._fail_any or bool(self._fail_ops)
        #: Instant of the next pending time-triggered fault, ``inf``
        #: when none is pending (plain attribute, maintained by
        #: :meth:`apply_time`).
        self.next_time_at = (self._pending_memory[0].at
                             if self._pending_memory else math.inf)
        # One announcement event per (window/spec, operation) pair so
        # continuous faults don't flood the bus.
        self._announced: set[tuple[int, str]] = set()
        self.injected = 0
        self.retries = 0
        self.aborts = 0
        self.memory_events = 0

    # ------------------------------------------------------------------
    # CPU perturbation

    def stall_until(self, op_name: str, thread_id: int,
                    now: float) -> float | None:
        """End of the latest stall window covering *now*, if any."""
        until = None
        for window in self.plan.stalls:
            if (window.t0 <= now < window.t1
                    and _matches(window, op_name, thread_id)):
                if until is None or window.t1 > until:
                    until = window.t1
        return until

    def speed_factor(self, op_name: str, thread_id: int,
                     now: float) -> float:
        """Product of all matching slowdown factors at *now*."""
        factor = 1.0
        for window in self.plan.slowdowns:
            if (window.t0 <= now < window.t1
                    and _matches(window, op_name, thread_id)):
                factor *= window.factor
        return factor

    # ------------------------------------------------------------------
    # Per-activation charges (disk latency + slowdown)

    def disk_extra(self, operation, activation, now: float) -> float:
        """Extra I/O latency for one triggered activation, if any."""
        specs = self._disk_by_op.get(operation.name)
        if specs is None or activation.kind != CONTROL:
            return 0.0
        extra = 0.0
        for spec in specs:
            if spec.extra_latency <= 0 or not spec.t0 <= now < spec.t1:
                continue
            if (spec.instances is not None
                    and activation.instance not in spec.instances):
                continue
            extra += spec.extra_latency
            self._announce(spec, operation, now, spec.extra_latency)
        return extra

    def charge(self, operation, thread_id: int, activation,
               now: float, cost: float) -> float:
        """Adjust one whole-activation work charge for active faults."""
        if self._disk_by_op:
            cost += self.disk_extra(operation, activation, now)
        if self.perturbs_cpu:
            factor = self.speed_factor(operation.name, thread_id, now)
            if factor != 1.0:
                cost *= factor
                self._announce_slowdown(operation, thread_id, now, factor)
        return cost

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
        spec = self._draw_failure(operation, activation, now)
        key = id(activation)
        if spec is None:
            # A clean attempt after earlier failures: retry succeeded.
            self._attempts.pop(key, None)
            return None
        attempts = self._attempts.get(key, (0, None))[0] + 1
        self.injected += 1
        if self.metrics is not None:
            from repro.obs.metrics import FAULTS_INJECTED
            self.metrics.counter(
                FAULTS_INJECTED, operation=operation.name).inc(now)
        wasted = spec_wasted = getattr(spec, "wasted_cost", None)
        if spec_wasted is None:
            wasted = operation.queues[activation.instance].cost_estimate
        if attempts > spec.max_retries:
            self._attempts.pop(key, None)
            self.aborts += 1
            if self.metrics is not None:
                from repro.obs.metrics import FAULT_ABORTS
                self.metrics.counter(
                    FAULT_ABORTS, operation=operation.name).inc(now)
            return FailureDecision(
                wasted=wasted, backoff=0.0, attempt=attempts,
                aborts=True, operation=operation.name)
        self._attempts[key] = (attempts, activation)
        self.retries += 1
        backoff = min(spec.backoff * (2.0 ** (attempts - 1)),
                      spec.backoff_cap)
        if self.metrics is not None:
            from repro.obs.metrics import FAULT_BACKOFF, FAULT_RETRIES
            self.metrics.counter(
                FAULT_RETRIES, operation=operation.name).inc(now)
            self.metrics.counter(FAULT_BACKOFF).inc(now, backoff)
        return FailureDecision(
            wasted=wasted, backoff=backoff, attempt=attempts,
            aborts=False, operation=operation.name)

    def _draw_failure(self, operation, activation, now: float):
        """The first applicable spec whose seeded draw fires, if any."""
        name = operation.name
        for spec in self.plan.activations:
            if spec.rate <= 0:
                continue
            if spec.operation is not None and spec.operation != name:
                continue
            if self.rng.random() < spec.rate:
                return spec
        for spec in self._disk_by_op.get(name, ()):
            if spec.error_rate <= 0 or activation.kind != CONTROL:
                continue
            if not spec.t0 <= now < spec.t1:
                continue
            if (spec.instances is not None
                    and activation.instance not in spec.instances):
                continue
            if self.rng.random() < spec.error_rate:
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
            self.memory_events += 1
            if self.metrics is not None:
                from repro.obs.metrics import FAULT_MEMORY_EVENTS
                self.metrics.counter(FAULT_MEMORY_EVENTS).inc(now)
            if self.bus is not None:
                from repro.obs.bus import FAULT_MEMORY
                self.bus.emit(FAULT_MEMORY, now, factor=event.factor,
                              scheduled_at=event.at,
                              capacity_bytes=released)

    # ------------------------------------------------------------------
    # Bus announcements

    def _announce(self, spec, operation, now: float,
                  extra_latency: float) -> None:
        if operation.bus is None:
            return
        key = (id(spec), operation.name)
        if key in self._announced:
            return
        self._announced.add(key)
        from repro.obs.bus import FAULT_DISK
        operation.bus.emit(FAULT_DISK, now, operation=operation.name,
                           extra_latency=extra_latency)

    def _announce_slowdown(self, operation, thread_id: int, now: float,
                           factor: float) -> None:
        if operation.bus is None:
            return
        key = (-1 - thread_id, operation.name)
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


# ----------------------------------------------------------------------
# Real-file I/O faults (storage/io.py hook)


@contextmanager
def io_faults(plan: FaultPlan):
    """Install the plan's I/O error paths into :mod:`repro.storage.io`.

    While active, any CSV load/save whose path contains one of
    ``plan.io_error_paths`` as a substring raises
    :class:`~repro.errors.FaultError`.  Restores the previous hook on
    exit.
    """
    from repro.storage import io as storage_io

    patterns = plan.io_error_paths

    def hook(mode: str, path) -> None:
        text = str(path)
        for pattern in patterns:
            if pattern in text:
                raise FaultError(
                    f"injected I/O fault: {mode} {text!r} matches "
                    f"{pattern!r}")

    previous = storage_io.set_io_fault_hook(hook if patterns else None)
    try:
        yield
    finally:
        storage_io.set_io_fault_hook(previous)
