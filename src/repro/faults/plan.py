"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: typed descriptions of *what* should
go wrong and *when*, in virtual time.  It carries its own seed, so the
same plan replayed against the same workload produces the same faults
activation-for-activation — the chaos harness and the determinism
tests rely on this.  Applying a plan is the
:class:`~repro.faults.injector.FaultInjector`'s job.

Fault vocabulary (all windows are half-open ``[t0, t1)`` in virtual
seconds):

* :class:`SlowdownWindow` — targeted threads process work ``factor``
  times slower inside the window (a processor busy with outside work).
* :class:`StallWindow` — targeted threads freeze entirely inside the
  window (a page fault storm, a preempted processor).
* :class:`DiskFault` — triggered (fragment-scan) activations of one
  operator pay extra I/O latency and/or fail transiently at a seeded
  rate.
* :class:`MemoryPressure` — at instant ``at`` the machine's Allcache
  budget shrinks to ``factor`` of its current size; eviction pressure
  follows naturally.
* :class:`ActivationFaults` — any activation of the targeted operator
  fails transiently at a seeded rate and is retried with capped
  exponential virtual-time backoff; after ``max_retries`` failed
  attempts the query aborts with
  :class:`~repro.errors.ExecutionFaultError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.errors import FaultError


def _check_window(t0: float, t1: float) -> None:
    if t0 < 0 or t1 <= t0:
        raise FaultError(f"fault window [{t0}, {t1}) is empty or negative")


def _check_rate(rate: float, label: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"{label} must be within [0, 1], got {rate}")


@dataclass(frozen=True)
class SlowdownWindow:
    """Targeted threads run ``factor`` times slower during ``[t0, t1)``.

    ``operation``/``thread_ids`` select the victims; ``None`` matches
    everything, so ``SlowdownWindow(0.0, 1.0, 4.0)`` slows the whole
    machine.  Overlapping windows multiply.
    """

    t0: float
    t1: float
    factor: float
    operation: str | None = None
    thread_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)
        if self.factor < 1.0:
            raise FaultError(
                f"slowdown factor must be >= 1 (got {self.factor}); "
                "factors below 1 would model a speed-up, not a fault")


@dataclass(frozen=True)
class StallWindow:
    """Targeted threads freeze entirely during ``[t0, t1)``."""

    t0: float
    t1: float
    operation: str | None = None
    thread_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)


@dataclass(frozen=True)
class DiskFault:
    """I/O trouble on one operator's fragment scans.

    Applies to *triggered* (control/chunk) activations only — the ones
    that model reading a fragment off storage.  ``extra_latency`` is
    added to every such activation's cost inside the window;
    ``error_rate`` makes the scan fail transiently (retried like an
    :class:`ActivationFaults` failure).
    """

    operation: str
    extra_latency: float = 0.0
    error_rate: float = 0.0
    instances: tuple[int, ...] | None = None
    t0: float = 0.0
    t1: float = float("inf")
    max_retries: int = 5
    backoff: float = 0.01
    backoff_cap: float = 0.16

    def __post_init__(self) -> None:
        if self.t0 < 0 or self.t1 <= self.t0:
            raise FaultError(
                f"disk fault window [{self.t0}, {self.t1}) is empty")
        if self.extra_latency < 0:
            raise FaultError("extra_latency must be >= 0")
        _check_rate(self.error_rate, "error_rate")
        if self.max_retries < 0 or self.backoff <= 0 or self.backoff_cap <= 0:
            raise FaultError("retry parameters must be positive")


@dataclass(frozen=True)
class MemoryPressure:
    """At instant ``at`` the Allcache budget shrinks to ``factor`` of
    its current size (another workload grabbed the memory)."""

    at: float
    factor: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError("memory pressure instant must be >= 0")
        if not 0.0 < self.factor < 1.0:
            raise FaultError(
                f"memory pressure factor must be in (0, 1), got {self.factor}")


@dataclass(frozen=True)
class ActivationFaults:
    """Transient activation failures for one operator (or all of them).

    Each processing attempt of a matching activation fails with
    probability ``rate`` (drawn from the plan's seeded RNG).  A failed
    attempt charges the wasted work, then re-enqueues the *same*
    activation at ``now + backoff`` through the normal queue, so the
    Random/LPT consumption strategies redistribute the retry; the
    backoff doubles per attempt up to ``backoff_cap``.  The attempt
    after ``max_retries`` failures aborts the query.
    """

    operation: str | None = None
    rate: float = 0.0
    max_retries: int = 3
    backoff: float = 0.01
    backoff_cap: float = 0.16
    wasted_cost: float | None = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "activation fault rate")
        if self.max_retries < 0 or self.backoff <= 0 or self.backoff_cap <= 0:
            raise FaultError("retry parameters must be positive")
        if self.wasted_cost is not None and self.wasted_cost < 0:
            raise FaultError("wasted_cost must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded bundle of faults to inject into one run.

    An empty plan (``FaultPlan()``) injects nothing; a run without a
    plan runs under the empty plan's injector
    (:data:`~repro.faults.injector.NO_FAULTS`), and a run under any
    other empty plan must be bit-identical to it — the fault-free-parity
    invariant ``tests/faults/test_injection.py`` asserts.
    """

    seed: int = 0
    slowdowns: tuple[SlowdownWindow, ...] = ()
    stalls: tuple[StallWindow, ...] = ()
    disk: tuple[DiskFault, ...] = ()
    memory: tuple[MemoryPressure, ...] = ()
    activations: tuple[ActivationFaults, ...] = ()
    io_error_paths: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("slowdowns", "stalls", "disk", "memory",
                     "activations", "io_error_paths"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise FaultError(f"FaultPlan.{name} must be a tuple")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.slowdowns or self.stalls or self.disk
                    or self.memory or self.activations
                    or self.io_error_paths)

    def describe(self) -> str:
        """One line per fault, for the chaos CLI."""
        lines = [f"fault plan (seed={self.seed})"]
        for group in fields(self):
            if group.name in ("seed",):
                continue
            for item in getattr(self, group.name):
                lines.append(f"  {item!r}")
        if self.is_empty:
            lines.append("  (empty)")
        return "\n".join(lines)

    @classmethod
    def generate(cls, seed: int, operations: tuple[str, ...],
                 horizon: float = 1.0) -> "FaultPlan":
        """A random-but-reproducible plan for chaos sweeps.

        Draws every fault from ``random.Random(seed)``: one or two
        slowdown windows, possibly a stall, low-rate transient
        activation failures with generous retry budgets (the sweep
        asserts invariants of *surviving* runs; aborts are exercised
        by dedicated tests), and possibly memory pressure.
        ``operations`` are the operator names eligible as targets;
        ``horizon`` scales the windows to the expected run length.
        """
        if not operations:
            raise FaultError("generate() needs at least one operation name")
        rng = random.Random(seed)
        slowdowns = []
        for _ in range(rng.randint(1, 2)):
            t0 = rng.uniform(0.0, 0.5 * horizon)
            slowdowns.append(SlowdownWindow(
                t0=t0,
                t1=t0 + rng.uniform(0.1, 0.6) * horizon,
                factor=rng.uniform(1.5, 6.0),
                operation=rng.choice(list(operations) + [None]),
            ))
        stalls = []
        if rng.random() < 0.5:
            t0 = rng.uniform(0.0, 0.4 * horizon)
            stalls.append(StallWindow(
                t0=t0, t1=t0 + rng.uniform(0.05, 0.2) * horizon,
                operation=rng.choice(operations)))
        activations = [ActivationFaults(
            operation=rng.choice(operations),
            rate=rng.uniform(0.01, 0.10),
            max_retries=25,
            backoff=rng.uniform(0.002, 0.01),
            backoff_cap=0.08,
        )]
        memory = []
        if rng.random() < 0.5:
            memory.append(MemoryPressure(
                at=rng.uniform(0.1, 0.6) * horizon,
                factor=rng.uniform(0.3, 0.8)))
        return cls(
            seed=seed,
            slowdowns=tuple(slowdowns),
            stalls=tuple(stalls),
            memory=tuple(memory),
            activations=tuple(activations),
        )
