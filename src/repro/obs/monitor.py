"""Streaming monitor rules evaluated in virtual time.

The in-flight half of the observability stack: where spans and reports
are assembled *after* the run, monitors watch the run *as it happens*
— but "happens" means virtual time, so evaluation is pinned to the
workload engine's deterministic control points rather than a wall
clock:

* ``POINT_ADMISSION`` — a batch of queries was just admitted;
* ``POINT_REGRANT``  — thread budgets were re-granted after a
  completion;
* ``POINT_WAVE``     — one query's wave hit its barrier (per-thread
  finish stamps are fresh);
* ``POINT_FINISH``   — a query reached a terminal status.

At each point the :class:`MonitorEngine` hands every rule a
:class:`MonitorContext` (the instant, the live metrics registry, and
point-specific payload) and the rule fires :class:`~repro.obs.alerts.
Alert` records onto the shared :class:`~repro.obs.alerts.AlertBus`.
Because the payloads are pure functions of simulation state, the fired
alert log is bit-reproducible per seed — the hypothesis suite holds
the engine to exactly that.

Rules are small declarative objects (threshold + severity + an
``evaluate``), deliberately mirroring the paper's own diagnostics: the
straggler rule keys on the Fig 12 signature — a skewed wave shows one
thread finishing long after the mean, and the *blame* (queue wait vs
processing skew) falls out of that thread's idle share, exactly the
distinction Section 5.4 draws between waiting on the queue and
grinding through an oversized bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.alerts import (
    SEV_CRITICAL,
    SEV_INFO,
    SEV_WARNING,
    AlertBus,
)
from repro.obs.metrics import FAULT_RETRIES

#: Control points, in the order a run visits them.
POINT_ADMISSION = "admission"
POINT_REGRANT = "regrant"
POINT_WAVE = "wave"
POINT_FINISH = "finish"
POINTS = (POINT_ADMISSION, POINT_REGRANT, POINT_WAVE, POINT_FINISH)

#: Section 5.4's two straggler diagnoses: a straggling thread that
#: spent most of its life idle was starved by the tuple queues; one
#: that stayed busy ground through an oversized bucket.
BLAME_QUEUE_WAIT = "queue wait"
BLAME_PROCESSING_SKEW = "processing skew"


@dataclass(frozen=True)
class StragglerSignal:
    """One operation's Fig 12 straggler attribution at a wave barrier.

    The shared vocabulary of the :class:`StragglerMonitor` (which
    turns signals into alerts) and the adaptive controller (which
    turns them into resplit / strategy-switch decisions) — both read
    the *same* attribution, so what the diagnosis blames is exactly
    what the controller acts on.
    """

    operation: str
    """The straggling operation's name."""
    spread: float
    """Slowest thread's relative finish over the pool mean."""
    idle_share: float
    """Idle fraction of the straggler thread's lifetime."""
    blame: str
    """:data:`BLAME_QUEUE_WAIT` or :data:`BLAME_PROCESSING_SKEW`."""


def straggler_signals(started_at: float, ops, ratio: float = 2.0,
                      min_threads: int = 2) -> tuple[StragglerSignal, ...]:
    """The Fig 12 attribution, as a pure function of wave-barrier state.

    *ops* is the wave payload the engine assembles at each barrier:
    ``[(name, [(finished_at, busy_time, idle_time), ...]), ...]`` with
    one stamp triple per thread.  For every operation that ran on at
    least *min_threads* threads, the slowest thread's relative finish
    (from *started_at*) is compared against the pool mean; a ratio
    above *ratio* yields a signal whose blame follows the straggler
    thread's idle share.  Deterministic: virtual-time stamps in,
    signals out.
    """
    signals: list[StragglerSignal] = []
    for name, threads in ops:
        if len(threads) < min_threads:
            continue
        relative = [max(finished - started_at, 0.0)
                    for finished, _, _ in threads]
        slowest = max(relative)
        mean = sum(relative) / len(relative)
        if mean <= 0.0 or slowest <= 0.0:
            continue
        spread = slowest / mean
        if spread <= ratio:
            continue
        index = relative.index(slowest)
        _, busy, idle = threads[index]
        lifetime = busy + idle
        idle_share = idle / lifetime if lifetime > 0.0 else 0.0
        blame = (BLAME_QUEUE_WAIT if idle_share > 0.5
                 else BLAME_PROCESSING_SKEW)
        signals.append(StragglerSignal(name, spread, idle_share, blame))
    return tuple(signals)


def wave_stamps(operations) -> list:
    """The wave-barrier payload of *operations* (runtimes whose wave
    just finished): ``[(name, [(finished_at, busy, idle), ...]), ...]``
    with one stamp triple per thread — fresh at the barrier, which is
    what :func:`straggler_signals` and the adaptive controller's
    next-wave evidence both read."""
    return [(op.name, [(t.finished_at, t.busy_time, t.idle_time)
                       for t in op.threads])
            for op in operations]


def pool_idle_shares(ops) -> dict[str, float]:
    """Pooled idle share per operation at a wave barrier.

    Takes the same ``[(name, [(finished_at, busy, idle), ...]), ...]``
    payload as :func:`straggler_signals` and sums busy/idle over each
    pool: a share near 1.0 marks a pool that spent the wave waiting on
    empty queues (the starved consumer of Section 5.4's queue-wait
    picture); a share near 0.0 marks the saturated producer driving
    it.  The adaptive controller's resplit decision reads exactly this.
    """
    shares: dict[str, float] = {}
    for name, threads in ops:
        busy = sum(stamp[1] for stamp in threads)
        idle = sum(stamp[2] for stamp in threads)
        lifetime = busy + idle
        shares[name] = idle / lifetime if lifetime > 0.0 else 0.0
    return shares


class MonitorContext:
    """What a rule sees at one control point."""

    __slots__ = ("point", "now", "metrics", "data")

    def __init__(self, point: str, now: float, metrics, data: dict) -> None:
        self.point = point
        self.now = now
        self.metrics = metrics
        self.data = data

    def __repr__(self) -> str:
        return f"MonitorContext({self.point!r}, now={self.now:g})"

    def get(self, key: str, default=None):
        return self.data.get(key, default)


class Monitor:
    """Base rule: a name, a severity, and an ``evaluate`` hook.

    Rule instances live inside frozen ``ObservabilityOptions`` and may
    be reused across runs, so anything mutable belongs in
    :meth:`reset` — the engine calls it once per run before the first
    evaluation.
    """

    name = "monitor"
    severity = SEV_WARNING

    def reset(self) -> None:
        """Clear per-run state (called once per run)."""

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        """Inspect *ctx* and fire/resolve alerts as needed."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def _signal(self, alerts: AlertBus, key: str, breached: bool,
                now: float, value: float, threshold: float,
                message: str = "", severity: str | None = None) -> None:
        """Level-triggered helper: fire on crossing, resolve on
        recovery — the condition-alert lifecycle in one call."""
        if breached:
            alerts.fire(self.name, key, severity or self.severity, now,
                        value, threshold, message)
        elif alerts.is_active(self.name, key):
            alerts.resolve(self.name, key, now)


class LatencySloMonitor(Monitor):
    """Per-query latency SLO with burn-rate tracking.

    Fires a warning event per query that finishes over *slo* (virtual
    seconds end-to-end), and keeps a critical condition alert on the
    running violation fraction: once at least *min_finished* queries
    have finished, a violation share above *burn_budget* means the
    workload is burning its error budget — the alert resolves when
    later queries pull the share back under.
    """

    name = "latency_slo"
    severity = SEV_WARNING

    def __init__(self, slo: float, burn_budget: float = 0.25,
                 min_finished: int = 4) -> None:
        self.slo = slo
        self.burn_budget = burn_budget
        self.min_finished = min_finished
        self.finished = 0
        self.violations = 0

    def __repr__(self) -> str:
        return (f"LatencySloMonitor(slo={self.slo}, "
                f"burn_budget={self.burn_budget})")

    def reset(self) -> None:
        self.finished = 0
        self.violations = 0

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        if ctx.point != POINT_FINISH:
            return
        if ctx.get("status") in ("rejected", "shed"):
            # Shed/rejected queries never ran: their (tiny) queue
            # residence would dilute the burn-rate denominator and
            # hand the brownout loop a false recovery signal.
            return
        latency = ctx.get("latency")
        if latency is None:
            return
        self.finished += 1
        if latency > self.slo:
            self.violations += 1
            alerts.fire(self.name, ctx.get("tag", "?"), self.severity,
                        ctx.now, latency, self.slo,
                        f"query {ctx.get('tag')} finished in "
                        f"{latency:.4f}s (SLO {self.slo:g}s, "
                        f"status {ctx.get('status')})",
                        event=True)
        if self.finished >= self.min_finished:
            share = self.violations / self.finished
            self._signal(alerts, "burn", share > self.burn_budget,
                         ctx.now, share, self.burn_budget,
                         f"{self.violations}/{self.finished} queries over "
                         f"the {self.slo:g}s SLO "
                         f"(budget {self.burn_budget:.0%})",
                         severity=SEV_CRITICAL)


class AdmissionWaitMonitor(Monitor):
    """Queueing-delay ceiling: a query waited too long for admission.

    One event alert per admitted query whose virtual wait exceeded
    *ceiling* — the workload-level "your queue is backing up" signal.
    """

    name = "admission_wait"
    severity = SEV_WARNING

    def __init__(self, ceiling: float) -> None:
        self.ceiling = ceiling

    def __repr__(self) -> str:
        return f"AdmissionWaitMonitor(ceiling={self.ceiling})"

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        if ctx.point != POINT_ADMISSION:
            return
        for tag, wait in ctx.get("admitted", ()):
            if wait > self.ceiling:
                alerts.fire(self.name, tag, self.severity, ctx.now,
                            wait, self.ceiling,
                            f"query {tag} queued {wait:.4f}s before "
                            f"admission (ceiling {self.ceiling:g}s)",
                            event=True)


class MemoryPressureMonitor(Monitor):
    """Admission memory gate running close to its limit.

    Condition alert while reserved bytes exceed *fraction* of the
    configured ``memory_limit_bytes``; resolves when releases bring
    usage back under.  A no-op when the workload has no memory gate.
    """

    name = "memory_pressure"
    severity = SEV_WARNING

    def __init__(self, fraction: float = 0.9) -> None:
        self.fraction = fraction

    def __repr__(self) -> str:
        return f"MemoryPressureMonitor(fraction={self.fraction})"

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        if ctx.point not in (POINT_ADMISSION, POINT_FINISH):
            return
        limit = ctx.get("memory_limit")
        if not limit:
            return
        used = ctx.get("used_bytes", 0)
        share = used / limit
        self._signal(alerts, "gate", share > self.fraction, ctx.now,
                     share, self.fraction,
                     f"memory gate at {share:.0%} of "
                     f"{limit} bytes")


class RetryStormMonitor(Monitor):
    """Fault retries piling up across the run.

    Condition alert once the run's total retry count (the
    ``fault_retries_total`` family, all operations) reaches
    *threshold*.  Retry totals are monotone, so the alert never
    resolves within a run — it marks the instant the storm started.
    """

    name = "retry_storm"
    severity = SEV_CRITICAL

    def __init__(self, threshold: int = 8) -> None:
        self.threshold = threshold

    def __repr__(self) -> str:
        return f"RetryStormMonitor(threshold={self.threshold})"

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        if ctx.metrics is None:
            return
        retries = ctx.metrics.total(FAULT_RETRIES)
        if retries >= self.threshold:
            alerts.fire(self.name, "total", self.severity, ctx.now,
                        retries, self.threshold,
                        f"{retries:g} fault retries injected "
                        f"(threshold {self.threshold})")


class StragglerMonitor(Monitor):
    """Per-wave skew detector keyed to the Fig 12 signature.

    At each wave barrier, for every operation that ran on at least
    *min_threads* threads, compare the slowest thread's relative
    finish (from wave start) against the mean: a ratio above *ratio*
    is the paper's skew picture — one bucket (or one starved thread)
    holding the whole wave hostage.  The blame split follows Section
    5.4: a straggler that spent most of its life *idle* was starved by
    the tuple queues (queue wait); one that stayed busy ground through
    an oversized partition (processing skew).
    """

    name = "straggler"
    severity = SEV_WARNING

    def __init__(self, ratio: float = 2.0, min_threads: int = 2) -> None:
        self.ratio = ratio
        self.min_threads = min_threads

    def __repr__(self) -> str:
        return (f"StragglerMonitor(ratio={self.ratio}, "
                f"min_threads={self.min_threads})")

    def evaluate(self, ctx: MonitorContext, alerts: AlertBus) -> None:
        if ctx.point != POINT_WAVE:
            return
        started = ctx.get("started_at")
        if started is None:
            return
        tag = ctx.get("tag", "?")
        wave = ctx.get("wave", 0)
        for signal in straggler_signals(started, ctx.get("ops", ()),
                                        ratio=self.ratio,
                                        min_threads=self.min_threads):
            alerts.fire(self.name,
                        f"{tag}/w{wave}/{signal.operation}", self.severity,
                        ctx.now, signal.spread, self.ratio,
                        f"{signal.operation} straggler finished "
                        f"{signal.spread:.2f}x the mean (blame: "
                        f"{signal.blame}, idle share "
                        f"{signal.idle_share:.0%})",
                        event=True)


def default_monitors(slo: float = 1.0, admission_ceiling: float = 1.0,
                     straggler_ratio: float = 2.0,
                     burn_budget: float = 0.25,
                     memory_fraction: float = 0.9,
                     retry_threshold: int = 8) -> tuple[Monitor, ...]:
    """The standard rule pack (every built-in rule, thresholds
    overridable) — what ``python -m repro run --monitors`` installs."""
    return (
        LatencySloMonitor(slo, burn_budget=burn_budget),
        AdmissionWaitMonitor(admission_ceiling),
        StragglerMonitor(straggler_ratio),
        MemoryPressureMonitor(memory_fraction),
        RetryStormMonitor(retry_threshold),
    )


class MonitorEngine:
    """Runs a rule set at each control point, collecting alerts.

    Owned by one workload run: construction resets every rule (rule
    instances may be shared across runs through frozen options) and
    creates a fresh :class:`AlertBus`.
    """

    __slots__ = ("rules", "metrics", "alerts")

    def __init__(self, rules, metrics=None) -> None:
        self.rules = tuple(rules)
        self.metrics = metrics
        self.alerts = AlertBus()
        for rule in self.rules:
            rule.reset()

    def __repr__(self) -> str:
        return (f"MonitorEngine(rules={len(self.rules)}, "
                f"alerts={len(self.alerts)})")

    def observe(self, point: str, now: float, **data) -> None:
        """Evaluate every rule at one control point."""
        ctx = MonitorContext(point, now, self.metrics, data)
        for rule in self.rules:
            rule.evaluate(ctx, self.alerts)


#: Severity names re-exported for rule authors.
__all__ = [
    "AdmissionWaitMonitor",
    "BLAME_PROCESSING_SKEW",
    "BLAME_QUEUE_WAIT",
    "LatencySloMonitor",
    "MemoryPressureMonitor",
    "Monitor",
    "MonitorContext",
    "MonitorEngine",
    "POINT_ADMISSION",
    "POINT_FINISH",
    "POINT_REGRANT",
    "POINT_WAVE",
    "POINTS",
    "RetryStormMonitor",
    "SEV_CRITICAL",
    "SEV_INFO",
    "SEV_WARNING",
    "StragglerMonitor",
    "StragglerSignal",
    "default_monitors",
    "pool_idle_shares",
    "straggler_signals",
    "wave_stamps",
]
