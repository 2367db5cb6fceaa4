"""The online scheduling controller — closing the paper's loop.

The four-step scheduler decides everything *before* execution; the
observability stack (PRs 7–8) measures exactly the signals Section
5.4's diagnosis reads — queue-wait blame, the Fig 12 straggler
signature — but until now nothing acted on them.  The
:class:`AdaptiveController` runs at the workload engine's existing
deterministic control points and feeds those signals back:

* **wave barrier** — :meth:`AdaptiveController.observe_wave` turns
  the per-thread finish/busy/idle stamps into :class:`WaveEvidence`
  via the *same* attribution functions the
  :class:`~repro.obs.monitor.StragglerMonitor` uses
  (:func:`~repro.obs.monitor.straggler_signals`,
  :func:`~repro.obs.monitor.pool_idle_shares`) — what the diagnosis
  blames is exactly what the controller acts on;
* **wave start** — :meth:`AdaptiveController.before_wave` spends the
  evidence on the *next* wave: re-splitting the query's grant toward
  the operators carrying the queue-wait blame (the saturated
  producers whose consumers idled), and switching Random consumers to
  LPT when the Fig 12 equal-counts/unequal-costs signature fired.

Both decisions transfer across the blocking boundary because every
wave of a plan works over the same hash partitioning: a producer that
under-fed its consumer in wave *k* (wrong complexity ratio, a slowed
operator) will under-feed in wave *k+1* too, and a bucket that was
oversized for the build side is oversized for the probe side.

Every decision is a pure function of virtual-time state (thread
stamps, static estimates, the thresholds below), so adaptive runs are
byte-reproducible per seed; with the controller absent
(``policy="static"``) the engine takes the exact legacy code paths —
bit-identical to the pre-controller engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.policy import SchedulingPolicy
from repro.engine.strategies import LPT, RANDOM, make_strategy
from repro.lera.activation import TRIGGERED
from repro.obs.bus import SCHEDULE_RESPLIT, SCHEDULE_SWITCH
from repro.obs.explain import STEP_RESPLIT, STEP_SWITCH, ScheduleExplanation
from repro.obs.monitor import (
    BLAME_PROCESSING_SKEW,
    pool_idle_shares,
    straggler_signals,
    wave_stamps,
)
from repro.scheduler.allocation import _largest_remainder

#: Floor on the starved pool's busy share when computing the resplit
#: boost, so a fully idle consumer cannot drive the ratio to infinity
#: before the cap is applied.
BUSY_SHARE_FLOOR = 0.05
#: Slowest-to-mean relative-finish ratio above which a wave's operation
#: counts as straggling (the Fig 12 trigger, same value as
#: :class:`~repro.obs.monitor.StragglerMonitor`'s default), in pools of
#: at least this many threads (a one-thread pool has no spread).
STRAGGLER_RATIO = 2.0
MIN_THREADS = 2
#: Pool idle share at or above which an operation counts as *starved* —
#: its threads spent the wave waiting on empty queues (Section 5.4's
#: queue-wait blame) — and at or below which it counts as the *driver*,
#: the saturated producer carrying the blame for the starved pools.
IDLE_THRESHOLD = 0.5
DRIVER_THRESHOLD = 0.25
#: Upper bound on the resplit weight boost applied to blamed producers,
#: so one bad wave can never starve the next one's consumers outright.
BOOST_CAP = 4.0
#: Estimated-cost skew (max/mean over a pool's queues) *below* which the
#: estimates count as "equal costs" — the precondition of the Fig 12
#: signature: step 4 saw even buckets and chose Random, yet the
#: observed wave straggled on processing skew.
SWITCH_SKEW_THRESHOLD = 1.5


@dataclass(frozen=True)
class WaveEvidence:
    """What one finished wave proved about the query's schedule."""

    wave_index: int
    """The finished wave (evidence applies to the next one)."""
    boost: float
    """How much busier the drivers ran than the starved pools (capped
    at :data:`BOOST_CAP`); 1.0 when no queue-wait pattern
    fired.  The resplit trigger and the event payload's magnitude."""
    starved_idle: float
    """The *least* idle share among the starved pools — the fraction
    of a consumer pool's threads the previous wave proved redundant,
    conservatively.  What the re-split actually moves."""
    drivers: tuple[str, ...]
    """Saturated producers carrying the queue-wait blame."""
    starved: tuple[str, ...]
    """Consumers whose pools spent the wave idling on empty queues."""
    skewed: tuple[str, ...]
    """Operations whose straggler carried processing-skew blame (the
    observed half of the Fig 12 signature)."""

    @property
    def actionable(self) -> bool:
        return self.boost > 1.0 or bool(self.skewed)


def wave_evidence(started_at: float, ops) -> WaveEvidence | None:
    """Distill one wave's barrier payload into evidence, or ``None``.

    *ops* is the same ``[(name, [(finished_at, busy, idle), ...]),
    ...]`` payload the monitors read at ``POINT_WAVE``.  Pure and
    deterministic: stamps in, evidence out (the thresholds are this
    module's constants).  Returns ``None`` when nothing fired — the
    bit-identical common case on healthy waves.
    """
    signals = straggler_signals(started_at, ops, ratio=STRAGGLER_RATIO,
                                min_threads=MIN_THREADS)
    idle = pool_idle_shares(ops)
    starved = tuple(sorted(
        name for name, share in idle.items() if share >= IDLE_THRESHOLD))
    drivers = tuple(sorted(
        name for name, share in idle.items() if share <= DRIVER_THRESHOLD))
    boost = 1.0
    starved_idle = 0.0
    if starved and drivers:
        driver_busy = max(1.0 - idle[name] for name in drivers)
        starved_busy = min(1.0 - idle[name] for name in starved)
        boost = min(BOOST_CAP,
                    driver_busy / max(starved_busy, BUSY_SHARE_FLOOR))
        starved_idle = min(idle[name] for name in starved)
    skewed = tuple(signal.operation for signal in signals
                   if signal.blame == BLAME_PROCESSING_SKEW)
    evidence = WaveEvidence(wave_index=-1, boost=boost,
                            starved_idle=starved_idle,
                            drivers=drivers, starved=starved,
                            skewed=skewed)
    return evidence if evidence.actionable else None


def resplit_shares(shares: list[int], modes: list[str],
                   starved_idle: float) -> list[int]:
    """Move the consumers' proven-idle threads to the producer side.

    The static split came from estimated complexity ratios; the
    previous wave proved a *starved_idle* fraction of the consumer
    pools redundant (their threads sat on empty queues), so exactly
    that fraction of each pipelined pool — never its last thread —
    migrates to the triggered operators, split among them
    proportionally to their current shares.  Self-calibrating: the
    consumer keeps the threads its observed busy share needs, and the
    thread budget is conserved exactly (``sum(out) == sum(shares)``).
    """
    out = list(shares)
    producers = [i for i, mode in enumerate(modes) if mode == TRIGGERED]
    consumers = [i for i, mode in enumerate(modes) if mode != TRIGGERED]
    if not producers or not consumers:
        return shares
    moved = 0
    for i in consumers:
        spare = min(out[i] - 1, int(out[i] * starved_idle))
        if spare > 0:
            out[i] -= spare
            moved += spare
    if moved == 0:
        return shares
    extra = _largest_remainder(moved, [float(shares[i]) for i in producers],
                               minimum=0)
    for i, add in zip(producers, extra):
        out[i] += add
    return out


class AdaptiveController:
    """Mid-flight scheduling decisions for one workload run.

    Built by a ``_WorkloadRun`` when ``SchedulingPolicy(policy=
    "adaptive")``, which subscribes :meth:`observe_wave` to its
    ``wave`` control point and :meth:`before_wave` to ``wave.start``;
    under the static policy nothing is built or subscribed.  Both
    read the engine's per-query job (``tag``, ``wave_index``, ...).
    Emits a ``schedule.resplit`` / ``schedule.switch`` event
    on the workload bus for every decision taken, and records the same
    decisions on :attr:`explanation` (surfaced as
    ``WorkloadResult.decisions``).
    """

    def __init__(self, policy: SchedulingPolicy, bus) -> None:
        self.policy = policy
        self.bus = bus
        self.explanation = ScheduleExplanation()
        self._pending: dict[str, WaveEvidence] = {}

    def __repr__(self) -> str:
        return (f"AdaptiveController(policy={self.policy.policy!r}, "
                f"decisions={len(self.explanation)})")

    # -- wave barrier ----------------------------------------------------------

    def observe_wave(self, now: float, job) -> None:
        """Bank evidence from *job*'s finished wave for its next one."""
        if job.wave_index + 1 >= len(job.waves):
            return
        evidence = wave_evidence(job.wave_started_at,
                                 wave_stamps(job.current_wave_ops))
        if evidence is not None:
            self._pending[job.tag] = WaveEvidence(
                wave_index=job.wave_index, boost=evidence.boost,
                starved_idle=evidence.starved_idle,
                drivers=evidence.drivers, starved=evidence.starved,
                skewed=evidence.skewed)

    # -- wave start ------------------------------------------------------------

    def before_wave(self, at: float, job, wave_ops, base: list[int],
                    wave_total: int, shares: list[int]) -> list[int]:
        """Spend banked evidence on the wave *job* is about to start.

        Returns the (possibly re-split) per-operation shares and
        applies any strategy switches directly to the runtimes —
        before their pools are built, so the whole wave runs under the
        switched strategy.  Without banked evidence this returns
        *shares* untouched.
        """
        evidence = self._pending.pop(job.tag, None)
        if evidence is None:
            return shares
        shares = self._maybe_resplit(job.tag, job.wave_index, wave_ops, base,
                                     wave_total, shares, evidence, at)
        self._maybe_switch(job.tag, job.wave_index, wave_ops, evidence, at)
        return shares

    def _maybe_resplit(self, tag: str, wave_index: int, wave_ops,
                       base: list[int], wave_total: int,
                       shares: list[int], evidence: WaveEvidence,
                       at: float) -> list[int]:
        if (not self.policy.resplit or evidence.boost <= 1.0
                or len(wave_ops) < 2):
            return shares
        modes = [op.node.trigger_mode for op in wave_ops]
        if len(set(modes)) < 2:
            # All producers or all consumers: no contrast to shift.
            return shares
        resplit = resplit_shares(shares, modes, evidence.starved_idle)
        if resplit == shares:
            return shares
        before = {op.name: share for op, share in zip(wave_ops, shares)}
        after = {op.name: share for op, share in zip(wave_ops, resplit)}
        self.bus.emit(SCHEDULE_RESPLIT, at, tag=tag, wave=wave_index,
                      before=before, after=after,
                      boost=evidence.boost,
                      starved_idle=evidence.starved_idle,
                      drivers=list(evidence.drivers),
                      starved=list(evidence.starved))
        self.explanation.record(
            STEP_RESPLIT, f"{tag}/w{wave_index}", after,
            "previous wave starved its consumers: their idle threads "
            "move to the producers carrying the queue-wait blame",
            before=before, boost=evidence.boost,
            starved_idle=evidence.starved_idle,
            drivers=list(evidence.drivers),
            starved=list(evidence.starved))
        return resplit

    def _maybe_switch(self, tag: str, wave_index: int, wave_ops,
                      evidence: WaveEvidence, at: float) -> None:
        if not evidence.skewed:
            return
        for op in wave_ops:
            if op.node.trigger_mode != TRIGGERED:
                continue
            if op.strategy.name != RANDOM:
                continue
            estimates = [queue.cost_estimate for queue in op.queues]
            if len(estimates) < 2:
                continue
            mean = sum(estimates) / len(estimates)
            skew = max(estimates) / mean if mean > 0.0 else 1.0
            if skew > SWITCH_SKEW_THRESHOLD:
                # The estimates themselves flagged skew — step 4 had
                # its chance; the Fig 12 signature is specifically
                # *equal* estimated costs with *unequal* observed ones.
                continue
            op.strategy = make_strategy(LPT)
            self.bus.emit(SCHEDULE_SWITCH, at, tag=tag, wave=wave_index,
                          operation=op.name, before=RANDOM, after=LPT,
                          estimated_skew=skew,
                          observed=list(evidence.skewed))
            self.explanation.record(
                STEP_SWITCH, op.name, LPT,
                "Fig 12 signature: estimates said equal bucket costs "
                "but the previous wave straggled on processing skew",
                estimated_skew=skew, observed=list(evidence.skewed),
                wave=wave_index, query=tag)
