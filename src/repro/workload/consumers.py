"""Consumers of the workload engine's control points.

The engine core (:mod:`repro.workload.engine`) fires each control point
once — the workload-bus kinds, the four monitor points, the fold pass
and the wave-start decision — and knows nothing about who listens.
Telemetry and the monitor rules are consumers here: each subscribes at
run construction when its option is on, reads what it needs from the
run and the job, and is simply absent otherwise (the adaptive
controller subscribes its own two methods).  All private to
``repro.workload``.
"""

from __future__ import annotations

from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_GRANT,
    QUERY_REJECT,
    QUERY_SUBMIT,
    SERVE_BACKPRESSURE,
)
from repro.obs.metrics import (
    ADMISSION_QUEUE_DEPTH,
    ADMISSION_WAIT,
    BACKPRESSURE_ENGAGED,
    FOLD_ATTEMPTS,
    FOLD_COST_SHARE,
    FOLD_HITS,
    FOLD_SUBSCRIBERS,
    GRANTED_THREADS,
    GRANTS,
    POOL_UTILIZATION,
    QUERIES_ADMITTED,
    QUERIES_FINISHED,
    QUERIES_SHED,
    QUERIES_SUBMITTED,
    QUERY_LATENCY,
    RUNNING_QUERIES,
)
from repro.obs.monitor import (
    POINT_ADMISSION,
    POINT_FINISH,
    POINT_REGRANT,
    POINT_WAVE,
    wave_stamps,
)

#: The admission-time fold pass of one shared-mode query (fires after
#: the query materialized, with its fold set).
POINT_FOLD = "fold"


class _Telemetry:
    """Populates the run's :class:`~repro.obs.metrics.MetricsRegistry`
    from the lifecycle points; owns the workload metric names."""

    def __init__(self, run, metrics) -> None:
        self.run = run
        self.metrics = metrics
        run.subscribe(QUERY_SUBMIT, self.on_submit)
        run.subscribe(POINT_FOLD, self.on_fold)
        run.subscribe(QUERY_ADMIT, self.on_admit)
        run.subscribe(QUERY_GRANT, self.on_grant)
        run.subscribe(POINT_ADMISSION, self.sample_levels)
        run.subscribe(QUERY_REJECT, self.on_shed)
        run.subscribe(SERVE_BACKPRESSURE, self.on_backpressure)
        run.subscribe(POINT_FINISH, self.on_finish)

    def on_submit(self, now, job, **_) -> None:
        self.metrics.counter(QUERIES_SUBMITTED).inc()
        self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
            now, len(self.run.queue))

    def on_fold(self, now, job, folds) -> None:
        """Fold hit rate of one fold pass: how many of the plan's
        shareable (fingerprintable) nodes folded, and each shared
        operator's subscriber count.  ``plan.fingerprints()`` is
        memoized — the fold pass just computed it."""
        shareable = sum(1 for fingerprint in job.plan.fingerprints().values()
                        if fingerprint is not None)
        if shareable:
            self.metrics.counter(FOLD_ATTEMPTS).inc(shareable)
        if folds:
            self.metrics.counter(FOLD_HITS).inc(len(folds))
            for shared in job.subscriptions:
                self.metrics.gauge(
                    FOLD_SUBSCRIBERS, operator=shared.runtime.name).set(
                    now, len(shared.active_tags))

    def on_admit(self, now, job, **_) -> None:
        self.metrics.counter(QUERIES_ADMITTED).inc()
        self.metrics.histogram(ADMISSION_WAIT).observe(now - job.arrival)

    def on_grant(self, now, job, threads, reason, **_) -> None:
        self.metrics.counter(GRANTS, reason=reason).inc()
        if reason != "helpers":  # helpers top up a pool, not the grant
            self.metrics.gauge(GRANTED_THREADS, query=job.tag).set(
                now, threads)

    def on_shed(self, now, job, reason, **_) -> None:
        self.metrics.counter(QUERIES_SHED, reason=reason).inc()

    def on_backpressure(self, now, job, engaged, **_) -> None:
        self.metrics.gauge(BACKPRESSURE_ENGAGED).set(
            now, 1.0 if engaged else 0.0)

    def on_finish(self, now, job, status) -> None:
        """One query reached a terminal state: the end-to-end latency,
        the per-status tally, the machine levels, and — from the frozen
        execution — each pool's utilization and fractional cost share."""
        metrics = self.metrics
        metrics.counter(QUERIES_FINISHED, status=status).inc()
        # Per-class series (the serving benchmark's per-priority /
        # per-tenant tails) only when the caller asked for serving:
        # other runs keep the plain label set.
        labels = ({"klass": f"p{job.priority}", "tenant": job.tenant}
                  if self.run.serving_requested else {})
        metrics.histogram(QUERY_LATENCY, status=status, **labels).observe(
            now - job.arrival)
        self.sample_levels(now, job)
        for name, op in job.execution.operations.items():
            window = op.finished_at - op.started_at
            if op.threads and window > 0:
                metrics.gauge(POOL_UTILIZATION, query=job.tag, pool=name).set(
                    now, op.busy_time / (op.threads * window))
            if op.cost_share < 1.0:
                metrics.gauge(FOLD_COST_SHARE, query=job.tag,
                              operator=name).set(now, op.cost_share)

    def sample_levels(self, now, job, **_) -> None:
        self.metrics.gauge(RUNNING_QUERIES).set(now, len(self.run.running))
        self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
            now, len(self.run.queue))


class _MonitorFeed:
    """Evaluates the streaming monitor rules at the four monitor
    points, handing them the machine levels read from the run."""

    def __init__(self, run, monitors) -> None:
        self.run = run
        self.monitors = monitors
        run.subscribe(POINT_ADMISSION, self.on_admission)
        run.subscribe(POINT_WAVE, self.on_wave)
        run.subscribe(POINT_REGRANT, self.on_regrant)
        run.subscribe(POINT_FINISH, self.on_finish)

    def _levels(self) -> dict:
        run = self.run
        return {"queue_depth": len(run.queue), "running": len(run.running)}

    def on_admission(self, now, job, admitted) -> None:
        self.monitors.observe(
            POINT_ADMISSION, now,
            admitted=[(query.tag, now - query.arrival) for query in admitted],
            **self._levels())

    def on_wave(self, now, job) -> None:
        self.monitors.observe(
            POINT_WAVE, now, tag=job.tag, wave=job.wave_index,
            started_at=job.wave_started_at,
            ops=wave_stamps(job.current_wave_ops))

    def on_regrant(self, now, job) -> None:
        running = self.run.running
        self.monitors.observe(
            POINT_REGRANT, now, running=len(running),
            grants={query.tag: query.grant for query in running})

    def on_finish(self, now, job, status) -> None:
        self.monitors.observe(
            POINT_FINISH, now, tag=job.tag, status=status,
            latency=now - job.arrival, **self._levels())
