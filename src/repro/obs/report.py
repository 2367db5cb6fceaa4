"""The WorkloadReport: one readable page per workload run.

Distils a telemetry-enabled workload run — the
:class:`~repro.obs.metrics.MetricsRegistry` plus the
:class:`~repro.obs.spans.SpanSet` — into the numbers an operator
actually asks for: how many queries ended in which status, the
p50/p95/p99/max end-to-end virtual latency of the completed ones,
admission queue pressure, grant churn, pool utilization, fold
hit-rate and fault counters.  Renderable as text
(``python -m repro run --concurrent 4 --report``, ``make
report-demo``) or as a JSON document (:meth:`WorkloadReport.to_json`).

The latency percentiles come from the registry's raw latency
observations through :func:`repro.obs.metrics.percentile`, so they
match a direct computation over ``QueryHandle.result()`` latencies
exactly — that equality is an acceptance test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import (
    ADMISSION_QUEUE_DEPTH,
    ADMISSION_WAIT,
    FAULT_ABORTS,
    FAULT_BACKOFF,
    FAULT_MEMORY_EVENTS,
    FAULT_RETRIES,
    FAULTS_INJECTED,
    FOLD_ATTEMPTS,
    FOLD_COST_SHARE,
    FOLD_HITS,
    GRANTS,
    POOL_UTILIZATION,
    QUERIES_SHED,
    MetricsRegistry,
    percentile,
)
from repro.obs.spans import SPAN_DONE, SpanSet, verify_spans


@dataclass
class WorkloadReport:
    """Aggregated telemetry of one workload run."""

    queries: int
    statuses: dict[str, int]
    makespan: float
    throughput: float                 # done queries per virtual second
    latency: dict                     # p50/p95/p99/max/mean/count (done)
    admission: dict                   # peak_queue_depth, wait mean/max
    grants: dict[str, int]            # reason -> count
    pools: dict                       # utilization mean/min + laggard
    folds: dict                       # attempts, hits, hit_rate, shares
    faults: dict                      # injected/retries/aborts/backoff/mem
    problems: list[str] = field(default_factory=list)
    serving: dict = field(default_factory=dict)  # shed by reason

    def to_json(self) -> dict:
        return {
            "queries": self.queries,
            "statuses": dict(self.statuses),
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency": dict(self.latency),
            "admission": dict(self.admission),
            "grants": dict(self.grants),
            "pools": dict(self.pools),
            "folds": dict(self.folds),
            "faults": dict(self.faults),
            "problems": list(self.problems),
            "serving": dict(self.serving),
        }

    def render(self) -> str:
        status_bits = ", ".join(f"{status}={count}" for status, count
                                in sorted(self.statuses.items()))
        lines = [
            "workload report",
            f"  queries    : {self.queries} ({status_bits})",
            f"  makespan   : {self.makespan:.4f}s virtual, "
            f"throughput {self.throughput:.2f} done/s",
        ]
        if self.latency:
            lines.append(
                f"  latency    : p50={self.latency['p50']:.4f}s "
                f"p95={self.latency['p95']:.4f}s "
                f"p99={self.latency['p99']:.4f}s "
                f"max={self.latency['max']:.4f}s "
                f"(mean {self.latency['mean']:.4f}s over "
                f"{self.latency['count']} done)")
        else:
            lines.append("  latency    : no completed queries")
        lines.append(
            f"  admission  : peak queue depth "
            f"{self.admission['peak_queue_depth']:.0f}, wait "
            f"mean {self.admission['wait_mean']:.4f}s / "
            f"max {self.admission['wait_max']:.4f}s")
        if self.grants:
            lines.append("  grants     : " + " ".join(
                f"{reason}={count}" for reason, count
                in sorted(self.grants.items())))
        if self.pools.get("count"):
            laggard = self.pools.get("laggard")
            lines.append(
                f"  pools      : mean utilization "
                f"{self.pools['mean']:.2f} over {self.pools['count']} "
                f"pools, min {self.pools['min']:.2f}"
                + (f" ({laggard})" if laggard else ""))
        if self.folds.get("attempts"):
            lines.append(
                f"  folds      : {self.folds['hits']}/"
                f"{self.folds['attempts']} nodes folded "
                f"({self.folds['hit_rate']:.0%}), "
                f"{self.folds['shared_appearances']} fractional "
                f"appearances")
        if any(self.faults.values()):
            lines.append(
                f"  faults     : injected={self.faults['injected']:.0f} "
                f"retries={self.faults['retries']:.0f} "
                f"aborts={self.faults['aborts']:.0f} "
                f"backoff={self.faults['backoff_s']:.4f}s "
                f"memory={self.faults['memory_events']:.0f}")
        if self.serving:
            bits = [f"shed={self.serving.get('shed', 0)}"]
            reasons = self.serving.get("reasons", {})
            bits.extend(f"{reason}={count}"
                        for reason, count in sorted(reasons.items()))
            lines.append("  serving    : " + " ".join(bits))
        for problem in self.problems:
            lines.append(f"  AUDIT      : {problem}")
        return "\n".join(lines)


def build_workload_report(result) -> WorkloadReport:
    """Build the report from one telemetry-enabled
    :class:`~repro.workload.engine.WorkloadResult`."""
    metrics: MetricsRegistry | None = getattr(result, "metrics", None)
    spans: SpanSet | None = getattr(result, "spans", None)
    if metrics is None or spans is None:
        raise ReproError(
            "workload was not observed; enable WorkloadOptions("
            "observability=ObservabilityOptions(observe=True)) — or "
            "per-query observe — to collect telemetry")

    statuses = spans.status_counts()
    done = statuses.get(SPAN_DONE, 0)
    throughput = done / result.makespan if result.makespan > 0 else 0.0

    latency: dict = {}
    done_latencies = spans.latencies(status=SPAN_DONE)
    if done_latencies:
        latency = {
            "p50": percentile(done_latencies, 50),
            "p95": percentile(done_latencies, 95),
            "p99": percentile(done_latencies, 99),
            "max": max(done_latencies),
            "mean": sum(done_latencies) / len(done_latencies),
            "count": len(done_latencies),
        }

    # get(), not gauge(): reporting must read the registry, never
    # instantiate instruments the run did not populate.
    depth = metrics.get(ADMISSION_QUEUE_DEPTH)
    wait = metrics.get(ADMISSION_WAIT)
    waits = wait.values if wait is not None else []
    admission = {
        "peak_queue_depth": depth.peak if depth is not None else 0.0,
        "wait_mean": wait.total / len(waits) if waits else 0.0,
        "wait_max": max(waits) if waits else 0.0,
    }

    grants = {instrument.labels.get("reason", "?"): int(instrument.value)
              for instrument in metrics.family(GRANTS)}

    pool_gauges = metrics.family(POOL_UTILIZATION)
    pools: dict = {"count": len(pool_gauges)}
    if pool_gauges:
        values = [gauge.value for gauge in pool_gauges]
        worst = min(pool_gauges, key=lambda gauge: gauge.value)
        pools.update(
            mean=sum(values) / len(values), min=min(values),
            laggard=f"{worst.labels.get('pool', '?')}"
                    f"@{worst.labels.get('query', '?')}")

    attempts = metrics.total(FOLD_ATTEMPTS)
    hits = metrics.total(FOLD_HITS)
    folds = {
        "attempts": int(attempts),
        "hits": int(hits),
        "hit_rate": hits / attempts if attempts else 0.0,
        "shared_appearances": len(metrics.family(FOLD_COST_SHARE)),
    }

    faults = {
        "injected": metrics.total(FAULTS_INJECTED),
        "retries": metrics.total(FAULT_RETRIES),
        "aborts": metrics.total(FAULT_ABORTS),
        "backoff_s": metrics.total(FAULT_BACKOFF),
        "memory_events": metrics.total(FAULT_MEMORY_EVENTS),
    }

    shed_total = 0
    reasons: dict[str, int] = {}
    for counter in metrics.family(QUERIES_SHED):
        shed_total += int(counter.value)
        reason = counter.labels.get("reason", "?")
        reasons[reason] = reasons.get(reason, 0) + int(counter.value)
    serving: dict = {}
    if shed_total:
        serving = {"shed": shed_total, "reasons": reasons}

    problems = verify_spans(spans, result.executions,
                            makespan=result.makespan)
    return WorkloadReport(
        queries=len(spans),
        statuses=statuses,
        makespan=result.makespan,
        throughput=throughput,
        latency=latency,
        admission=admission,
        grants=grants,
        pools=pools,
        folds=folds,
        faults=faults,
        problems=problems,
        serving=serving,
    )
