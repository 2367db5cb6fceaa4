"""The run registry: persisted run records and regression comparison.

The perf ledger (``python -m perf_ledger``) keeps the wall-clock
trajectory; this registry keeps the *virtual-time* trajectory: every recorded run persists a
compact :class:`RunRecord` — metrics, critical path, imbalance
findings, optionally the scheduler's explained decisions — as one
JSON file under ``benchmarks/results/runs/``.  :func:`compare` then
turns any two records into a structured A/B / regression report:
elapsed and critical-path deltas against a tolerance gate, bottleneck
shift, and per-operator deltas.  That is the paper's §5 methodology
(Random vs LPT, degree sweeps) turned into a reusable primitive: *did
the change move the bottleneck, or just the clock?*
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.diag.report import Diagnosis, diagnose
from repro.errors import ReproError

#: Record format version, stored in every file.
RECORD_SCHEMA = 1

#: Where records live unless overridden (or the env var below is set).
DEFAULT_RUNS_DIR = Path("benchmarks/results/runs")

#: Environment override for the registry root (tests, CI sandboxes).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default relative-elapsed tolerance of the regression gate.
DEFAULT_TOLERANCE = 0.05

_ID_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_run_id(run_id: str) -> str:
    """Make *run_id* filesystem-safe (conservative allow-list)."""
    cleaned = _ID_SANITIZER.sub("_", run_id.strip())
    if not cleaned:
        raise ReproError(f"unusable run id {run_id!r}")
    return cleaned


@dataclass
class RunRecord:
    """One persisted run: enough to compare, small enough to commit."""

    run_id: str
    label: str
    created_at: str
    workload: dict
    elapsed: float
    startup: float
    total_threads: int
    dilation: float
    ops: list[dict]
    critical_path: dict
    findings: list[dict]
    explanation: list[dict] | None = None
    status: str = "done"
    #: Workload tail latency (p50/p95/p99/max/mean/count over the
    #: completed queries' end-to-end virtual latencies) and terminal
    #: status counts; ``None`` on single-query records and on records
    #: written before workload telemetry existed.
    latency: dict | None = None
    status_counts: dict | None = None
    schema: int = RECORD_SCHEMA

    @classmethod
    def from_diagnosis(cls, diagnosis: Diagnosis, run_id: str,
                       label: str = "", workload: dict | None = None,
                       explanation: list[dict] | None = None,
                       created_at: str | None = None) -> "RunRecord":
        """Distil one :class:`~repro.diag.report.Diagnosis`."""
        run = diagnosis.run
        ops = [
            {
                "name": op.name,
                "trigger_mode": op.trigger_mode,
                "instances": op.instances,
                "threads": op.threads,
                "strategy": op.strategy,
                "activations": op.activations,
                "busy_time": op.busy_time,
                "idle_time": op.idle_time,
                "work": op.work,
                "steal_ratio": op.steal_ratio,
                "queue_imbalance": op.queue_imbalance,
                "memory_penalty": op.memory_penalty,
            }
            for op in run.ops.values()
        ]
        if created_at is None:
            created_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return cls(
            run_id=sanitize_run_id(run_id),
            label=label,
            created_at=created_at,
            workload=dict(workload or {}),
            elapsed=run.response_time,
            startup=run.startup_time,
            total_threads=run.total_threads,
            dilation=run.dilation,
            ops=ops,
            critical_path=diagnosis.critical_path.to_json(),
            findings=[finding.to_json() for finding in diagnosis.findings],
            explanation=explanation,
            status=getattr(run, "status", "done"),
        )

    @classmethod
    def of(cls, source, run_id: str, **kwargs) -> "RunRecord":
        """Diagnose *source* (anything :func:`diagnose` accepts) and
        record it in one step."""
        return cls.from_diagnosis(diagnose(source), run_id, **kwargs)

    @classmethod
    def from_workload(cls, result, run_id: str, label: str = "",
                      workload: dict | None = None,
                      created_at: str | None = None) -> "RunRecord":
        """Distil one telemetry-enabled workload run.

        *result* is a :class:`~repro.workload.engine.WorkloadResult`
        with observability on; the record carries the makespan as
        ``elapsed`` plus the tail-latency percentiles and terminal
        status counts, so ``python -m repro compare`` gates workload
        runs on p95/p99 as well as the clock.
        """
        report = result.report()
        if created_at is None:
            created_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return cls(
            run_id=sanitize_run_id(run_id),
            label=label,
            created_at=created_at,
            workload=dict(workload or {}),
            elapsed=result.makespan,
            startup=0.0,
            total_threads=max(
                (e.total_threads for e in result.executions.values()),
                default=0),
            dilation=1.0,
            ops=[],
            critical_path={},
            findings=[],
            status="done",
            latency=dict(report.latency) or None,
            status_counts=dict(report.statuses),
        )

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "label": self.label,
            "created_at": self.created_at,
            "workload": self.workload,
            "elapsed": self.elapsed,
            "startup": self.startup,
            "total_threads": self.total_threads,
            "dilation": self.dilation,
            "ops": self.ops,
            "critical_path": self.critical_path,
            "findings": self.findings,
            "explanation": self.explanation,
            "status": self.status,
            "latency": self.latency,
            "status_counts": self.status_counts,
        }

    @classmethod
    def from_json(cls, document: dict) -> "RunRecord":
        if document.get("schema", 0) > RECORD_SCHEMA:
            raise ReproError(
                f"run record schema {document.get('schema')} is newer than "
                f"this reader (knows up to {RECORD_SCHEMA})")
        return cls(
            run_id=document["run_id"],
            label=document.get("label", ""),
            created_at=document.get("created_at", ""),
            workload=document.get("workload", {}),
            elapsed=document["elapsed"],
            startup=document["startup"],
            total_threads=document["total_threads"],
            dilation=document.get("dilation", 1.0),
            ops=document["ops"],
            critical_path=document["critical_path"],
            findings=document.get("findings", []),
            explanation=document.get("explanation"),
            status=document.get("status", "done"),
            latency=document.get("latency"),
            status_counts=document.get("status_counts"),
            schema=document.get("schema", RECORD_SCHEMA),
        )

    @property
    def bottleneck(self) -> str:
        return self.critical_path.get("bottleneck", "?")

    @property
    def top_finding(self) -> dict | None:
        return self.findings[0] if self.findings else None

    def op(self, name: str) -> dict | None:
        for entry in self.ops:
            if entry["name"] == name:
                return entry
        return None


class RunRegistry:
    """A directory of :class:`RunRecord` JSON files."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR
        self.root = Path(root)

    def path_of(self, run_id: str) -> Path:
        return self.root / f"{sanitize_run_id(run_id)}.json"

    def save(self, record: RunRecord) -> Path:
        """Persist (overwriting any previous record of the same id)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_of(record.run_id)
        path.write_text(json.dumps(record.to_json(), indent=1) + "\n",
                        encoding="utf-8")
        return path

    def load(self, run_id: str) -> RunRecord:
        path = self.path_of(run_id)
        if not path.exists():
            raise ReproError(
                f"no run {run_id!r} in {self.root} "
                f"(have: {', '.join(self.run_ids()) or 'none'})")
        return RunRecord.from_json(json.loads(path.read_text()))

    def run_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def record(self, source, run_id: str, **kwargs) -> Path:
        """Diagnose *source* and persist the record; returns the path."""
        return self.save(RunRecord.of(source, run_id, **kwargs))


# -- comparison --------------------------------------------------------------

@dataclass(frozen=True)
class OpDelta:
    """Per-operator A-to-B change."""

    operation: str
    busy_a: float
    busy_b: float
    blame_a: float
    blame_b: float

    @property
    def busy_delta(self) -> float:
        return self.busy_b - self.busy_a

    @property
    def blame_delta(self) -> float:
        return self.blame_b - self.blame_a


@dataclass
class RunComparison:
    """Structured A/B report between two run records."""

    a: RunRecord
    b: RunRecord
    tolerance: float
    elapsed_delta: float       # (b - a) / a, relative
    path_delta: float          # critical-path length delta, relative
    regressed: bool
    improved: bool
    bottleneck_shifted: bool
    op_deltas: list[OpDelta] = field(default_factory=list)
    #: Worst relative p95/p99 movement when both records carry
    #: workload latency percentiles; ``None`` otherwise.  Feeds the
    #: ``regressed`` gate like ``elapsed_delta`` does.
    tail_delta: float | None = None

    @property
    def clean(self) -> bool:
        """Neither gate tripped and the bottleneck stayed put."""
        return not (self.regressed or self.improved
                    or self.bottleneck_shifted)

    @property
    def verdict(self) -> str:
        if self.regressed:
            if (self.tail_delta is not None
                    and self.tail_delta > max(self.elapsed_delta, 0.0)):
                base = f"REGRESSION (+{self.tail_delta:.1%} tail latency)"
            else:
                base = f"REGRESSION (+{self.elapsed_delta:.1%} elapsed)"
        elif self.improved:
            base = f"improvement ({self.elapsed_delta:+.1%} elapsed)"
        else:
            base = (f"within tolerance ({self.elapsed_delta:+.1%} vs "
                    f"±{self.tolerance:.0%})")
        if self.bottleneck_shifted:
            base += (f"; bottleneck shifted "
                     f"{self.a.bottleneck} -> {self.b.bottleneck}")
        return base

    def to_json(self) -> dict:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "tolerance": self.tolerance,
            "elapsed_a": self.a.elapsed,
            "elapsed_b": self.b.elapsed,
            "elapsed_delta": self.elapsed_delta,
            "path_delta": self.path_delta,
            "regressed": self.regressed,
            "improved": self.improved,
            "tail_delta": self.tail_delta,
            "bottleneck_a": self.a.bottleneck,
            "bottleneck_b": self.b.bottleneck,
            "bottleneck_shifted": self.bottleneck_shifted,
            "verdict": self.verdict,
            "ops": [
                {"operation": d.operation,
                 "busy_a": d.busy_a, "busy_b": d.busy_b,
                 "blame_a": d.blame_a, "blame_b": d.blame_b}
                for d in self.op_deltas
            ],
        }

    def render(self) -> str:
        a, b = self.a, self.b
        lines = [
            f"compare {a.run_id} (A) vs {b.run_id} (B): {self.verdict}",
            f"  elapsed       : {a.elapsed:.3f}s -> {b.elapsed:.3f}s "
            f"({self.elapsed_delta:+.1%})",
            f"  critical path : "
            f"{a.critical_path.get('length', 0.0):.3f}s -> "
            f"{b.critical_path.get('length', 0.0):.3f}s "
            f"({self.path_delta:+.1%})",
            f"  bottleneck    : {a.bottleneck} -> {b.bottleneck}"
            + ("  ** shifted **" if self.bottleneck_shifted else ""),
            f"  threads       : {a.total_threads} -> {b.total_threads}",
        ]
        if self.tail_delta is not None:
            lat_a, lat_b = a.latency or {}, b.latency or {}
            lines.append(
                f"  tail latency  : p95 {lat_a.get('p95', 0.0):.3f}s -> "
                f"{lat_b.get('p95', 0.0):.3f}s, p99 "
                f"{lat_a.get('p99', 0.0):.3f}s -> "
                f"{lat_b.get('p99', 0.0):.3f}s "
                f"(worst {self.tail_delta:+.1%})")
        if a.status_counts or b.status_counts:
            lines.append(
                f"  statuses      : {a.status_counts or {}} -> "
                f"{b.status_counts or {}}")
        lines.append("  per-operator (busy | on-path blame):")
        for delta in self.op_deltas:
            lines.append(
                f"    {delta.operation:<12} "
                f"busy {delta.busy_a:8.3f}s -> {delta.busy_b:8.3f}s "
                f"({delta.busy_delta:+8.3f}s)   "
                f"blame {delta.blame_a:8.3f}s -> {delta.blame_b:8.3f}s "
                f"({delta.blame_delta:+8.3f}s)")
        top_a, top_b = a.top_finding, b.top_finding
        if top_a or top_b:
            lines.append("  top finding:")
            lines.append(f"    A: " + _finding_line(top_a))
            lines.append(f"    B: " + _finding_line(top_b))
        return "\n".join(lines)


def _finding_line(finding: dict | None) -> str:
    if not finding:
        return "(none)"
    return (f"{finding['operation']}: {finding['kind']} "
            f"[severity {finding['severity']:.3f}]")


def _relative_delta(a: float, b: float) -> float:
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a


def compare(a: RunRecord, b: RunRecord,
            tolerance: float = DEFAULT_TOLERANCE) -> RunComparison:
    """Compare run *b* against baseline *a*.

    The elapsed gate is relative: ``regressed`` when B's elapsed
    exceeds A's by more than *tolerance*, ``improved`` when it
    undercuts it by more.  When both records carry workload latency
    percentiles (:meth:`RunRecord.from_workload`), the worst relative
    p95/p99 movement is gated by the same tolerance — a workload can
    hold its makespan while its tail collapses, and that is a
    regression too.  The bottleneck shift compares the critical-path
    blame winners.  Per-operator rows cover the union of operations
    (0.0 where one side lacks the operation), ranked by the largest
    absolute blame movement.
    """
    elapsed_delta = _relative_delta(a.elapsed, b.elapsed)
    tail_delta = None
    if a.latency and b.latency:
        tail_moves = [
            _relative_delta(a.latency[q], b.latency[q])
            for q in ("p95", "p99") if q in a.latency and q in b.latency]
        tail_delta = max(tail_moves) if tail_moves else None
    path_delta = _relative_delta(a.critical_path.get("length", 0.0),
                                 b.critical_path.get("length", 0.0))
    blame_a = a.critical_path.get("blame", {})
    blame_b = b.critical_path.get("blame", {})
    names: list[str] = []
    for record in (a, b):
        for entry in record.ops:
            if entry["name"] not in names:
                names.append(entry["name"])
    deltas = []
    for name in names:
        op_a, op_b = a.op(name), b.op(name)
        deltas.append(OpDelta(
            operation=name,
            busy_a=op_a["busy_time"] if op_a else 0.0,
            busy_b=op_b["busy_time"] if op_b else 0.0,
            blame_a=blame_a.get(name, {}).get("total", 0.0),
            blame_b=blame_b.get(name, {}).get("total", 0.0),
        ))
    deltas.sort(key=lambda d: -abs(d.blame_delta))
    return RunComparison(
        a=a,
        b=b,
        tolerance=tolerance,
        elapsed_delta=elapsed_delta,
        path_delta=path_delta,
        regressed=(elapsed_delta > tolerance
                   or (tail_delta is not None and tail_delta > tolerance)),
        improved=elapsed_delta < -tolerance,
        bottleneck_shifted=a.bottleneck != b.bottleneck,
        op_deltas=deltas,
        tail_delta=tail_delta,
    )
