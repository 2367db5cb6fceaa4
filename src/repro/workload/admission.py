"""Admission control for multi-query workloads.

Two gates, checked in FIFO order over the arrival queue:

* a **concurrency bound** (``max_concurrent``): the classic
  multiprogramming-level limit — beyond it, extra queries only add
  dilation and start-up cost without adding throughput;
* a **memory footprint gate** (``memory_limit_bytes``): the estimated
  stored-data footprint of every *running* query plus the candidate
  must fit the budget, mirroring how a real system reserves buffer
  space per operator tree before letting a query run.

The footprint estimate is static — the sum of the data segments every
operator instance declares it will read
(:meth:`~repro.engine.dbfuncs.DBFunc.segments`) — so admission is
decidable at submit time: a query whose lone footprint exceeds the
budget can *never* be admitted and raises :class:`~repro.errors
.AdmissionError` instead of queueing forever.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.dbfuncs import make_dbfunc
from repro.errors import AdmissionError
from repro.lera.graph import LeraGraph
from repro.machine.costs import CostModel
from repro.workload.options import WorkloadOptions

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.operation import OperationRuntime


def runtime_footprint(runtimes: "dict[str, OperationRuntime]") -> int:
    """Estimated stored-data bytes the built runtimes will read: the
    after-the-build reference :func:`node_footprints` must agree with
    (the engine itself prices a job before building it)."""
    total = 0
    for runtime in runtimes.values():
        for instance in range(runtime.instances):
            for _key, size in runtime.dbfunc.segments(instance):
                total += size
    return total


def node_footprints(plan: LeraGraph, costs: CostModel) -> dict[str, int]:
    """Per-node stored-data footprint (bytes), no runtimes needed.

    Builds throwaway dbfuncs to ask each operator for its segments.
    The workload engine prices every job with it at submission; the
    shared-work fold pass needs the per-node split to price a query
    whose folded nodes cost only a *fraction* of their bytes.
    """
    footprints: dict[str, int] = {}
    for node in plan.nodes:
        dbfunc = make_dbfunc(node.spec, costs)
        total = 0
        for instance in range(node.instances):
            for _key, size in dbfunc.segments(instance):
                total += size
        footprints[node.name] = total
    return footprints


def plan_footprint(plan: LeraGraph, costs: CostModel) -> int:
    """Estimated stored-data bytes of *plan*; used by the Session API
    to fail an impossible submission eagerly."""
    return sum(node_footprints(plan, costs).values())


class AdmissionController:
    """Tracks running capacity and decides who may enter, FIFO.

    The controller is deliberately order-preserving: the head of the
    queue is admitted or nobody is, so a small query can never
    starve a large one by slipping past it (no convoy re-ordering).
    """

    def __init__(self, options: WorkloadOptions, metrics=None) -> None:
        self.options = options
        self.metrics = metrics
        self.running_count = 0
        self.used_bytes = 0

    def check_admissible(self, tag: str, footprint: int) -> None:
        """Raise :class:`AdmissionError` if *footprint* can never fit."""
        limit = self.options.memory_limit_bytes
        if limit is not None and footprint > limit:
            raise AdmissionError(
                f"query {tag!r} needs {footprint} bytes but the workload "
                f"memory limit is {limit}; it can never be admitted")

    def fits(self, footprint: int) -> bool:
        """Would a query with *footprint* fit right now?"""
        if self.running_count >= self.options.max_concurrent:
            return False
        limit = self.options.memory_limit_bytes
        if limit is not None and self.used_bytes + footprint > limit:
            return False
        return True

    def fits_memory(self, footprint: int) -> bool:
        """Would *footprint* fit the memory gate alone, ignoring the
        concurrency bound?  Brownout fold-through uses this: a fully
        folded query adds no machine work, so only memory matters."""
        limit = self.options.memory_limit_bytes
        return limit is None or self.used_bytes + footprint <= limit

    def acquire(self, footprint: int, at: float = 0.0) -> None:
        self.running_count += 1
        self.used_bytes += footprint
        self._record_usage(at)

    def release(self, footprint: int, at: float = 0.0) -> None:
        self.running_count -= 1
        self.used_bytes -= footprint
        self._record_usage(at)

    def _record_usage(self, at: float) -> None:
        if self.metrics is not None:
            from repro.obs.metrics import ADMISSION_USED_BYTES
            self.metrics.gauge(ADMISSION_USED_BYTES).set(
                at, float(self.used_bytes))
