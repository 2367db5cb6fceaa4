"""Multi-query workloads: several queries in one shared simulation.

The paper's four-step scheduler stops its adaptivity story at the
query boundary.  This package lifts it
one level: an admission controller bounds how many queries run at
once, the four-step scheduler's proportional-complexity split is
applied *across* running queries ("step 0"), and — the paper's dynamic
allocation, generalized inter-query — threads freed by a completing
query are re-granted to the remaining ones mid-flight.

Public face: :class:`~repro.workload.session.Session` /
:class:`~repro.workload.session.QueryHandle`, reachable through
``DBS3.session()``.  ``db.query()`` and ``Executor.execute`` are both
one-query workloads of this engine: it is the only one there is.
"""

from repro.adapt.policy import (
    POLICIES,
    POLICY_ADAPTIVE,
    POLICY_STATIC,
    SchedulingPolicy,
)
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    WorkloadResult,
)
from repro.workload.options import WorkloadOptions
from repro.workload.session import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    REJECTED,
    SHED,
    TIMED_OUT,
    QueryHandle,
    Session,
)

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "PENDING",
    "POLICIES",
    "POLICY_ADAPTIVE",
    "POLICY_STATIC",
    "REJECTED",
    "SHED",
    "TIMED_OUT",
    "QueryHandle",
    "QuerySubmission",
    "SchedulingPolicy",
    "Session",
    "WorkloadExecutor",
    "WorkloadOptions",
    "WorkloadResult",
]
