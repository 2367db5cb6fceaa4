"""Reproduction of "Adaptive Parallel Query Execution in DBS3" (EDBT 1996).

DBS3 is a shared-memory parallel database system whose execution model
combines static data partitioning with dynamic processor allocation.
This library reimplements the whole system — Lera-par dataflow plans,
the activation-queue engine with Random/LPT consumption, the four-step
adaptive scheduler, the KSR1 Allcache machine model, the Wisconsin/Zipf
workloads — on top of a deterministic virtual-time simulator, plus the
harnesses regenerating every figure of the paper's evaluation.

Quick start::

    from repro import DBS3, generate_wisconsin

    db = DBS3(processors=72)
    db.create_table(generate_wisconsin("A", 100_000), "unique1", degree=200)
    db.create_table(generate_wisconsin("B", 10_000), "unique1", degree=200)
    result = db.query("SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
                      threads=10)
    print(result.cardinality, result.response_time)

Several queries can share the machine through a session — the
workload layer admits them into one simulation, splits the threads
across them by complexity, and re-grants threads as queries finish::

    session = db.session()
    a = session.submit("SELECT * FROM A JOIN B ON A.unique1 = B.unique1")
    b = session.submit("SELECT * FROM A WHERE unique2 < 100", at=0.5)
    print(a.result().response_time, b.result().response_time)
    print(session.result.makespan)

Everything above is the blessed import surface; reaching into
submodules is possible but not covered by the compatibility notes in
the docs.
"""

from repro.analysis import OperatorProfile, nmax, skew_overhead_bound
from repro.core import DBS3, QueryResult
from repro.engine import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    OperationSchedule,
    QueryExecution,
    QuerySchedule,
)
from repro.errors import (
    CatalogError,
    CompilationError,
    ExecutionError,
    ExecutionFaultError,
    FaultError,
    MachineError,
    PartitioningError,
    PlanError,
    QueryCancelledError,
    QueryShedError,
    QueryTimeoutError,
    ReproError,
    SchedulerError,
    SchemaError,
    WorkloadError,
)
from repro.faults import (
    ActivationFaults,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)
from repro.lera import (
    AggregateExpr,
    aggregate_plan,
    assoc_join_plan,
    attribute_predicate,
    chain_join_plan,
    filter_join_plan,
    ideal_join_plan,
    selection_plan,
)
from repro.machine import CostModel, Machine
from repro.obs import MetricsRegistry, QuerySpan, WorkloadReport
from repro.scheduler import AdaptiveScheduler, StaticScheduler
from repro.serve import (
    PoissonArrivals,
    ServingPolicy,
)
from repro.storage import (
    Catalog,
    Fragment,
    PartitioningSpec,
    Relation,
    Schema,
    generate_wisconsin,
    zipf_cardinalities,
)
from repro.workload import (
    QueryHandle,
    QuerySubmission,
    Session,
    WorkloadExecutor,
    WorkloadOptions,
    WorkloadResult,
)

__version__ = "1.0.0"

__all__ = [
    "ActivationFaults",
    "AdaptiveScheduler",
    "AggregateExpr",
    "Catalog",
    "CatalogError",
    "CompilationError",
    "CostModel",
    "DBS3",
    "ExecutionError",
    "ExecutionFaultError",
    "ExecutionOptions",
    "Executor",
    "FaultError",
    "FaultPlan",
    "Fragment",
    "Machine",
    "MemoryPressure",
    "MachineError",
    "MetricsRegistry",
    "ObservabilityOptions",
    "OperationSchedule",
    "OperatorProfile",
    "PartitioningError",
    "PartitioningSpec",
    "PlanError",
    "PoissonArrivals",
    "QueryCancelledError",
    "QueryExecution",
    "QueryHandle",
    "QueryResult",
    "QuerySchedule",
    "QueryShedError",
    "QuerySpan",
    "QuerySubmission",
    "QueryTimeoutError",
    "Relation",
    "ServingPolicy",
    "SlowdownWindow",
    "StallWindow",
    "ReproError",
    "SchedulerError",
    "Schema",
    "SchemaError",
    "Session",
    "StaticScheduler",
    "WorkloadError",
    "WorkloadExecutor",
    "WorkloadOptions",
    "WorkloadReport",
    "WorkloadResult",
    "aggregate_plan",
    "assoc_join_plan",
    "attribute_predicate",
    "chain_join_plan",
    "filter_join_plan",
    "generate_wisconsin",
    "ideal_join_plan",
    "nmax",
    "selection_plan",
    "skew_overhead_bound",
    "zipf_cardinalities",
    "__version__",
]
