"""The shared-memory parallel execution engine (virtual-time simulated)."""

from repro.engine.dbfuncs import (
    DBFunc,
    ExecContext,
    FilterFunc,
    JoinFunc,
    PipelinedJoinFunc,
    ProcessResult,
    TransmitFunc,
    make_dbfunc,
)
from repro.engine.executor import (
    DEFAULT_PIPELINED_CACHE,
    DEFAULT_TRIGGERED_CACHE,
    PLACEMENT_COLD,
    PLACEMENT_WARM,
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.metrics import OperationMetrics, QueryExecution
from repro.engine.operation import OperationRuntime
from repro.engine.queues import ActivationQueue
from repro.engine.simulator import Simulator
from repro.engine.strategies import (
    LPT,
    RANDOM,
    STRATEGIES,
    LPTStrategy,
    RandomStrategy,
    make_strategy,
)
from repro.engine.threads import WorkerThread
from repro.engine.trace import ExecutionTrace, TraceEvent

__all__ = [
    "ActivationQueue",
    "ExecutionTrace",
    "DBFunc",
    "DEFAULT_PIPELINED_CACHE",
    "DEFAULT_TRIGGERED_CACHE",
    "ExecContext",
    "ExecutionOptions",
    "Executor",
    "FilterFunc",
    "JoinFunc",
    "LPT",
    "LPTStrategy",
    "ObservabilityOptions",
    "OperationMetrics",
    "OperationRuntime",
    "OperationSchedule",
    "PLACEMENT_COLD",
    "PLACEMENT_WARM",
    "PipelinedJoinFunc",
    "ProcessResult",
    "QueryExecution",
    "QuerySchedule",
    "RANDOM",
    "RandomStrategy",
    "STRATEGIES",
    "Simulator",
    "TransmitFunc",
    "TraceEvent",
    "WorkerThread",
    "make_dbfunc",
    "make_strategy",
]
