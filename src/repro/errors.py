"""Exception hierarchy for the DBS3 reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the more
specific subclasses below; nothing in the library raises bare
``ValueError``/``KeyError`` for domain-level failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class PartitioningError(ReproError):
    """Invalid partitioning specification or incompatible fragmentation."""


class CatalogError(ReproError):
    """A catalog lookup failed or a registration conflicts."""


class PlanError(ReproError):
    """A Lera-par plan is structurally invalid."""


class ExecutionError(ReproError):
    """The parallel execution engine hit an unrecoverable condition."""


class SchedulerError(ReproError):
    """The adaptive scheduler was given an unsatisfiable configuration."""


class CompilationError(ReproError):
    """A query could not be parsed, optimized, or parallelized."""


class MachineError(ReproError):
    """Invalid machine model configuration."""


class WorkloadError(ReproError):
    """A multi-query workload is misconfigured or cannot make progress."""


class QueryShedError(WorkloadError):
    """The result of a load-shed query was requested.

    Overload protection dropped the query before it ran (bounded wait
    queue or deadline infeasibility); its terminal status is ``shed``
    and asking for its result raises this (inspect
    ``handle.execution`` instead).
    """


class FaultError(ReproError):
    """A fault plan is malformed (and the base of a query aborted by
    an injected fault)."""


class ExecutionFaultError(FaultError):
    """An activation exhausted its retries; the query aborted."""


class QueryCancelledError(WorkloadError):
    """The result of a cancelled query was requested."""


class QueryTimeoutError(QueryCancelledError):
    """A query exceeded its submission timeout and was cancelled."""
