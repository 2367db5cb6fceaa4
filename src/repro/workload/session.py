"""The Session API: the blessed way to run queries, one or many.

A :class:`Session` collects query submissions — each with an optional
virtual-time arrival offset — and executes them all in one shared
simulation when :meth:`Session.run` is called (or lazily, the first
time any handle's :meth:`QueryHandle.result` is asked for).

    >>> session = db.session()
    >>> h1 = session.submit("SELECT * FROM A JOIN B ON ...")
    >>> h2 = session.submit("SELECT * FROM C JOIN D ON ...", at=5.0)
    >>> h1.result().cardinality        # drives the whole workload
    >>> h2.execution.response_time     # includes its admission wait

``db.query()`` is a thin wrapper over a one-query session, and so is
``Executor.execute``: one engine runs a query, whatever the front door.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.compiler.parallelizer import CompiledQuery
from repro.core.results import QueryResult
from repro.engine.executor import QuerySchedule
from repro.engine.metrics import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    QueryExecution,
)
from repro.errors import (
    ExecutionFaultError,
    QueryCancelledError,
    QueryShedError,
    QueryTimeoutError,
    WorkloadError,
)
from repro.lera.graph import LeraGraph
from repro.lera.operators import JOIN_NESTED_LOOP
from repro.storage.schema import Schema
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    WorkloadResult,
)
from repro.workload.options import WorkloadOptions

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.database import DBS3

#: Handle states.  The terminal ones mirror the execution statuses.
PENDING = "pending"
DONE = "done"
FAILED = "failed"
CANCELLED = STATUS_CANCELLED
TIMED_OUT = STATUS_TIMED_OUT
SHED = STATUS_SHED


class QueryHandle:
    """One submitted query's future result."""

    def __init__(self, session: Session, submission: QuerySubmission) -> None:
        self._session = session
        self.tag = submission.tag
        self.compiled = submission.compiled
        self.schedule = submission.schedule
        """The four-step schedule computed for this query at submit
        time (its per-operation thread demands; step 0 may rescale
        them when other queries run concurrently)."""
        self.arrival = submission.arrival
        self.timeout = submission.timeout
        self.priority = submission.priority
        self.tenant = submission.tenant

    def __repr__(self) -> str:
        return (f"QueryHandle(tag={self.tag!r}, at={self.arrival}, "
                f"status={self.status!r})")

    def cancel(self, at: float | None = None) -> None:
        """Schedule this query's cancellation at virtual time *at*.

        With ``at=None`` the query is cancelled at its own arrival
        instant — it is withdrawn before admission and never runs.
        The simulation is virtual-time, so cancellation is scheduled
        *before* :meth:`Session.run`, not raced against it; cancelling
        after the workload ran is an error.
        """
        session = self._session
        if session.result is not None:
            raise WorkloadError(
                f"cannot cancel {self.tag!r}: the workload already ran")
        session._submissions[self.tag] = replace(
            session._submissions[self.tag],
            cancel_at=self.arrival if at is None else at)

    @property
    def status(self) -> str:
        """``pending`` before the workload ran; afterwards the query's
        terminal status: ``done`` / ``cancelled`` / ``timed_out`` /
        ``failed`` — or, under a bounded serving queue, ``shed`` for
        queries the overload-protection layer turned away before
        admission."""
        return self._session._status_of(self.tag)

    @property
    def execution(self) -> QueryExecution:
        """Execution metrics; drives the workload if it has not run.

        Available for *every* terminal status — a cancelled or failed
        query exposes its partial metrics here even though
        :meth:`result` raises."""
        return self._session.run().execution(self.tag)

    def result(self) -> QueryResult:
        """The query's relational result; drives the workload if it
        has not run yet (so ``result()`` before completion simply
        executes everything submitted so far).

        Raises :class:`~repro.errors.QueryCancelledError` /
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.ExecutionFaultError` when the query did
        not run to completion — a partial result set must never be
        mistaken for the real one (inspect :attr:`execution` instead).
        """
        execution = self.execution
        if execution.status == STATUS_TIMED_OUT:
            raise QueryTimeoutError(
                f"query {self.tag!r} timed out after {self.timeout} virtual "
                f"seconds; partial metrics are on handle.execution")
        if execution.status == STATUS_CANCELLED:
            raise QueryCancelledError(
                f"query {self.tag!r} was cancelled; partial metrics are on "
                f"handle.execution")
        if execution.status == STATUS_FAILED:
            message = self._session.run().errors.get(
                self.tag, "activation retries exhausted")
            raise ExecutionFaultError(
                f"query {self.tag!r} aborted: {message}")
        if execution.status == STATUS_SHED:
            raise QueryShedError(
                f"query {self.tag!r} was load-shed before admission; "
                f"resubmit when the system is less loaded")
        rows = self.compiled.shape_rows(execution.result_rows)
        return QueryResult(
            rows=rows,
            schema=self.compiled.final_schema,
            execution=execution,
            description=self.compiled.description,
        )

    @property
    def span(self):
        """This query's :class:`~repro.obs.spans.QuerySpan`; drives the
        workload if it has not run.  Requires workload observability
        (``WorkloadOptions(observability=...)`` or per-query
        ``observe``) — raises :class:`~repro.errors.WorkloadError`
        otherwise, the telemetry twin of :attr:`execution`.
        """
        result = self._session.run()
        if result.spans is None:
            raise WorkloadError(
                f"no span for {self.tag!r}: the workload ran without "
                f"observability; enable WorkloadOptions(observability="
                f"ObservabilityOptions(observe=True))")
        return result.spans.of(self.tag)


class Session:
    """A batch of queries destined for one shared simulation.

    Obtained from :meth:`repro.core.database.DBS3.session`.  Submissions
    accumulate; :meth:`run` executes them all at once (virtual arrival
    offsets stagger them inside the simulation, not in wall time) and
    is idempotent — every handle shares the one
    :class:`~repro.workload.engine.WorkloadResult`.
    """

    def __init__(self, db: DBS3, options: WorkloadOptions | None = None) -> None:
        self.db = db
        self.options = options or WorkloadOptions()
        #: What :meth:`run` executes, by tag.  The session keeps the
        #: submissions, not the handles, which point at the session.
        self._submissions: dict[str, QuerySubmission] = {}
        self._result: WorkloadResult | None = None
        self._failed: Exception | None = None

    def __repr__(self) -> str:
        state = ("failed" if self._failed is not None
                 else "done" if self._result is not None
                 else "pending")
        return f"Session(queries={len(self._submissions)}, state={state!r})"

    # -- submission ------------------------------------------------------------

    def submit(self, sql: str, at: float = 0.0, threads: int | None = None,
               algorithm: str = JOIN_NESTED_LOOP,
               schedule: QuerySchedule | None = None,
               tag: str | None = None,
               timeout: float | None = None,
               priority: int = 0,
               tenant: str = "default") -> QueryHandle:
        """Compile *sql* and queue it for execution at offset *at*."""
        compiled, schedule = self.db.prepare(sql, threads, algorithm, schedule)
        return self.submit_compiled(compiled, at=at, schedule=schedule,
                                    tag=tag, timeout=timeout,
                                    priority=priority, tenant=tenant)

    def submit_plan(self, plan: LeraGraph, output_schema: Schema,
                    threads: int | None = None,
                    schedule: QuerySchedule | None = None,
                    tag: str | None = None) -> QueryHandle:
        """Queue a hand-built Lera-par plan, arriving at 0."""
        compiled = CompiledQuery(plan, output_schema, None, "custom plan")
        return self.submit_compiled(compiled, threads=threads,
                                    schedule=schedule, tag=tag)

    def submit_compiled(self, compiled: CompiledQuery, at: float = 0.0,
                        threads: int | None = None,
                        schedule: QuerySchedule | None = None,
                        tag: str | None = None,
                        timeout: float | None = None,
                        priority: int = 0,
                        tenant: str = "default") -> QueryHandle:
        """Queue an already-compiled query.

        The schedule is computed here (submit time), so
        ``handle.schedule`` is inspectable before the workload runs.
        ``timeout`` (virtual seconds after arrival) bounds the query's
        time on the machine; see :meth:`QueryHandle.cancel` for
        explicit cancellation.
        """
        if self._result is not None or self._failed is not None:
            raise WorkloadError(
                "session already ran; open a new session to submit more "
                "queries")
        if tag is None:
            tag = f"q{len(self._submissions)}"
        if tag in self._submissions:
            raise WorkloadError(f"duplicate query tag {tag!r} in session")
        compiled.plan.validate()
        if schedule is None:
            schedule = self.db.scheduler.schedule(compiled.plan, threads)
        # QuerySubmission validates the arrival offset, timeout and
        # serving attributes; building it here keeps bad values from
        # surfacing only at run().
        submission = QuerySubmission(tag, compiled, schedule, at,
                                     timeout=timeout, priority=priority,
                                     tenant=tenant)
        self._submissions[tag] = submission
        return QueryHandle(self, submission)

    # -- execution -------------------------------------------------------------

    def run(self) -> WorkloadResult:
        """Execute every submitted query in one shared simulation.

        Idempotent: the first call runs the workload, later calls
        (and every handle's ``result()``) return the same
        :class:`~repro.workload.engine.WorkloadResult`.  An empty
        session yields an empty result.
        """
        if self._failed is not None:
            raise WorkloadError(
                f"session already failed: {self._failed}") from self._failed
        if self._result is not None:
            return self._result
        executor = WorkloadExecutor(self.db.machine, self.db.executor.options,
                                    self.options)
        try:
            self._result = executor.execute(list(self._submissions.values()))
        except Exception as error:
            self._failed = error
            raise
        return self._result

    @property
    def result(self) -> WorkloadResult | None:
        """The workload result, or ``None`` before :meth:`run`."""
        return self._result

    def metrics(self):
        """The run's :class:`~repro.obs.metrics.MetricsRegistry`;
        drives the workload if it has not run.  Raises
        :class:`WorkloadError` when the run was not observed.
        """
        registry = self.run().metrics
        if registry is None:
            raise WorkloadError(
                "no metrics: the workload ran without observability; "
                "enable WorkloadOptions(observability="
                "ObservabilityOptions(observe=True))")
        return registry

    def alerts(self):
        """The run's :class:`~repro.obs.alerts.AlertBus`; drives the
        workload if it has not run.  Raises :class:`WorkloadError`
        when no monitor rules were installed.
        """
        bus = self.run().alerts
        if bus is None:
            raise WorkloadError(
                "no alerts: the workload ran without monitor rules; "
                "enable WorkloadOptions(observability="
                "ObservabilityOptions(monitors=default_monitors()))")
        return bus

    def report(self):
        """The run's :class:`~repro.obs.report.WorkloadReport`; drives
        the workload if it has not run (requires observability)."""
        return self.run().report()

    # -- handle support --------------------------------------------------------

    def _status_of(self, tag: str) -> str:
        if self._failed is not None:
            return FAILED
        if self._result is None:
            return PENDING
        return self._result.execution(tag).status
