"""The DBS3 facade: catalog + compiler + scheduler + engine in one API.

This is the library's front door.  A downstream user creates a
:class:`DBS3` instance, registers partitioned relations, and runs SQL
or pre-built Lera-par plans; the adaptive scheduler picks thread
counts and strategies unless overridden.

Example:
    >>> from repro import DBS3, generate_wisconsin
    >>> db = DBS3(processors=72)
    >>> db.create_table(generate_wisconsin("A", 10_000), "unique1", degree=50)
    >>> db.create_table(generate_wisconsin("B", 1_000), "unique1", degree=50)
    >>> result = db.query("SELECT * FROM A JOIN B ON A.unique1 = B.unique1")
    >>> result.cardinality
    1000
"""

from __future__ import annotations

from repro.compiler.optimizer import normalize
from repro.compiler.parallelizer import CompiledQuery, parallelize
from repro.compiler.parser import lift, parse_tokens
from repro.core.results import QueryResult
from repro.engine.executor import ExecutionOptions, Executor, QuerySchedule
from repro.lera.graph import LeraGraph
from repro.lera.operators import JOIN_NESTED_LOOP
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.storage.catalog import Catalog, TableEntry
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.workload.options import WorkloadOptions
from repro.workload.session import Session


#: Statement templates a :class:`DBS3` remembers, oldest forgotten first.
STATEMENT_MEMO_LIMIT = 256


class DBS3:
    """A shared-memory parallel database system instance.

    Args:
        machine: Machine model; defaults to a uniform 72-processor
            shared-memory machine.  Pass :meth:`Machine.ksr1` for the
            Allcache memory model.
        processors: Shortcut to build a default machine with this many
            processors (ignored when *machine* is given).
        disks: Simulated disk count for round-robin placement.
        options: Executor options (placement policy, queue capacity,
            RNG seed).
        skew_threshold: Pmax/P ratio beyond which the scheduler picks
            LPT for triggered operators.
    """

    def __init__(self, machine: Machine | None = None, processors: int = 72,
                 disks: int = 8, options: ExecutionOptions | None = None,
                 skew_threshold: float = 1.5) -> None:
        self.machine = machine or Machine.uniform(processors=processors)
        self.catalog = Catalog(disk_count=disks)
        self.scheduler = AdaptiveScheduler(self.machine,
                                           skew_threshold=skew_threshold)
        self.executor = Executor(self.machine, options)
        #: Statement memo: templates and schedules (see _statement, prepare).
        self._statements: dict[tuple, object] = {}

    # -- data definition ---------------------------------------------------------

    def create_table(self, relation: Relation, partition_key: str,
                     degree: int) -> TableEntry:
        """Register a relation, hash partitioned on *partition_key*.

        The degree of partitioning is independent of both the disk
        count and any later degree of parallelism.
        """
        spec = PartitioningSpec.on(partition_key, degree)
        return self.catalog.register(relation, spec)

    def create_table_from_fragments(self, relation: Relation,
                                    partition_key: str,
                                    fragments: list[Fragment]) -> TableEntry:
        """Register pre-built fragments (skew-controlled databases)."""
        spec = PartitioningSpec.on(partition_key, len(fragments))
        return self.catalog.register_fragments(relation, spec, fragments)

    def create_index(self, table: str, attribute: str,
                     kind: str = "hash") -> None:
        """Build a permanent per-fragment index.

        Equality selections on the indexed attribute then compile to
        index probes instead of fragment scans.
        """
        self.catalog.entry(table).create_index(attribute, kind)

    def drop_table(self, name: str) -> None:
        """Remove a relation from the catalog."""
        self.catalog.drop(name)

    def table(self, name: str) -> TableEntry:
        """Look up a registered relation."""
        return self.catalog.entry(name)

    # -- querying ------------------------------------------------------------------

    def compile(self, sql: str,
                algorithm: str = JOIN_NESTED_LOOP) -> CompiledQuery:
        """Parse + optimize + parallelize without executing."""
        return self._statement(sql, algorithm)[0]

    def _memo(self, key: tuple, compute):
        """``compute()``, remembered under *key* up to the limit."""
        value = self._statements.get(key)
        if value is None:
            value = compute()
            if len(self._statements) >= STATEMENT_MEMO_LIMIT:
                del self._statements[next(iter(self._statements))]
            self._statements[key] = value
        return value

    def _statement(self, sql: str, algorithm: str) -> tuple[CompiledQuery, tuple]:
        """*sql* compiled from the normalized template that statements
        differing only in literals share (every statement still gets a
        fresh plan from ``parallelize``), and that template's memo key."""
        tokens, key, literals = lift(sql)
        key = key, algorithm, self.catalog.version
        template = self._memo(
            key, lambda: normalize(parse_tokens(tokens), self.catalog))
        compiled = parallelize(template.bind(literals), self.catalog, algorithm)
        return compiled, key

    def prepare(self, sql: str, threads: int | None = None,
                algorithm: str = JOIN_NESTED_LOOP,
                schedule: QuerySchedule | None = None
                ) -> tuple[CompiledQuery, QuerySchedule]:
        """Compile *sql* and, unless *schedule* is given, schedule it — once
        per (template, *threads*): the scheduler reads no literal."""
        compiled, key = self._statement(sql, algorithm)
        if schedule is None:
            schedule = self._memo((key, threads), lambda: (
                self.scheduler.schedule(compiled.plan, threads)))
        return compiled, schedule

    def session(self, options: WorkloadOptions | None = None) -> Session:
        """Open a multi-query session.

        Queries submitted to the session (each with an optional
        virtual-time arrival offset) execute concurrently in one
        shared simulation: admission control bounds the
        multiprogramming level, the scheduler's proportional-
        complexity split divides the machine's threads across running
        queries, and threads freed by a completing query are
        re-granted to the rest mid-flight.
        """
        return Session(self, options)

    def query(self, sql: str, threads: int | None = None,
              algorithm: str = JOIN_NESTED_LOOP,
              schedule: QuerySchedule | None = None) -> QueryResult:
        """Run one SQL query end to end.

        A thin wrapper over a one-query :meth:`session`, the same
        run ``Executor.execute`` makes for a bare plan.

        Args:
            sql: The query text (see :mod:`repro.compiler.parser` for
                the supported subset).
            threads: Fix the query's degree of parallelism; ``None``
                lets scheduler step 1 choose from estimated complexity.
            algorithm: Default join algorithm (``nested_loop``,
                ``temp_index`` or ``hash``).
            schedule: Bypass the adaptive scheduler entirely.
        """
        return self.session().submit(sql, threads=threads, algorithm=algorithm,
                                     schedule=schedule).result()

    def execute_plan(self, plan: LeraGraph, output_schema: Schema,
                     threads: int | None = None,
                     schedule: QuerySchedule | None = None,
                     description: str = "custom plan") -> QueryResult:
        """Run a hand-built Lera-par plan through scheduler + engine."""
        return self.session().submit_plan(
            plan, output_schema, threads=threads, schedule=schedule,
            description=description).result()

    # -- introspection ----------------------------------------------------------------

    def tables(self) -> list[str]:
        """Names of all registered relations."""
        return [entry.name for entry in self.catalog]

    def explain(self, sql: str, algorithm: str = JOIN_NESTED_LOOP,
                threads: int | None = None, extended: bool = False) -> str:
        """Plan summary plus the schedule the adaptive scheduler picks.

        With *extended*, appends Figure 1's extended view (one line per
        operator instance).
        """
        from repro.lera.render import render as render_plan
        compiled, schedule = self.prepare(sql, threads, algorithm)
        lines = [compiled.description]
        for node in compiled.plan.nodes:
            op = schedule.of(node.name)
            lines.append(
                f"  {node.name}: {node.trigger_mode}, x{node.instances} "
                f"instances, {op.threads} threads, strategy={op.strategy}")
        lines.append(render_plan(compiled.plan, extended=extended))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"DBS3(processors={self.machine.processors}, "
                f"tables={self.tables()})")
