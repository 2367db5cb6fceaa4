"""Query results returned by the :class:`~repro.core.database.DBS3` facade."""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.metrics import QueryExecution
from repro.storage.schema import Schema
from repro.storage.tuples import Row


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the execution's full metrics.

    Attributes:
        rows: Result rows, shaped by the SELECT list.
        schema: Schema of those rows.
        execution: Engine metrics (virtual response time, per-operation
            profiles, start-up time, ...).
        description: Human-readable plan summary, e.g.
            ``"IdealJoin(A.unique1 = B.unique1, nested_loop)"``.
    """

    rows: list[Row]
    schema: Schema
    execution: QueryExecution
    description: str

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def response_time(self) -> float:
        """Virtual response time in seconds (what the paper plots)."""
        return self.execution.response_time

    def head(self, count: int = 10) -> list[Row]:
        """The first *count* rows (stable order is not guaranteed —
        parallel execution interleaves instance outputs)."""
        return self.rows[:count]

    def __repr__(self) -> str:
        return (f"QueryResult(|rows|={len(self.rows)}, "
                f"response={self.response_time:.3f}s, {self.description})")
