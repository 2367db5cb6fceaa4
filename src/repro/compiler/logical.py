"""Logical query algebra.

The compiler's input representation: a tiny relational algebra
sufficient for the paper's workloads (selections, equi-joins,
projections over stored relations).  The optimizer normalizes a
logical tree and the parallelizer lowers it to a Lera-par plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompilationError


@dataclass(frozen=True)
class Comparison:
    """One ``attribute OP constant`` restriction."""

    attribute: str
    op: str
    value: object


@dataclass(frozen=True)
class LogicalScan:
    """Read one stored relation."""

    relation: str


@dataclass(frozen=True)
class LogicalFilter:
    """Conjunctive restriction over a child node."""

    child: "LogicalNode"
    comparisons: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        if not self.comparisons:
            raise CompilationError("filter needs at least one comparison")


@dataclass(frozen=True)
class LogicalJoin:
    """Equi-join of two children on one attribute pair."""

    left: "LogicalNode"
    right: "LogicalNode"
    left_key: str
    right_key: str
    algorithm: str | None = None


@dataclass(frozen=True)
class LogicalProject:
    """Column projection, applied to the final result."""

    child: "LogicalNode"
    columns: tuple[str, ...] = field(default=())
    """Empty tuple means ``SELECT *``."""


@dataclass(frozen=True)
class LogicalAggregate:
    """Grouped aggregation over a child node.

    ``select_items`` preserves the SELECT-list order: each element is
    either a bare attribute name (which must be the GROUP BY
    attribute) or an :class:`~repro.lera.aggregates.AggregateExpr`.
    """

    child: "LogicalNode"
    group_by: str | None
    select_items: tuple

    def __post_init__(self) -> None:
        from repro.lera.aggregates import AggregateExpr
        if not any(isinstance(item, AggregateExpr)
                   for item in self.select_items):
            raise CompilationError("aggregate query without aggregates")

    @property
    def aggregates(self) -> tuple:
        from repro.lera.aggregates import AggregateExpr
        return tuple(item for item in self.select_items
                     if isinstance(item, AggregateExpr))


LogicalNode = (LogicalScan | LogicalFilter | LogicalJoin | LogicalProject
               | LogicalAggregate)


def base_relations(node: LogicalNode) -> list[str]:
    """Names of the stored relations a logical tree reads."""
    if isinstance(node, LogicalScan):
        return [node.relation]
    if isinstance(node, LogicalFilter):
        return base_relations(node.child)
    if isinstance(node, LogicalProject):
        return base_relations(node.child)
    if isinstance(node, LogicalAggregate):
        return base_relations(node.child)
    if isinstance(node, LogicalJoin):
        return base_relations(node.left) + base_relations(node.right)
    raise CompilationError(f"unknown logical node {type(node).__name__}")
