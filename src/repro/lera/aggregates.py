"""Aggregate expressions and accumulators.

Lera-par's expressive power is "an extended relational algebra"; this
module provides the aggregation slice of it: COUNT/SUM/MIN/MAX/AVG
expressions, their streaming accumulators, and result-column naming.
The pipelined aggregate operator
(:class:`~repro.lera.operators.AggregateSpec`) folds one accumulator
set per group per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.storage.schema import Attribute, Schema

COUNT = "count"
SUM = "sum"
MIN = "min"
MAX = "max"
AVG = "avg"
AGGREGATE_FUNCTIONS = (COUNT, SUM, MIN, MAX, AVG)


@dataclass(frozen=True)
class AggregateExpr:
    """One aggregate in a SELECT list, e.g. ``SUM(payload)``.

    ``attribute`` is ``None`` only for ``COUNT(*)``.
    """

    function: str
    attribute: str | None = None

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"unknown aggregate {self.function!r}; "
                f"expected one of {AGGREGATE_FUNCTIONS}")
        if self.function != COUNT and self.attribute is None:
            raise PlanError(f"{self.function.upper()} requires an attribute")

    @property
    def column_name(self) -> str:
        """Result-column name, e.g. ``sum_val`` or ``count``."""
        if self.attribute is None:
            return self.function
        return f"{self.function}_{self.attribute}"

    def column_kind(self) -> str:
        """Schema kind of the result column."""
        return "int" if self.function == COUNT else "float"


class Accumulator:
    """Streaming state for one (group, aggregate) pair."""

    __slots__ = ("function", "count", "total", "low", "high")

    def __init__(self, function: str) -> None:
        self.function = function
        self.count = 0
        self.total = 0.0
        self.low: object = None
        self.high: object = None

    def add(self, value: object) -> None:
        """Fold one input value (ignored for COUNT(*) semantics)."""
        self.count += 1
        if self.function in (SUM, AVG):
            self.total += value  # type: ignore[operator]
        elif self.function == MIN:
            if self.low is None or value < self.low:  # type: ignore[operator]
                self.low = value
        elif self.function == MAX:
            if self.high is None or value > self.high:  # type: ignore[operator]
                self.high = value

    def result(self) -> object:
        """Final aggregate value (None for SUM/MIN/MAX/AVG of nothing,
        as in SQL)."""
        if self.function == COUNT:
            return self.count
        if self.function == SUM:
            return self.total if self.count else None
        if self.function == AVG:
            return self.total / self.count if self.count else None
        if self.function == MIN:
            return self.low
        return self.high


def aggregate_output_schema(group_by: str | None,
                            aggregates: tuple[AggregateExpr, ...],
                            group_kind: str = "int") -> Schema:
    """Schema of an aggregate operator's result rows."""
    attributes = []
    if group_by is not None:
        attributes.append(Attribute(group_by, group_kind))
    taken = {a.name for a in attributes}
    for expr in aggregates:
        name = expr.column_name
        suffix = 2
        while name in taken:
            name = f"{expr.column_name}_{suffix}"
            suffix += 1
        taken.add(name)
        attributes.append(Attribute(name, expr.column_kind()))
    return Schema(attributes)
