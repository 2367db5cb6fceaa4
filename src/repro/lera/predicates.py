"""Selection predicates with cardinality estimates.

A :class:`Predicate` wraps a row-level boolean function together with
a human-readable description and an optional selectivity estimate used
by the scheduler's complexity estimation.  Operators filter a whole
fragment at once through :meth:`Predicate.select`; the compiled forms
(:func:`attribute_predicate`, :func:`conjunction`, :data:`TRUE`) do it
without a Python frame per row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Callable, Sequence

from repro.errors import CompilationError
from repro.storage.schema import Schema
from repro.storage.tuples import Row

_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
}


@dataclass(frozen=True)
class Predicate:
    """A row-level filter with metadata.

    Attributes:
        description: Display form, e.g. ``"unique1 < 1000"``.
        fn: The compiled row -> bool function.
        selectivity: Estimated fraction of rows passing, in [0, 1];
            ``None`` when unknown (the scheduler then assumes 1.0 for
            complexity and output-size purposes).
        batch: The set-at-a-time form of ``fn`` behind :meth:`select`;
            ``None`` (a user-built predicate) falls back to
            ``filter(fn, rows)``.
    """

    description: str
    fn: Callable[[Row], bool] = field(compare=False)
    selectivity: float | None = None
    batch: Callable[[Sequence[Row]], list[Row]] | None = field(
        default=None, compare=False, repr=False)

    def __call__(self, row: Row) -> bool:
        return self.fn(row)

    def select(self, rows: Sequence[Row]) -> list[Row]:
        """The rows of *rows* that pass, in order, as a new list."""
        batch = self.batch
        return list(filter(self.fn, rows)) if batch is None else batch(rows)


#: Accepts every row — scanning without filtering (a copy of the rows).
TRUE = Predicate("true", lambda row: True, selectivity=1.0, batch=list)


def attribute_predicate(schema: Schema, attribute: str, op: str,
                        value: object, selectivity: float | None = None) -> Predicate:
    """Compile ``attribute OP constant`` into a fast closure.

    The attribute is resolved to a tuple position once, so evaluation
    is a single indexed comparison per row; the batch form maps the
    comparator over the column in C and keeps the rows it accepts.
    """
    comparator = _COMPARATORS.get(op)
    if comparator is None:
        raise CompilationError(
            f"unknown comparison operator {op!r}; expected one of "
            f"{sorted(_COMPARATORS)}")
    position = schema.position(attribute)
    column = operator.itemgetter(position)

    def evaluate(row: Row) -> bool:
        return comparator(row[position], value)

    def select(rows: Sequence[Row]) -> list[Row]:
        return list(compress(rows, map(comparator, map(column, rows),
                                       repeat(value))))

    return Predicate(f"{attribute} {op} {value!r}", evaluate, selectivity,
                     select)


def conjunction(*predicates: Predicate) -> Predicate:
    """AND-combine predicates; selectivities multiply when all known.

    The batch form applies the parts one after another, each to the
    rows the previous ones kept — the short circuit of ``all()``.
    """
    if not predicates:
        return TRUE
    if len(predicates) == 1:
        return predicates[0]
    selectivity: float | None = 1.0
    for p in predicates:
        if p.selectivity is None:
            selectivity = None
            break
        selectivity *= p.selectivity
    fns = tuple(p.fn for p in predicates)

    def evaluate(row: Row) -> bool:
        return all(fn(row) for fn in fns)

    def select(rows: Sequence[Row]) -> list[Row]:
        for part in predicates:
            rows = part.select(rows)
        return rows

    description = " AND ".join(p.description for p in predicates)
    return Predicate(description, evaluate, selectivity, select)
