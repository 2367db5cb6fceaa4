"""Loading and saving relations (CSV).

A small, dependency-free data-interchange layer: relations round-trip
through CSV with a header row, with values converted according to the
schema's attribute kinds (``int`` / ``float`` / ``str``).  When no
schema is given on load, kinds are inferred from the first data row.
"""

from __future__ import annotations

import csv
import pathlib

from repro.errors import SchemaError
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema

_CONVERTERS = {
    "int": int,
    "float": float,
    "str": str,
}

def relation_to_csv(relation: Relation, path: str | pathlib.Path) -> None:
    """Write *relation* to *path* as CSV with a header row."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.schema.names)
        writer.writerows(relation.rows)


def _infer_schema(names: list[str], first_row: list[str]) -> Schema:
    attributes = []
    for name, value in zip(names, first_row):
        kind = "str"
        try:
            int(value)
            kind = "int"
        except ValueError:
            try:
                float(value)
                kind = "float"
            except ValueError:
                pass
        attributes.append(Attribute(name, kind))
    return Schema(attributes)


def relation_from_csv(name: str, path: str | pathlib.Path,
                      schema: Schema | None = None) -> Relation:
    """Load a relation from a CSV file with a header row.

    Args:
        name: Name for the loaded relation.
        path: CSV file; the first row must be the attribute names.
        schema: Expected schema; values are converted to its attribute
            kinds.  ``None`` infers kinds from the first data row
            (columns of an empty file default to ``str``).

    Raises:
        SchemaError: On a missing header, a header/schema mismatch, or
            a value that does not convert to its attribute kind.
    """
    path = pathlib.Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") \
                from None
        raw_rows = list(reader)

    if schema is None:
        if raw_rows:
            schema = _infer_schema(header, raw_rows[0])
        else:
            schema = Schema(Attribute(name_, "str") for name_ in header)
    elif tuple(header) != schema.names:
        raise SchemaError(
            f"{path}: header {tuple(header)} does not match schema "
            f"{schema.names}")

    converters = [_CONVERTERS[attribute.kind] for attribute in schema]
    rows = []
    for line_number, raw in enumerate(raw_rows, start=2):
        if len(raw) != len(schema):
            raise SchemaError(
                f"{path}:{line_number}: {len(raw)} values for "
                f"{len(schema)} attributes")
        try:
            rows.append(tuple(convert(value)
                              for convert, value in zip(converters, raw)))
        except ValueError as error:
            raise SchemaError(f"{path}:{line_number}: {error}") from None
    return Relation(name, schema, rows)
