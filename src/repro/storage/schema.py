"""Relation schemas.

A :class:`Schema` is an ordered list of named, typed attributes.  Rows
are plain Python tuples whose positions match the schema; the schema is
the single source of truth for attribute-name to position resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError

#: Attribute kinds understood by the storage layer.
ATTRIBUTE_KINDS = ("int", "float", "str")


@dataclass(frozen=True)
class Attribute:
    """A single named, typed column of a relation."""

    name: str
    kind: str = "int"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind not in ATTRIBUTE_KINDS:
            raise SchemaError(
                f"unknown attribute kind {self.kind!r}; "
                f"expected one of {ATTRIBUTE_KINDS}"
            )

    def renamed(self, name: str) -> "Attribute":
        """Return a copy of this attribute under a new name."""
        return Attribute(name, self.kind)


class Schema:
    """An ordered, immutable collection of :class:`Attribute`.

    Supports position lookup by name, projection, and concatenation
    (for join outputs).  Duplicate attribute names are rejected so that
    name resolution is always unambiguous.
    """

    __slots__ = ("_attributes", "_positions")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        positions: dict[str, int] = {}
        for index, attribute in enumerate(self._attributes):
            if attribute.name in positions:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            positions[attribute.name] = index
        self._positions = positions

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of_ints(cls, *names: str) -> "Schema":
        """Build a schema of integer attributes from bare names."""
        return cls(Attribute(name, "int") for name in names)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self._attributes[index]

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}:{a.kind}" for a in self._attributes)
        return f"Schema({inner})"

    # -- name resolution ------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return tuple(a.name for a in self._attributes)

    def position(self, name: str) -> int:
        """Return the tuple position of attribute *name*.

        Raises :class:`SchemaError` when the attribute does not exist.
        """
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {self.names}"
            ) from None

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        """Resolve several attribute names to positions at once."""
        return tuple(self.position(name) for name in names)

    # -- derivation -----------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to *names*, in the given order."""
        return Schema(self._attributes[self.position(name)] for name in names)

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas, as produced by a join.

        A right-hand name colliding with one already taken gets a
        numeric suffix (``name_2``, ``name_3``, ...) so join outputs
        are always well-formed.
        """
        left = list(self)
        taken = {a.name for a in left}
        resolved = []
        for attribute in other:
            name = attribute.name
            suffix = 2
            while name in taken:
                name = f"{attribute.name}_{suffix}"
                suffix += 1
            taken.add(name)
            resolved.append(attribute.renamed(name))
        return Schema(left + resolved)
