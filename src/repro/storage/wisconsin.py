"""Wisconsin benchmark relations [Bitton83].

All paper experiments use Wisconsin relations (``DewittA`` etc.), so
the generator here reproduces the classic schema: two uniformly
distributed unique attributes, a ladder of modulo attributes with known
selectivities, and (optionally) the three 52-byte string attributes.

``unique1`` is a pseudo-random permutation of ``0..n-1`` (so selections
on it are uniformly spread over the relation) and ``unique2`` is
sequential, exactly as in the original benchmark definition.
"""

from __future__ import annotations

import random

from repro.errors import SchemaError
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema

#: Integer attributes of the Wisconsin schema, in order.
WISCONSIN_INT_ATTRIBUTES = (
    "unique1", "unique2", "two", "four", "ten", "twenty",
    "onePercent", "tenPercent", "twentyPercent", "fiftyPercent",
    "unique3", "evenOnePercent", "oddOnePercent",
)

#: String attributes (optional — they triple the memory footprint).
WISCONSIN_STRING_ATTRIBUTES = ("stringu1", "stringu2", "string4")

_STRING4_CYCLE = ("AAAA", "HHHH", "OOOO", "VVVV")


def wisconsin_schema(with_strings: bool = False) -> Schema:
    """The Wisconsin benchmark schema.

    Args:
        with_strings: Include the three 52-byte string attributes.
    """
    attributes = [Attribute(name, "int") for name in WISCONSIN_INT_ATTRIBUTES]
    if with_strings:
        attributes += [Attribute(name, "str") for name in WISCONSIN_STRING_ATTRIBUTES]
    return Schema(attributes)


#: The Wisconsin 'stringu' encoding: base-26 digits, padded length.
STRINGU_DIGITS = 7
STRINGU_LENGTH = 52


def _unique_string(value: int) -> str:
    """The Wisconsin 'stringu' encoding: value in base 26, A-padded."""
    letters = []
    v = value
    for _ in range(STRINGU_DIGITS):
        letters.append(chr(ord("A") + v % 26))
        v //= 26
    body = "".join(reversed(letters))
    return body + "x" * (STRINGU_LENGTH - len(body))


def generate_wisconsin(name: str, cardinality: int, seed: int = 0,
                       with_strings: bool = False) -> Relation:
    """Generate one Wisconsin relation of the given cardinality.

    Args:
        name: Relation name (e.g. ``"DewittA"``).
        cardinality: Number of tuples; must be >= 0.
        seed: Seed for the ``unique1`` permutation, making databases
            reproducible.
        with_strings: Also populate the string attributes.

    Returns:
        A :class:`Relation` following the Wisconsin value rules:
        ``two = unique1 % 2``, ``onePercent = unique1 % (n/100)`` etc.
    """
    if cardinality < 0:
        raise SchemaError(f"cardinality must be >= 0, got {cardinality}")
    rng = random.Random(seed)
    unique1 = list(range(cardinality))
    rng.shuffle(unique1)
    rows = []
    for unique2 in range(cardinality):
        u1 = unique1[unique2]
        # The percentage attributes use the benchmark's fixed modulo
        # bases: each onePercent value selects 1% of the tuples, each
        # tenPercent value 10%, and so on.
        row = (
            u1, unique2,
            u1 % 2, u1 % 4, u1 % 10, u1 % 20,
            u1 % 100, u1 % 10, u1 % 5, u1 % 2,
            u1, (u1 % 100) * 2, (u1 % 100) * 2 + 1,
        )
        if with_strings:
            row = row + (_unique_string(u1), _unique_string(unique2),
                         _STRING4_CYCLE[unique2 % 4])
        rows.append(row)
    return Relation(name, wisconsin_schema(with_strings), rows)
