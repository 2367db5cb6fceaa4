"""Experiment databases.

The paper generated over 50 Wisconsin databases whose tuple
distribution within fragments follows a Zipf law (Section 5.4): for a
degree of skew ``theta`` in [0, 1], fragment ``i`` of the skewed
relation A receives a share proportional to ``1 / i**theta``, while
the second relation B' stays uniform ("it is enough to have only one
skewed relation").

This module builds such databases *constructively*: fragment ``i``
holds exactly the join-key values congruent to ``i`` modulo the
degree, so the skewed placement is still a correct hash partitioning
(the same one the Transmit operator recomputes at run time) and joins
produce verifiable results.  The key invariant — with the paper's
cardinalities every B' key finds exactly one A partner, so the result
cardinality equals |B'| at every skew level — is what the integration
tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.catalog import Catalog, TableEntry
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.skew import zipf_cardinalities
from repro.storage.wisconsin import generate_wisconsin

#: Schema of the synthetic join relations: the join key plus a payload
#: standing in for the rest of the Wisconsin record.
JOIN_SCHEMA = Schema.of_ints("key", "payload")


def skewed_fragments(name: str, total: int, degree: int, theta: float,
                     payload_base: int = 0) -> tuple[Relation, list[Fragment]]:
    """Build one relation with Zipf-skewed fragment cardinalities.

    Fragment ``i`` receives ``zipf_cardinalities(total, degree,
    theta)[i]`` tuples whose keys are ``i, i + degree, i + 2*degree,
    ...`` — all hashing to fragment ``i`` under the engine's stable
    hash, so the placement is a legal hash partitioning.
    """
    cardinalities = zipf_cardinalities(total, degree, theta)
    fragments = []
    rows_all = []
    for i, count in enumerate(cardinalities):
        rows = [(i + degree * j, payload_base + i + degree * j)
                for j in range(count)]
        fragments.append(Fragment(name, i, JOIN_SCHEMA, rows))
        rows_all.extend(rows)
    return Relation(name, JOIN_SCHEMA, rows_all), fragments


@dataclass(frozen=True)
class JoinDatabase:
    """One experiment database: skewed A and uniform B', co-partitioned."""

    entry_a: TableEntry
    entry_b: TableEntry
    theta: float

    @property
    def degree(self) -> int:
        return self.entry_a.degree

    @property
    def expected_matches(self) -> int:
        """Join result cardinality implied by the key construction."""
        a = self.entry_a.statistics.cardinalities
        b = self.entry_b.statistics.cardinalities
        return sum(min(x, y) for x, y in zip(a, b))


def make_join_database(card_a: int, card_b: int, degree: int, theta: float,
                       catalog: Catalog | None = None,
                       name_a: str = "A", name_b: str = "B") -> JoinDatabase:
    """Build and register one skewed join database.

    A (the larger relation) is skewed with *theta*; B' stays uniform.
    Both are hash partitioned on ``key`` with the same *degree*, so
    IdealJoin applies directly and AssocJoin's Transmit re-derives the
    same placement.
    """
    if catalog is None:
        catalog = Catalog()
    relation_a, fragments_a = skewed_fragments(name_a, card_a, degree, theta)
    relation_b, fragments_b = skewed_fragments(name_b, card_b, degree, 0.0,
                                               payload_base=1_000_000_000)
    spec = PartitioningSpec.on("key", degree)
    entry_a = catalog.register_fragments(relation_a, spec, fragments_a)
    entry_b = catalog.register_fragments(relation_b, spec, fragments_b)
    return JoinDatabase(entry_a, entry_b, theta)


def make_selection_table(cardinality: int = 200_000, degree: int = 200,
                         catalog: Catalog | None = None) -> TableEntry:
    """The Figure 8 workload: a Wisconsin relation for parallel selection."""
    if catalog is None:
        catalog = Catalog()
    relation = generate_wisconsin("DewittA", cardinality, seed=7)
    return catalog.register(relation, PartitioningSpec.on("unique1", degree))
