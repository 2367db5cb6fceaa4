"""Shared fixtures: small relations, catalogs and databases.

Sizes are kept small (hundreds to a few thousand tuples) so the whole
suite runs in seconds; the full paper-scale runs live in benchmarks/.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.bench.workloads import make_join_database
from repro.machine.machine import Machine
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.wisconsin import generate_wisconsin

#: Hypothesis profiles.  ``tier1`` (the default) derandomizes every
#: property, so tier-1 draws the same examples on every run; a property
#: without its own ``max_examples`` (the lattice of
#: ``tests/properties/test_lattice.py``) draws this many.  ``fuzz``
#: (``make fuzz``: ``--hypothesis-profile=fuzz``) draws fresh random
#: examples, thousands of them.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=100,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "fuzz", max_examples=2_000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tier1")


@pytest.fixture
def small_schema() -> Schema:
    return Schema.of_ints("key", "payload")


@pytest.fixture
def small_relation(small_schema) -> Relation:
    rows = [(i, i * 10) for i in range(100)]
    return Relation("R", small_schema, rows)


@pytest.fixture
def wisconsin_1k() -> Relation:
    return generate_wisconsin("W", 1000, seed=42)


@pytest.fixture
def catalog() -> Catalog:
    return Catalog()


@pytest.fixture
def join_db():
    """A small, unskewed join database (A=2000, B=200, degree=20)."""
    return make_join_database(2000, 200, degree=20, theta=0.0)


@pytest.fixture
def skewed_join_db():
    """A small, highly skewed join database (Zipf = 1)."""
    return make_join_database(2000, 200, degree=20, theta=1.0)


@pytest.fixture
def uniform_machine() -> Machine:
    return Machine.uniform(processors=16)


@pytest.fixture
def ksr1_machine() -> Machine:
    return Machine.ksr1(processors=16)
