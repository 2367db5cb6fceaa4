"""Experiment databases, runners and the three gate tables (the twin
table, the chaos table and the paper's figures)."""

from repro.bench.runners import (
    RESERVED_PROCESSORS,
    chain_ideal_time,
    chain_worst_time,
    default_machine,
    run_assoc_join,
    run_ideal_join,
    sequential_time,
)
from repro.bench.workloads import (
    JOIN_SCHEMA,
    JoinDatabase,
    make_join_database,
    make_selection_table,
    skewed_fragments,
)

__all__ = [
    "JOIN_SCHEMA",
    "JoinDatabase",
    "RESERVED_PROCESSORS",
    "chain_ideal_time",
    "chain_worst_time",
    "default_machine",
    "make_join_database",
    "make_selection_table",
    "run_assoc_join",
    "run_ideal_join",
    "sequential_time",
    "skewed_fragments",
]
