"""Query compiler: SQL subset -> logical algebra -> Lera-par plan."""

from repro.compiler.logical import (
    Comparison,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    base_relations,
)
from repro.compiler.optimizer import (
    EQ_SELECTIVITY,
    NEQ_SELECTIVITY,
    RANGE_SELECTIVITY,
    NormalizedQuery,
    RelationTerm,
    default_selectivity,
    normalize,
)
from repro.compiler.parallelizer import CompiledQuery, parallelize
from repro.compiler.parser import parse


__all__ = [
    "CompiledQuery",
    "Comparison",
    "EQ_SELECTIVITY",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalNode",
    "LogicalProject",
    "LogicalScan",
    "NEQ_SELECTIVITY",
    "NormalizedQuery",
    "RANGE_SELECTIVITY",
    "RelationTerm",
    "base_relations",
    "default_selectivity",
    "normalize",
    "parallelize",
    "parse",
]
