"""Plan builders for the paper's execution plans.

Three shapes cover the whole evaluation section:

* **selection** — Figure 8's parallel scan/filter;
* **IdealJoin** (Figure 10) — both operands partitioned on the join
  attribute with the same degree: one triggered join node;
* **AssocJoin** (Figure 11) — one operand must be dynamically
  repartitioned: a triggered Transmit node pipelines tuples into a
  pipelined join node.

A fourth builder reproduces Figure 1's filter-join pipeline, and
:func:`materialized` glues sub-plans into multi-chain queries like
Figure 5.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.lera.aggregates import AggregateExpr
from repro.lera.graph import MATERIALIZED, PIPELINE, LeraGraph
from repro.lera.operators import (
    JOIN_NESTED_LOOP,
    AggregateSpec,
    IndexScanSpec,
    JoinSpec,
    PipelinedJoinSpec,
    ScanFilterSpec,
    StoreSpec,
    TransmitSpec,
)
from repro.lera.predicates import TRUE, Predicate
from repro.storage.catalog import TableEntry
from repro.storage.fragment import Fragment


def selection_plan(entry: TableEntry, predicate: Predicate,
                   node_name: str = "filter") -> LeraGraph:
    """Parallel selection: one triggered filter node, one instance per
    fragment."""
    graph = LeraGraph()
    graph.add_node(node_name, ScanFilterSpec(
        fragments=entry.fragments,
        predicate=predicate,
        schema=entry.relation.schema,
    ))
    graph.validate()
    return graph


def index_scan_plan(entry: TableEntry, attribute: str,
                    value: object) -> LeraGraph:
    """Equality selection through a permanent index.

    Requires ``entry.create_index(attribute)`` to have been run; each
    instance probes its fragment's index instead of scanning.
    """
    indexes = entry.index_on(attribute)
    if indexes is None:
        raise PlanError(
            f"no index on {entry.name}.{attribute}; call create_index first")
    graph = LeraGraph()
    graph.add_node("index_scan", IndexScanSpec(
        fragments=entry.fragments,
        indexes=indexes,
        attribute=attribute,
        value=value,
        schema=entry.relation.schema,
    ))
    graph.validate()
    return graph


def ideal_join_plan(outer: TableEntry, inner: TableEntry,
                    outer_key: str, inner_key: str,
                    algorithm: str = JOIN_NESTED_LOOP,
                    grain: int = 1) -> LeraGraph:
    """IdealJoin: both operands co-partitioned on the join attribute.

    ``grain > 1`` enables the chunked-trigger extension: each join
    instance is split into *grain* sub-activations over outer-fragment
    slices (see :class:`~repro.lera.operators.JoinSpec`).

    Raises :class:`PlanError` when the operands are not
    co-partitioned on the join keys — the compiler should have chosen
    an AssocJoin in that case.
    """
    if not outer.spec.compatible_with(inner.spec):
        raise PlanError(
            f"IdealJoin requires compatible partitionings; "
            f"{outer.name} has degree {outer.degree}, "
            f"{inner.name} has degree {inner.degree}")
    if outer.spec.keys != (outer_key,) or inner.spec.keys != (inner_key,):
        raise PlanError(
            "IdealJoin requires both relations partitioned on the join "
            f"attribute (got {outer.spec.keys} vs {outer_key!r} and "
            f"{inner.spec.keys} vs {inner_key!r})")
    graph = LeraGraph()
    graph.add_node("join", JoinSpec(
        outer_fragments=outer.fragments,
        inner_fragments=inner.fragments,
        outer_key=outer_key,
        inner_key=inner_key,
        algorithm=algorithm,
        grain=grain,
    ))
    graph.validate()
    return graph


def assoc_join_plan(stored: TableEntry, streamed: TableEntry,
                    stored_key: str, stream_key: str,
                    algorithm: str = JOIN_NESTED_LOOP) -> LeraGraph:
    """AssocJoin: *streamed* is repartitioned through a Transmit into a
    pipelined join against the statically partitioned *stored* operand.

    The stored operand must be partitioned on its join attribute (the
    paper: "the other one (A) is partitioned on the join attribute").
    """
    if stored.spec.keys != (stored_key,):
        raise PlanError(
            f"AssocJoin: stored operand {stored.name!r} must be partitioned "
            f"on the join attribute {stored_key!r}, got {stored.spec.keys}")
    graph = LeraGraph()
    graph.add_node("transmit", TransmitSpec(
        fragments=streamed.fragments,
        key=stream_key,
        target_degree=stored.degree,
    ))
    graph.add_node("join", PipelinedJoinSpec(
        stored_fragments=stored.fragments,
        stored_key=stored_key,
        stream_schema=streamed.relation.schema,
        stream_key=stream_key,
        algorithm=algorithm,
        stream_cardinality=streamed.cardinality,
    ))
    graph.add_edge("transmit", "join", PIPELINE)
    graph.validate()
    return graph


def filter_join_plan(filtered: TableEntry, stored: TableEntry,
                     predicate: Predicate, filtered_key: str, stored_key: str,
                     algorithm: str = JOIN_NESTED_LOOP) -> LeraGraph:
    """Figure 1's plan: filter R, pipeline survivors into a join with S.

    The filter output is dynamically repartitioned on the join key as
    it flows into the pipelined join (each result tuple "is sent to
    one join instance which is automatically activated").
    """
    if stored.spec.keys != (stored_key,):
        raise PlanError(
            f"filter-join: stored operand {stored.name!r} must be "
            f"partitioned on {stored_key!r}, got {stored.spec.keys}")
    selectivity = predicate.selectivity if predicate.selectivity is not None else 1.0
    graph = LeraGraph()
    graph.add_node("filter", ScanFilterSpec(
        fragments=filtered.fragments,
        predicate=predicate,
        schema=filtered.relation.schema,
    ))
    graph.add_node("join", PipelinedJoinSpec(
        stored_fragments=stored.fragments,
        stored_key=stored_key,
        stream_schema=filtered.relation.schema,
        stream_key=filtered_key,
        algorithm=algorithm,
        stream_cardinality=int(filtered.cardinality * selectivity),
    ))
    graph.add_edge("filter", "join", PIPELINE)
    graph.validate()
    return graph


def aggregate_plan(entry: TableEntry, aggregates: tuple[AggregateExpr, ...],
                   group_by: str | None = None,
                   predicate: Predicate = TRUE) -> LeraGraph:
    """Grouped aggregation: scan/filter pipelined into an aggregate.

    The filter's survivors are routed by hashing the group-by
    attribute into one aggregate instance per hash bucket; a global
    aggregate (``group_by=None``) has a single instance.  Each
    instance emits its groups when the pipeline closes.
    """
    degree = entry.degree if group_by is not None else 1
    graph = LeraGraph()
    graph.add_node("filter", ScanFilterSpec(
        fragments=entry.fragments,
        predicate=predicate,
        schema=entry.relation.schema,
    ))
    selectivity = predicate.selectivity if predicate.selectivity is not None else 1.0
    graph.add_node("aggregate", AggregateSpec(
        stream_schema=entry.relation.schema,
        group_by=group_by,
        aggregates=tuple(aggregates),
        degree=degree,
        stream_cardinality=int(entry.cardinality * selectivity),
    ))
    graph.add_edge("filter", "aggregate", PIPELINE)
    graph.validate()
    return graph


def chain_join_plan(first_outer: TableEntry, first_inner: TableEntry,
                    first_outer_key: str, first_inner_key: str,
                    extensions: list[tuple[TableEntry, str, str]],
                    algorithm: str = JOIN_NESTED_LOOP) -> LeraGraph:
    """An n-way left-deep join as a sequence of materialized chains.

    Phase 1 runs ``first_outer IdealJoin first_inner``.  Each extension
    ``(entry, intermediate_key, entry_key)`` adds a phase: the previous
    phase's result is piped into a Store that hash-partitions it on
    *intermediate_key* with *entry*'s degree (so the next join is an
    IdealJoin against *entry*, which must be partitioned on
    *entry_key*).  This is the multi-subquery execution of Figure 5,
    chains separated by result materializations.

    ``intermediate_key`` names an attribute of the *running*
    concatenated schema (colliding names carry the ``_2`` suffix of
    :meth:`~repro.storage.schema.Schema.concat`).
    The scheduler's estimate of each phase's input is the running
    minimum operand cardinality.
    """
    if not first_outer.spec.compatible_with(first_inner.spec):
        raise PlanError("first join operands are not co-partitioned")
    if not extensions:
        raise PlanError("chain_join_plan needs at least one extension; "
                        "use ideal_join_plan for a single join")

    graph = LeraGraph()
    graph.add_node("join1", JoinSpec(
        outer_fragments=first_outer.fragments,
        inner_fragments=first_inner.fragments,
        outer_key=first_outer_key,
        inner_key=first_inner_key,
        algorithm=algorithm,
    ))
    running_schema = first_outer.relation.schema.concat(
        first_inner.relation.schema)
    running_expected = min(first_outer.cardinality, first_inner.cardinality)
    previous_join = "join1"
    for phase, (entry, intermediate_key, entry_key) in enumerate(extensions,
                                                                 start=1):
        if entry.spec.keys != (entry_key,):
            raise PlanError(
                f"operand {entry.name!r} must be partitioned on "
                f"{entry_key!r}, got {entry.spec.keys}")
        running_schema.position(intermediate_key)  # fail fast
        expected = min(running_expected, entry.cardinality)
        intermediate_name = f"T{phase}"
        target_fragments = [Fragment(intermediate_name, i, running_schema)
                            for i in range(entry.degree)]
        store_name = f"store{phase}"
        join_name = f"join{phase + 1}"
        graph.add_node(store_name, StoreSpec(
            target_fragments=target_fragments,
            stream_schema=running_schema,
            key=intermediate_key,
            expected_cardinality=expected,
        ))
        graph.add_edge(previous_join, store_name, PIPELINE)
        graph.add_node(join_name, JoinSpec(
            outer_fragments=target_fragments,
            inner_fragments=entry.fragments,
            outer_key=intermediate_key,
            inner_key=entry_key,
            algorithm=algorithm,
            outer_expected_total=expected,
        ))
        graph.add_edge(store_name, join_name, MATERIALIZED)
        running_schema = running_schema.concat(entry.relation.schema)
        running_expected = expected
        previous_join = join_name
    graph.validate()
    return graph


def materialized(producer_plan: LeraGraph, consumer_plan: LeraGraph,
                 producer_node: str, consumer_node: str) -> LeraGraph:
    """Merge two plans with a materialized dependency between them.

    The producer's chain must complete before the consumer's chain
    starts; this is how Figure 5's multi-subquery graphs are built.
    Node names must be disjoint across the two plans.
    """
    merged = LeraGraph()
    for plan in (producer_plan, consumer_plan):
        for node in plan.nodes:
            if node.name in merged:
                raise PlanError(f"node name collision on {node.name!r}")
            merged.add_node(node.name, node.spec)
        for edge in plan.edges:
            merged.add_edge(edge.producer, edge.consumer, edge.kind)
    merged.add_edge(producer_node, consumer_node, MATERIALIZED)
    merged.validate()
    return merged
