"""Lowering normalized queries to Lera-par plans.

This is the compile-time parallelization step: given the catalog's
static partitioning information, choose the plan shape —

* both operands co-partitioned on the join attribute -> **IdealJoin**;
* otherwise, stream the operand that is not usefully partitioned
  through a Transmit into a pipelined join -> **AssocJoin**;
* a filtered streamed operand becomes Figure 1's filter-join pipeline;

and produce the physical plan plus its output schema and projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.compiler.optimizer import (
    NormalizedQuery,
    RelationTerm,
    default_selectivity,
)
from repro.errors import CompilationError
from repro.lera.graph import LeraGraph
from repro.lera.operators import JOIN_NESTED_LOOP
from repro.lera.aggregates import AggregateExpr
from repro.lera.plans import (
    aggregate_plan,
    assoc_join_plan,
    chain_join_plan,
    filter_join_plan,
    ideal_join_plan,
    index_scan_plan,
    selection_plan,
)
from repro.lera.predicates import TRUE, Predicate, attribute_predicate, conjunction
from repro.storage.catalog import Catalog, TableEntry
from repro.storage.schema import Schema
from repro.storage.tuples import Row


@dataclass(frozen=True)
class CompiledQuery:
    """A ready-to-execute plan with result-shaping metadata."""

    plan: LeraGraph
    output_schema: Schema
    projection: tuple[int, ...] | None
    description: str

    @classmethod
    def of_plan(cls, plan: LeraGraph) -> "CompiledQuery":
        """A hand-built plan as a submission: raw rows, no shaping."""
        return cls(plan, None, None, "bare plan")

    @property
    def final_schema(self) -> Schema:
        if self.projection is None:
            return self.output_schema
        taken: set[str] = set()
        attributes = []
        for position in self.projection:
            attribute = self.output_schema[position]
            name = attribute.name
            suffix = 2
            while name in taken:
                name = f"{attribute.name}_{suffix}"
                suffix += 1
            taken.add(name)
            attributes.append(attribute.renamed(name))
        return Schema(attributes)

    def shape_rows(self, rows: list[Row]) -> list[Row]:
        """Apply the SELECT-list projection to raw plan output.

        One ``itemgetter`` over the batch; it returns a bare value for a
        single position, which ``zip`` wraps back into 1-tuples.
        """
        if self.projection is None:
            return rows
        columns = itemgetter(*self.projection)
        if len(self.projection) == 1:
            return list(zip(map(columns, rows)))
        return list(map(columns, rows))


def _predicate_for(term: RelationTerm, schema: Schema) -> Predicate:
    """Compile a term's pushed-down comparisons into one predicate."""
    if not term.comparisons:
        return TRUE
    parts = [attribute_predicate(schema, c.attribute, c.op, c.value,
                                 selectivity=default_selectivity(c.op))
             for c in term.comparisons]
    return conjunction(*parts)


def _column_map(portions: list[tuple[str, Schema]],
                output_schema: Schema) -> dict[str, int]:
    """Qualified and bare column names -> output positions.

    ``portions`` lists (relation name, original schema) in output
    order; collisions in the concatenated schema got numeric suffixes,
    so positions are tracked positionally.
    """
    mapping: dict[str, int] = {}
    for i, attribute in enumerate(output_schema):
        mapping.setdefault(attribute.name, i)
    offset = 0
    for relation_name, schema in portions:
        for j, attribute in enumerate(schema):
            mapping[f"{relation_name}.{attribute.name}"] = offset + j
        offset += len(schema)
    return mapping


def _projection(columns: tuple[str, ...],
                mapping: dict[str, int]) -> tuple[int, ...] | None:
    if not columns:
        return None
    positions = []
    for column in columns:
        if column not in mapping:
            raise CompilationError(
                f"SELECT column {column!r} not in join output; "
                f"known: {sorted(mapping)[:12]}...")
        positions.append(mapping[column])
    return tuple(positions)


def _partitioned_on(entry: TableEntry, key: str) -> bool:
    return entry.spec.keys == (key,)


def parallelize(query: NormalizedQuery, catalog: Catalog,
                algorithm: str = JOIN_NESTED_LOOP) -> CompiledQuery:
    """Lower a normalized query to a physical Lera-par plan.

    Raises :class:`CompilationError` for shapes outside the supported
    fragment (e.g. filters on the statically partitioned operand of a
    join, or joins where neither operand is partitioned on its key).
    """
    algorithm = query.algorithm or algorithm
    left_entry = catalog.entry(query.left.name)
    left_schema = left_entry.relation.schema

    if query.is_aggregate:
        predicate = _predicate_for(query.left, left_schema)
        aggregates = tuple(item for item in query.select_items
                           if isinstance(item, AggregateExpr))
        plan = aggregate_plan(left_entry, aggregates,
                              group_by=query.group_by, predicate=predicate)
        spec = plan.node("aggregate").spec
        output_schema = spec.output_schema
        # SELECT-list order: the group column sits at position 0, each
        # aggregate at 1 + its occurrence index (offset 0 when global).
        offset = 0 if query.group_by is None else 1
        positions = []
        aggregate_order = list(aggregates)
        for item in query.select_items:
            if isinstance(item, AggregateExpr):
                positions.append(offset + aggregate_order.index(item))
            else:
                positions.append(0)
        projection = tuple(positions)
        identity = tuple(range(len(output_schema)))
        group_label = (f" GROUP BY {query.group_by}"
                       if query.group_by is not None else "")
        return CompiledQuery(
            plan=plan,
            output_schema=output_schema,
            projection=None if projection == identity else projection,
            description=(f"aggregate({left_entry.name}: "
                         f"{', '.join(a.column_name for a in aggregates)}"
                         f"{group_label})"),
        )

    if query.is_chain:
        return _parallelize_chain(query, catalog, algorithm)

    if not query.is_join:
        mapping = _column_map([(left_entry.name, left_schema)], left_schema)
        comparisons = query.left.comparisons
        if (len(comparisons) == 1
                and comparisons[0].op in ("=", "==")
                and left_entry.index_on(comparisons[0].attribute) is not None):
            comparison = comparisons[0]
            plan = index_scan_plan(left_entry, comparison.attribute,
                                   comparison.value)
            return CompiledQuery(
                plan=plan,
                output_schema=left_schema,
                projection=_projection(query.columns, mapping),
                description=(f"index_scan({left_entry.name}."
                             f"{comparison.attribute} = "
                             f"{comparison.value!r})"),
            )
        predicate = _predicate_for(query.left, left_schema)
        plan = selection_plan(left_entry, predicate)
        return CompiledQuery(
            plan=plan,
            output_schema=left_schema,
            projection=_projection(query.columns, mapping),
            description=f"selection({left_entry.name}: {predicate.description})",
        )

    right_entry = catalog.entry(query.right.name)
    right_schema = right_entry.relation.schema
    left_key, right_key = query.left_key, query.right_key
    sides = {
        query.left.name: (left_entry, query.left, left_key),
        query.right.name: (right_entry, query.right, right_key),
    }
    filtered = [name for name, (_, term, _) in sides.items() if term.filtered]

    copartitioned = (_partitioned_on(left_entry, left_key)
                     and _partitioned_on(right_entry, right_key)
                     and left_entry.spec.compatible_with(right_entry.spec))

    if not filtered and copartitioned:
        plan = ideal_join_plan(left_entry, right_entry, left_key, right_key,
                               algorithm=algorithm)
        output_schema = left_schema.concat(right_schema)
        mapping = _column_map(
            [(left_entry.name, left_schema), (right_entry.name, right_schema)],
            output_schema)
        return CompiledQuery(
            plan, output_schema, _projection(query.columns, mapping),
            description=(f"IdealJoin({left_entry.name}.{left_key} = "
                         f"{right_entry.name}.{right_key}, {algorithm})"),
        )

    if len(filtered) > 1:
        raise CompilationError(
            "filters on both join operands are not supported: the stored "
            "operand of a pipelined join cannot be filtered in-pipeline")

    # Choose the stored (statically partitioned) side and the streamed
    # side.  A filtered operand must stream (its filter pipelines into
    # the join); otherwise prefer storing the larger operand so the
    # smaller one is transmitted, as the paper's AssocJoin does.
    if filtered:
        stream_name = filtered[0]
        stored_name = (query.right.name if stream_name == query.left.name
                       else query.left.name)
    elif _partitioned_on(left_entry, left_key) and not _partitioned_on(right_entry, right_key):
        stored_name, stream_name = query.left.name, query.right.name
    elif _partitioned_on(right_entry, right_key) and not _partitioned_on(left_entry, left_key):
        stored_name, stream_name = query.right.name, query.left.name
    elif copartitioned or (_partitioned_on(left_entry, left_key)
                           and _partitioned_on(right_entry, right_key)):
        if left_entry.cardinality >= right_entry.cardinality:
            stored_name, stream_name = query.left.name, query.right.name
        else:
            stored_name, stream_name = query.right.name, query.left.name
    else:
        raise CompilationError(
            f"neither {query.left.name!r} (partitioned on "
            f"{left_entry.spec.keys}) nor {query.right.name!r} (partitioned "
            f"on {right_entry.spec.keys}) is partitioned on its join key; "
            f"repartitioning both operands is not supported")

    stored_entry, _, stored_key = sides[stored_name]
    stream_entry, stream_term, stream_key = sides[stream_name]
    if not _partitioned_on(stored_entry, stored_key):
        raise CompilationError(
            f"stored operand {stored_name!r} must be partitioned on its join "
            f"key {stored_key!r} (is partitioned on {stored_entry.spec.keys}); "
            f"its filter cannot be pipelined" if stream_term.filtered else
            f"stored operand {stored_name!r} is not partitioned on "
            f"{stored_key!r}")

    stream_schema = stream_entry.relation.schema
    stored_schema = stored_entry.relation.schema
    output_schema = stream_schema.concat(stored_schema)
    mapping = _column_map(
        [(stream_entry.name, stream_schema), (stored_entry.name, stored_schema)],
        output_schema)

    if stream_term.filtered:
        predicate = _predicate_for(stream_term, stream_schema)
        plan = filter_join_plan(stream_entry, stored_entry, predicate,
                                stream_key, stored_key, algorithm=algorithm)
        description = (f"FilterJoin(sigma[{predicate.description}]"
                       f"({stream_name}) -> {stored_name}, {algorithm})")
    else:
        plan = assoc_join_plan(stored_entry, stream_entry, stored_key,
                               stream_key, algorithm=algorithm)
        description = (f"AssocJoin({stream_name} >> {stored_name}."
                       f"{stored_key}, {algorithm})")
    projection = _projection(query.columns, mapping)
    if projection is None and stream_name != query.left.name:
        # ``SELECT *`` lists the operands, and names their columns, in
        # FROM order; the plan emits the streamed one first.
        in_from_order = list(stored_schema.concat(stream_schema))
        stored_width = len(stored_schema)
        output_schema = Schema(in_from_order[stored_width:]
                               + in_from_order[:stored_width])
        stream_width = len(stream_schema)
        projection = (tuple(range(stream_width, len(output_schema)))
                      + tuple(range(stream_width)))
    return CompiledQuery(plan, output_schema, projection, description)


def _parallelize_chain(query: NormalizedQuery, catalog: Catalog,
                       algorithm: str) -> CompiledQuery:
    """Lower an n-way left-deep join chain to a multi-phase plan.

    The first two relations must be co-partitioned on their join keys;
    every later relation must be partitioned on its own join key (its
    phase's intermediate is hash-repartitioned to match through a
    Store, so each phase is an IdealJoin).
    """
    first = catalog.entry(query.left.name)
    second = catalog.entry(query.right.name)
    if not (_partitioned_on(first, query.left_key)
            and _partitioned_on(second, query.right_key)
            and first.spec.compatible_with(second.spec)):
        raise CompilationError(
            f"multi-join: {first.name!r} and {second.name!r} must be "
            f"co-partitioned on their join keys")
    portions: list[tuple[str, Schema]] = [
        (first.name, first.relation.schema),
        (second.name, second.relation.schema),
    ]
    offsets = {first.name: 0,
               second.name: len(first.relation.schema)}
    running_schema = first.relation.schema.concat(second.relation.schema)

    extensions = []
    for step_name, prev_rel, prev_attr, step_key in query.chain_steps:
        entry = catalog.entry(step_name)
        if prev_rel not in offsets:
            raise CompilationError(
                f"{prev_rel!r} is not part of the join chain before "
                f"{step_name!r}")
        prev_schema = dict(portions)[prev_rel]
        position = offsets[prev_rel] + prev_schema.position(prev_attr)
        intermediate_key = running_schema[position].name
        extensions.append((entry, intermediate_key, step_key))
        offsets[step_name] = len(running_schema)
        portions.append((step_name, entry.relation.schema))
        running_schema = running_schema.concat(entry.relation.schema)

    plan = chain_join_plan(first, second, query.left_key, query.right_key,
                           extensions, algorithm=algorithm)
    mapping = _column_map(portions, running_schema)
    names = " >< ".join(name for name, _ in portions)
    return CompiledQuery(
        plan=plan,
        output_schema=running_schema,
        projection=_projection(query.columns, mapping),
        description=f"ChainJoin({names}, {len(extensions) + 1} phases, "
                    f"{algorithm})",
    )
