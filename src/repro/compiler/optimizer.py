"""Logical optimization: name resolution, filter pushdown, estimates.

A deliberately small optimizer in the spirit of the DBS3 compiler
chain ([Lanzelotte94] handles full optimization there): it resolves
attribute references against the catalog, pushes conjunctive filters
down to the relation they restrict, attaches System-R-style default
selectivities, and normalizes the tree into a flat
:class:`NormalizedQuery` the parallelizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler.logical import (
    Comparison,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from repro.errors import CatalogError, CompilationError
from repro.storage.catalog import Catalog

#: Default selectivities when no statistics apply (System R heritage).
EQ_SELECTIVITY = 0.01
RANGE_SELECTIVITY = 0.33
NEQ_SELECTIVITY = 0.9


def default_selectivity(op: str) -> float:
    """Textbook default selectivity for one comparison operator."""
    if op in ("=", "=="):
        return EQ_SELECTIVITY
    if op in ("!=", "<>"):
        return NEQ_SELECTIVITY
    return RANGE_SELECTIVITY


@dataclass(frozen=True)
class RelationTerm:
    """One base relation with the filters pushed down onto it."""

    name: str
    comparisons: tuple[Comparison, ...] = ()

    @property
    def filtered(self) -> bool:
        return bool(self.comparisons)

    def selectivity(self) -> float:
        """Combined estimated selectivity of the pushed-down filters."""
        estimate = 1.0
        for comparison in self.comparisons:
            estimate *= default_selectivity(comparison.op)
        return estimate


@dataclass(frozen=True)
class NormalizedQuery:
    """Flat normal form: at most one join, filters pushed to operands.

    Aggregate queries additionally carry the (resolved) GROUP BY
    attribute and the SELECT-list items in order.
    """

    left: RelationTerm
    right: RelationTerm | None = None
    left_key: str | None = None
    right_key: str | None = None
    columns: tuple[str, ...] = ()
    algorithm: str | None = None
    group_by: str | None = None
    select_items: tuple = ()
    #: Later joins of a left-deep chain: (relation, previous relation,
    #: previous attribute, relation's join key), resolved.
    chain_steps: tuple = ()

    @property
    def is_join(self) -> bool:
        return self.right is not None

    @property
    def is_chain(self) -> bool:
        return bool(self.chain_steps)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.select_items)

    def bind(self, literals: list) -> "NormalizedQuery":
        """The statement of this template (whose comparison values number
        the literals) with ``literals``.  No estimate reads a comparison
        value, so a template's schedule fits all its statements."""
        def bound(term):
            return term and RelationTerm(term.name, tuple(
                Comparison(c.attribute, c.op, literals[c.value])
                for c in term.comparisons))
        return replace(self, left=bound(self.left), right=bound(self.right))


def _entry(catalog: Catalog, name: str):
    """Catalog lookup surfaced as a compilation failure."""
    try:
        return catalog.entry(name)
    except CatalogError as error:
        raise CompilationError(str(error)) from error


def _resolve(reference: str, relations: list[str],
             catalog: Catalog) -> tuple[str, str]:
    """Resolve ``rel.attr`` or bare ``attr`` to (relation, attribute)."""
    if "." in reference:
        relation, attribute = reference.split(".", 1)
        if relation not in relations:
            raise CompilationError(
                f"{reference!r} references {relation!r}, not in FROM clause "
                f"{relations}")
        if attribute not in _entry(catalog, relation).relation.schema:
            raise CompilationError(
                f"relation {relation!r} has no attribute {attribute!r}")
        return relation, attribute
    owners = [name for name in relations
              if reference in _entry(catalog, name).relation.schema]
    if not owners:
        raise CompilationError(
            f"attribute {reference!r} not found in {relations}")
    if len(owners) > 1:
        raise CompilationError(
            f"attribute {reference!r} is ambiguous between {owners}; "
            f"qualify it")
    return owners[0], reference


def normalize(tree: LogicalNode, catalog: Catalog) -> NormalizedQuery:
    """Resolve names and push filters down; returns the normal form."""
    columns: tuple[str, ...] = ()
    group_by: str | None = None
    select_items: tuple = ()
    if isinstance(tree, LogicalAggregate):
        if isinstance(tree.child, LogicalJoin) or (
                isinstance(tree.child, LogicalFilter)
                and isinstance(tree.child.child, LogicalJoin)):
            raise CompilationError(
                "aggregates over joins are not supported; materialize the "
                "join first (see chain_join_plan)")
        group_by = tree.group_by
        select_items = tree.select_items
        tree = tree.child
    elif isinstance(tree, LogicalProject):
        columns = tree.columns
        tree = tree.child

    comparisons: tuple[Comparison, ...] = ()
    if isinstance(tree, LogicalFilter):
        comparisons = tree.comparisons
        tree = tree.child

    if isinstance(tree, LogicalScan):
        relations = [tree.relation]
        _entry(catalog, tree.relation)  # existence check
        pushed = tuple(
            Comparison(_resolve(c.attribute, relations, catalog)[1], c.op, c.value)
            for c in comparisons)
        if group_by is not None:
            group_by = _resolve(group_by, relations, catalog)[1]
        if select_items:
            from repro.lera.aggregates import AggregateExpr
            resolved_items = []
            for item in select_items:
                if isinstance(item, AggregateExpr):
                    attribute = item.attribute
                    if attribute is not None:
                        attribute = _resolve(attribute, relations, catalog)[1]
                    resolved_items.append(AggregateExpr(item.function, attribute))
                else:
                    resolved_items.append(_resolve(item, relations, catalog)[1])
            select_items = tuple(resolved_items)
        return NormalizedQuery(left=RelationTerm(tree.relation, pushed),
                               columns=columns, group_by=group_by,
                               select_items=select_items)

    if isinstance(tree, LogicalJoin) and isinstance(tree.left, LogicalJoin):
        return _normalize_chain(tree, comparisons, columns, catalog)

    if isinstance(tree, LogicalJoin):
        if not isinstance(tree.left, LogicalScan) or not isinstance(tree.right, LogicalScan):
            raise CompilationError(
                "only left-deep joins of stored relations are supported")
        left_name = tree.left.relation
        right_name = tree.right.relation
        relations = [left_name, right_name]
        left_rel, left_key = _resolve(tree.left_key, relations, catalog)
        right_rel, right_key = _resolve(tree.right_key, relations, catalog)
        if left_rel == right_rel:
            raise CompilationError(
                f"join keys both resolve to {left_rel!r}; need one per operand")
        if left_rel == right_name:
            # ON B.j = A.k written backwards — swap keys, keep operands.
            left_key, right_key = right_key, left_key
        by_relation: dict[str, list[Comparison]] = {left_name: [], right_name: []}
        for comparison in comparisons:
            owner, attribute = _resolve(comparison.attribute, relations, catalog)
            by_relation[owner].append(
                Comparison(attribute, comparison.op, comparison.value))
        return NormalizedQuery(
            left=RelationTerm(left_name, tuple(by_relation[left_name])),
            right=RelationTerm(right_name, tuple(by_relation[right_name])),
            left_key=left_key,
            right_key=right_key,
            columns=columns,
            algorithm=tree.algorithm,
        )

    raise CompilationError(
        f"unsupported logical tree root {type(tree).__name__}")


def _normalize_chain(tree: LogicalJoin, comparisons, columns,
                     catalog: Catalog) -> NormalizedQuery:
    """Flatten a left-deep join chain (three or more relations)."""
    if comparisons:
        raise CompilationError(
            "WHERE filters are not supported on multi-join queries")
    # Walk down to the base join, collecting the later steps.
    raw_steps = []
    node: LogicalNode = tree
    while isinstance(node, LogicalJoin) and isinstance(node.left, LogicalJoin):
        if not isinstance(node.right, LogicalScan):
            raise CompilationError("only left-deep join chains are supported")
        raw_steps.append((node.right.relation, node.left_key, node.right_key))
        node = node.left
    if not (isinstance(node.left, LogicalScan)
            and isinstance(node.right, LogicalScan)):
        raise CompilationError("only left-deep join chains are supported")
    raw_steps.reverse()

    left_name = node.left.relation
    right_name = node.right.relation
    relations = [left_name, right_name]
    left_rel, left_key = _resolve(node.left_key, relations, catalog)
    right_rel, right_key = _resolve(node.right_key, relations, catalog)
    if left_rel == right_rel:
        raise CompilationError(
            f"join keys both resolve to {left_rel!r}; need one per operand")
    if left_rel == right_name:
        left_key, right_key = right_key, left_key

    chain_steps = []
    for step_name, raw_a, raw_b in raw_steps:
        if step_name in relations:
            raise CompilationError(
                f"relation {step_name!r} appears twice in the join chain")
        scope = relations + [step_name]
        rel_a, attr_a = _resolve(raw_a, scope, catalog)
        rel_b, attr_b = _resolve(raw_b, scope, catalog)
        if rel_a == step_name and rel_b != step_name:
            new_attr, prev_rel, prev_attr = attr_a, rel_b, attr_b
        elif rel_b == step_name and rel_a != step_name:
            new_attr, prev_rel, prev_attr = attr_b, rel_a, attr_a
        else:
            raise CompilationError(
                f"the ON clause of {step_name!r} must relate it to an "
                f"earlier relation")
        chain_steps.append((step_name, prev_rel, prev_attr, new_attr))
        relations.append(step_name)
    return NormalizedQuery(
        left=RelationTerm(left_name),
        right=RelationTerm(right_name),
        left_key=left_key,
        right_key=right_key,
        columns=columns,
        chain_steps=tuple(chain_steps),
    )
