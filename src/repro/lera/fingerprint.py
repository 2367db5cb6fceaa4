"""Canonical subplan fingerprints over Lera-par graphs.

Shared-work execution (the workload engine's fold pass) needs to
decide, at admission time, whether a subplan of an incoming query
computes *exactly* the same row multiset as a subplan of an
already-admitted query.  The fingerprint is that decision procedure:
two nodes with equal, non-``None`` fingerprints denote semantically
identical operator subtrees over the *same* stored operands, so one
execution can serve both queries.

Identity rules (Section 2's operator taxonomy):

* **Scan/filter** — the scanned fragment *objects* (base-table
  fragments are owned by the catalog, so two compilations of the same
  relation reference the very same :class:`~repro.storage.fragment
  .Fragment` objects) plus the predicate's description and
  selectivity (:class:`~repro.lera.predicates.Predicate` equality
  deliberately excludes the compiled closure).
* **Index scan** — fragments, probed attribute and probe value.
* **Co-partitioned join** — both operand fragment lists, the join
  keys, the algorithm and the grain (strategy-relevant: grain changes
  the activation decomposition, not the rows, but a folded operator
  is executed once so its physical shape must satisfy every
  subscriber's schedule assumptions).
* **Transmit** — fragments, redistribution key and target degree (the
  degree decides the consumer-side partitioning of the stream).
* **Pipelined join / aggregate** — own identity fields plus the
  fingerprints of every pipeline producer, recursively: a pipelined
  operator's output is a function of its input stream, so its
  identity must capture the producer cone.

Anything else — in particular :class:`~repro.lera.operators
.StoreSpec`, which writes per-query temporary fragments — fingerprints
to ``None`` (never shareable).  So does any node downstream of a
materialized edge: its operands are runtime-materialized temporaries
whose contents are private to the owning query.  This is what makes
fingerprinting *sound by construction* for two-phase plans: the
shared-work layer can only fold operators whose inputs are immutable
base relations.

Fragment identity is object identity (``id``).  That is sound because
the fingerprints of two plans are only ever compared while both plans
are alive (they sit in the same workload), and each plan keeps its
fragments alive through its specs — two distinct live fragments can
never alias one id.

Fingerprints are memoized on the plan (:meth:`~repro.lera.graph
.LeraGraph.fingerprints`); mutating the graph invalidates the memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lera.graph import MATERIALIZED, LeraGraph, dependency_order
from repro.lera.operators import (
    AggregateSpec,
    IndexScanSpec,
    JoinSpec,
    PipelinedJoinSpec,
    ScanFilterSpec,
    TransmitSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.fragment import Fragment

#: A fingerprint is a nested tuple (hashable, directly comparable);
#: ``None`` marks a node that must never be folded.
Fingerprint = tuple


def _fragment_key(fragments: "list[Fragment]") -> tuple[int, ...]:
    return tuple(id(fragment) for fragment in fragments)


def _spec_key(spec) -> Fingerprint | None:
    """The node-local identity component (producers excluded)."""
    if isinstance(spec, ScanFilterSpec):
        return ("scan", _fragment_key(spec.fragments),
                spec.predicate.description, spec.predicate.selectivity)
    if isinstance(spec, IndexScanSpec):
        return ("index_scan", _fragment_key(spec.fragments),
                spec.attribute, repr(spec.value))
    if isinstance(spec, JoinSpec):
        return ("join", _fragment_key(spec.outer_fragments),
                _fragment_key(spec.inner_fragments),
                spec.outer_key, spec.inner_key, spec.algorithm, spec.grain)
    if isinstance(spec, TransmitSpec):
        return ("transmit", _fragment_key(spec.fragments),
                spec.key, spec.target_degree)
    if isinstance(spec, PipelinedJoinSpec):
        return ("pipelined_join", _fragment_key(spec.stored_fragments),
                spec.stored_key, spec.stream_key, spec.algorithm)
    if isinstance(spec, AggregateSpec):
        return ("aggregate", spec.group_by,
                tuple((expr.function, expr.attribute)
                      for expr in spec.aggregates),
                spec.degree)
    return None  # StoreSpec and anything unknown: never shareable


def compute_fingerprints(plan: LeraGraph) -> dict[str, Fingerprint | None]:
    """Fingerprint every node of *plan* (``None`` = not shareable).

    Called through the memoizing :meth:`LeraGraph.fingerprints`; the
    result maps node name to fingerprint.
    """
    materialized_into: set[str] = {
        edge.consumer for edge in plan.edges if edge.kind == MATERIALIZED}
    producers = {node.name: sorted(plan.pipeline_producers(node.name))
                 for node in plan.nodes}
    fingerprints: dict[str, Fingerprint | None] = {}
    for name in dependency_order(producers):
        result: Fingerprint | None = None
        if name not in materialized_into:
            key = _spec_key(plan.node(name).spec)
            if key is not None:
                upstream = tuple(fingerprints[p] for p in producers[name])
                if not any(part is None for part in upstream):
                    result = key + (upstream,) if upstream else key
        fingerprints[name] = result
    return fingerprints
