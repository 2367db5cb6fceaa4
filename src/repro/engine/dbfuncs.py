"""Executable operator bodies (the ``DBFunc`` of Figure 4).

Each class pairs an operator spec with the code that processes one
activation: it performs the *real* relational work on real tuples and
returns both the produced rows and the activation's virtual-time cost
from the calibrated cost model.

Costing note: for the nested-loop algorithm the *cost* charged is the
full outer x inner scan the 1995 prototype would have executed, while
the *matching* is read from the outer fragment's join index
(``Fragment.join_index``: the pairs that match, found once by probing
the inner's hash index), so an execution only concatenates the rows of
its pairs.  Results are identical; only wall-clock time differs.
The temp-index algorithm executes its actual data structure
(:class:`~repro.storage.indexes.SortedIndex`).  Selection
is a set at a time as well (:meth:`~repro.lera.predicates.Predicate
.select`, one call per fragment).

A structure over a whole stored fragment is borrowed from it (``index_on``,
``join_index``: built once, shared, immutable); the *charge* for building
or scanning it is still made in every execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ExecutionError
from repro.lera.activation import CONTROL, DATA, Activation
from repro.lera.aggregates import Accumulator
from repro.lera.operators import (
    JOIN_NESTED_LOOP,
    JOIN_TEMP_INDEX,
    AggregateSpec,
    IndexScanSpec,
    JoinSpec,
    OperatorSpec,
    PipelinedJoinSpec,
    ScanFilterSpec,
    StoreSpec,
    TransmitSpec,
)
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.storage.fragment import Fragment
from repro.storage.indexes import build_index, join_rows
from repro.storage.tuples import Row, row_size_bytes


@dataclass
class ExecContext:
    """Execution context handed to a DBFunc: one per activation on an
    Allcache machine, one per simulator on a uniform one.

    ``owner`` is the executing thread's id, used as the local-cache
    identity for the Allcache model; ``touch`` returns the extra
    virtual time of accessing a data segment and accumulates the total
    in ``penalty`` for the metrics.
    """

    machine: Machine
    owner: int
    penalty: float = 0.0
    #: Whether touches can charge anything on this machine.  On uniform
    #: machines every :meth:`touch` returns 0, so callers may skip
    #: computing segment keys and footprints entirely (and the
    #: simulator shares one context across activations).
    tracks_memory: bool = field(init=False)

    def __post_init__(self) -> None:
        self.tracks_memory = self.machine.directory is not None

    def touch(self, segment_key: object, size_bytes: int) -> float:
        extra = self.machine.memory_access(self.owner, segment_key, size_bytes)
        self.penalty += extra
        return extra


class ProcessResult(NamedTuple):
    """Outcome of processing one activation.

    A tuple, as one is built per activation (see DESIGN.md); with no
    default for ``emitted``, no two results can share one list.

    Attributes:
        cost: Virtual-time seconds of sequential work (un-dilated).
        emitted: Rows produced, in production order.  The simulator
            routes them to the consumer operation, or collects them as
            query results when the operation is terminal.
    """

    cost: float
    emitted: list[Row]


#: ``new_record(Record, fields)`` builds a ``NamedTuple`` record from
#: its full field tuple with no Python frame (the generated
#: ``__new__`` is one); for the sites that build one per tuple.
new_record = tuple.__new__


def segment_key(fragment: Fragment) -> tuple[str, int]:
    """Cache-directory key of a stored fragment."""
    return (fragment.relation_name, fragment.index)


class DBFunc(ABC):
    """Base class: one executable operator body."""

    #: Keeps per-execution state: every execution builds its own (a
    #: stateless body is shared through its ``OperationBlueprint``).
    stateful = False

    def __init__(self, spec: OperatorSpec, costs: CostModel) -> None:
        self.spec = spec
        self.costs = costs

    @abstractmethod
    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        """Execute one activation for *instance* and cost it."""

    def finalize(self, instance: int,
                 ctx: ExecContext) -> ProcessResult | None:
        """Emit end-of-input results for one instance (aggregates).

        Called by the simulator once per instance when the operation's
        input has closed and every queued activation was consumed; the
        last live thread of the pool executes the finalization.  The
        default — for operators with no end-of-input behaviour — is
        ``None``.
        """
        return None

    def segments(self, instance: int) -> list[tuple[tuple[str, int], int]]:
        """(key, bytes) of the data segments instance *instance* reads:
        its fragment of each of the spec's stored operands.

        Used by the executor to pre-place fragments in local caches.
        """
        return [(segment_key(fragments[instance]),
                 fragments[instance].size_bytes())
                for fragments in self.spec.stored_operands()]


class FilterFunc(DBFunc):
    """Triggered scan + filter of one fragment per instance."""

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != CONTROL:
            raise ExecutionError("FilterFunc expects control activations")
        fragment = self.spec.fragments[instance]
        penalty = (ctx.touch(segment_key(fragment), fragment.size_bytes())
                   if ctx.tracks_memory else 0.0)
        emitted = self.spec.predicate.select(fragment.rows)
        cost = (self.costs.trigger_activation
                + fragment.cardinality * self.costs.filter_tuple
                + len(emitted) * self.costs.store_tuple
                + penalty)
        return ProcessResult(cost, emitted)


class IndexScanFunc(DBFunc):
    """Triggered equality selection through a permanent index."""

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != CONTROL:
            raise ExecutionError("IndexScanFunc expects control activations")
        fragment = self.spec.fragments[instance]
        index = self.spec.indexes[instance]
        matches = index.lookup(self.spec.value)
        if ctx.tracks_memory:
            # Only the touched lines are shipped on a probe; approximate
            # by charging the matches' footprint, not the whole fragment.
            touched = sum(row_size_bytes(row) for row in matches) or 1
            penalty = ctx.touch(segment_key(fragment), touched)
        else:
            penalty = 0.0
        cost = (self.costs.trigger_activation
                + self.costs.index_probe_cost(max(fragment.cardinality, 1),
                                              len(matches))
                + len(matches) * self.costs.store_tuple
                + penalty)
        return ProcessResult(cost, list(matches))


class JoinFunc(DBFunc):
    """Triggered join of co-partitioned fragment pairs (IdealJoin)."""

    def __init__(self, spec: JoinSpec, costs: CostModel) -> None:
        super().__init__(spec, costs)
        self._outer_pos = spec.outer_fragments[0].schema.position(spec.outer_key)
        self._inner_pos = spec.inner_fragments[0].schema.position(spec.inner_key)

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != CONTROL:
            raise ExecutionError("JoinFunc expects control activations")
        outer = self.spec.outer_fragments[instance]
        inner = self.spec.inner_fragments[instance]
        if self.spec.grain == 1:
            low, high = 0, len(outer.rows)
        else:
            low, high = self.spec.chunk_bounds(instance, activation.chunk)
        penalty = (ctx.touch(segment_key(outer), outer.size_bytes())
                   + ctx.touch(segment_key(inner), inner.size_bytes())
                   ) if ctx.tracks_memory else 0.0
        cost = self.costs.trigger_activation + penalty
        emitted: list[Row] = []
        algorithm = self.spec.algorithm
        if algorithm == JOIN_NESTED_LOOP:
            emitted = join_rows(outer.join_index(self._outer_pos, inner,
                                                 self._inner_pos),
                                outer.rows, low, high)
            cost += self.costs.nested_loop_cost(
                high - low, len(inner.rows), len(emitted))
        elif algorithm == JOIN_TEMP_INDEX:
            # A chunk indexes its own slice (the genuine price of the
            # finer grain) and probes with the whole inner operand.
            index = (outer.index_on(self._outer_pos, "sorted")
                     if self.spec.grain == 1 else
                     build_index(outer.rows[low:high], self._outer_pos,
                                 "sorted"))
            cost += self.costs.index_build_cost(high - low)
            inner_pos = self._inner_pos
            for right in inner.rows:
                matches = index.lookup(right[inner_pos])
                for left in matches:
                    emitted.append(left + right)
                cost += self.costs.index_probe_cost(
                    max(high - low, 1), len(matches))
        else:  # pragma: no cover - spec validation rejects this earlier
            raise ExecutionError(f"unknown join algorithm {algorithm!r}")
        return ProcessResult(cost, emitted)


class TransmitFunc(DBFunc):
    """Triggered redistribution: reads a fragment, emits every tuple.

    The simulator routes each emitted row to the consumer instance via
    the operation's router (hash of the join key modulo the consumer
    degree), so the pipeline carries one data activation per tuple.
    """

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != CONTROL:
            raise ExecutionError("TransmitFunc expects control activations")
        fragment = self.spec.fragments[instance]
        penalty = (ctx.touch(segment_key(fragment), fragment.size_bytes())
                   if ctx.tracks_memory else 0.0)
        cost = (self.costs.trigger_activation
                + fragment.cardinality * self.costs.transmit_tuple
                + penalty)
        return ProcessResult(cost, list(fragment.rows))


class PipelinedJoinFunc(DBFunc):
    """Pipelined join: one incoming tuple probes the stored fragment.

    With the temp-index algorithm the instance's first activation of
    an execution is charged the build of the lookup structure; nested
    loop charges a full fragment scan per probe, which is exactly why
    AssocJoin's pipelined work shrinks as the degree of partitioning
    grows.
    """

    stateful = True

    def __init__(self, spec: PipelinedJoinSpec, costs: CostModel) -> None:
        super().__init__(spec, costs)
        self._stored_pos = spec.stored_key_position
        self._stream_pos = spec.stream_key_position
        #: Instances already charged their build in this execution.
        self._charged: set[int] = set()

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != DATA or activation.row is None:
            raise ExecutionError("PipelinedJoinFunc expects data activations")
        stored = self.spec.stored_fragments[instance]
        penalty = (ctx.touch(segment_key(stored), stored.size_bytes())
                   if ctx.tracks_memory else 0.0)
        row = activation.row
        key = row[self._stream_pos]
        cost = self.costs.pipelined_activation + penalty
        algorithm = self.spec.algorithm
        if algorithm == JOIN_NESTED_LOOP:
            matches = stored.index_on(self._stored_pos).get(key, ())
            cost += (len(stored.rows) * self.costs.tuple_pair
                     + len(matches) * self.costs.result_tuple)
        elif algorithm == JOIN_TEMP_INDEX:
            if instance not in self._charged:
                self._charged.add(instance)
                cost += self.costs.index_build_cost(len(stored.rows))
            matches = stored.index_on(self._stored_pos, "sorted").lookup(key)
            cost += self.costs.index_probe_cost(max(len(stored.rows), 1),
                                                len(matches))
        else:  # pragma: no cover - spec validation rejects this earlier
            raise ExecutionError(f"unknown join algorithm {algorithm!r}")
        emitted = list(map(row.__add__, matches))
        return new_record(ProcessResult, (cost, emitted))


class AggregateFunc(DBFunc):
    """Pipelined grouped aggregation.

    Each data activation folds one tuple into the target group's
    accumulators; :meth:`finalize` emits one result row per group when
    the input closes.
    """

    stateful = True

    def __init__(self, spec: AggregateSpec, costs: CostModel) -> None:
        super().__init__(spec, costs)
        self._group_pos = spec.group_position
        self._value_positions = spec.value_positions()
        self._functions = [expr.function for expr in spec.aggregates]
        self._states: dict[int, dict[object, list[Accumulator]]] = {}

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != DATA or activation.row is None:
            raise ExecutionError("AggregateFunc expects data activations")
        row = activation.row
        state = self._states.setdefault(instance, {})
        group = None if self._group_pos is None else row[self._group_pos]
        accumulators = state.get(group)
        if accumulators is None:
            accumulators = [Accumulator(fn) for fn in self._functions]
            state[group] = accumulators
        for accumulator, position in zip(accumulators, self._value_positions):
            accumulator.add(1 if position is None else row[position])
        cost = (self.costs.pipelined_activation
                + len(accumulators) * self.costs.aggregate_tuple)
        return ProcessResult(cost, [])

    def finalize(self, instance: int,
                 ctx: ExecContext) -> ProcessResult | None:
        state = self._states.get(instance)
        if state is None:
            if self._group_pos is not None or instance != 0:
                return None
            # Global aggregate over an empty input still yields one row.
            state = {None: [Accumulator(fn) for fn in self._functions]}
        emitted: list[Row] = []
        for group in sorted(state, key=repr):
            values = tuple(acc.result() for acc in state[group])
            emitted.append(values if self._group_pos is None
                           else (group,) + values)
        cost = len(emitted) * (self.costs.store_tuple
                               + len(self._functions)
                               * self.costs.aggregate_tuple)
        return ProcessResult(cost, emitted)


class StoreFunc(DBFunc):
    """Pipelined materialization into hash-partitioned fragments.

    The run-time half of multi-chain plans: each activation's tuple is
    buffered for the instance's target fragment, and :meth:`finalize`
    publishes the buffer into the fragment as one tuple, which a later
    chain reads as a statically partitioned operand.  Stored rows stay
    immutable; the buffer is the only container that grows.
    """

    stateful = True

    def __init__(self, spec: StoreSpec, costs: CostModel) -> None:
        super().__init__(spec, costs)
        # The targets belong to the plan, which may run again: every
        # execution starts them empty (one StoreFunc per execution).
        for fragment in spec.target_fragments:
            fragment.clear()
        self._buffers: list[list[Row]] = [[] for _ in spec.target_fragments]

    def process(self, instance: int, activation: Activation,
                ctx: ExecContext) -> ProcessResult:
        if activation.kind != DATA or activation.row is None:
            raise ExecutionError("StoreFunc expects data activations")
        self._buffers[instance].append(activation.row)
        cost = self.costs.pipelined_activation + self.costs.store_tuple
        return ProcessResult(cost, [])

    def finalize(self, instance: int, ctx: ExecContext) -> None:
        """Publish the instance's rows; no virtual time (``None``)."""
        self.spec.target_fragments[instance].extend(self._buffers[instance])
        self._buffers[instance] = []


def make_dbfunc(spec, costs: CostModel) -> DBFunc:
    """Instantiate the executable body for an operator spec."""
    if isinstance(spec, ScanFilterSpec):
        return FilterFunc(spec, costs)
    if isinstance(spec, IndexScanSpec):
        return IndexScanFunc(spec, costs)
    if isinstance(spec, JoinSpec):
        return JoinFunc(spec, costs)
    if isinstance(spec, TransmitSpec):
        return TransmitFunc(spec, costs)
    if isinstance(spec, PipelinedJoinSpec):
        return PipelinedJoinFunc(spec, costs)
    if isinstance(spec, AggregateSpec):
        return AggregateFunc(spec, costs)
    if isinstance(spec, StoreSpec):
        return StoreFunc(spec, costs)
    raise ExecutionError(f"no DBFunc for spec type {type(spec).__name__}")
