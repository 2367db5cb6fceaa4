"""Operator specifications — what a Lera-par plan node describes.

A spec is the *physical* description of one operator: which fragments
it reads, what relational function it applies, how many instances it
has (one per fragment of its partitioned input) and whether it is
triggered or pipelined.  Specs also expose cost *estimates* — used by
the adaptive scheduler (steps 1-3) and by the LPT consumption strategy
— computed from static information (fragment cardinalities), exactly
as the paper prescribes.

The executable behaviour for each spec lives in
:mod:`repro.engine.dbfuncs`; keeping estimation here and execution
there mirrors the compiler/run-time split of DBS3 itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import PlanError
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.lera.predicates import Predicate
from repro.machine.costs import CostModel
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

#: Join algorithms understood by the engine.
JOIN_NESTED_LOOP = "nested_loop"
JOIN_TEMP_INDEX = "temp_index"
JOIN_ALGORITHMS = (JOIN_NESTED_LOOP, JOIN_TEMP_INDEX)

_ROWS = attrgetter("rows")


class OperatorSpec(ABC):
    """Base class for operator specifications."""

    #: ``TRIGGERED`` or ``PIPELINED`` — the kind of queue feeding the
    #: operator (class attribute on subclasses).
    trigger_mode: str = TRIGGERED

    @property
    @abstractmethod
    def instances(self) -> int:
        """Number of operator instances (degree of partitioning)."""

    @abstractmethod
    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        """Estimated sequential cost of each instance, in seconds.

        For triggered operators this is the estimated cost of the one
        activation of each instance; for pipelined operators it is the
        estimated cost of *one* activation served by that instance
        (what LPT ranks queues by).
        """

    def total_complexity(self, costs: CostModel) -> float:
        """Estimated total sequential work of the operator."""
        return sum(self.estimated_instance_costs(costs))

    def activations_per_instance(self) -> int:
        """Control activations seeded into each instance's queue.

        1 for classic triggered operators; the *grain* for chunked
        triggered operators (the finer grain of parallelism the
        paper's conclusion proposes as future work).
        """
        return 1

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        """The stored fragment lists read, instance ``i`` fragment ``i``
        of each (what admission prices and the executor pre-places)."""
        return ()

    def estimated_activations(self) -> int:
        """Estimated number of activations the operator will receive."""
        return self.instances * self.activations_per_instance()

    def _check_instances(self, *fragment_lists: list[Fragment]) -> None:
        lengths = {len(fragments) for fragments in fragment_lists}
        if len(lengths) != 1:
            raise PlanError(
                f"{type(self).__name__}: operand degrees differ: {sorted(lengths)}")
        if 0 in lengths:
            raise PlanError(f"{type(self).__name__}: needs at least one fragment")


@dataclass
class ScanFilterSpec(OperatorSpec):
    """Triggered scan + filter over one partitioned relation.

    Each instance, on its trigger, scans its fragment and emits the
    rows satisfying ``predicate`` (to the downstream operator, or to
    the query result when terminal).
    """

    fragments: list[Fragment]
    predicate: Predicate
    schema: Schema
    trigger_mode = TRIGGERED

    def __post_init__(self) -> None:
        self._check_instances(self.fragments)

    @property
    def instances(self) -> int:
        return len(self.fragments)

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        return (self.fragments,)

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        return [f.cardinality * costs.filter_tuple for f in self.fragments]


@dataclass
class JoinSpec(OperatorSpec):
    """Triggered join of two co-partitioned relations (IdealJoin's join).

    Instance ``i`` joins ``outer_fragments[i]`` with
    ``inner_fragments[i]``.  ``algorithm`` selects nested loop or a
    temp (sorted) index built on the fly on the *outer* side.

    ``grain`` implements the paper's future-work proposal of choosing
    the grain of parallelism independently of operator semantics: each
    instance receives ``grain`` control activations, each covering one
    slice of the outer fragment, so a triggered join can be balanced
    almost as finely as a pipelined one without repartitioning.  (With
    the temp-index algorithm, each chunk pays its own index build over
    its slice — a real cost of the finer grain.)
    """

    outer_fragments: list[Fragment]
    inner_fragments: list[Fragment]
    outer_key: str
    inner_key: str
    algorithm: str = JOIN_NESTED_LOOP
    grain: int = 1
    #: Scheduler estimates for operands that are *materialized at run
    #: time* (two-phase plans): when a fragment list is still empty at
    #: plan time, its expected total cardinality stands in.
    outer_expected_total: int | None = None
    inner_expected_total: int | None = None
    trigger_mode = TRIGGERED

    def __post_init__(self) -> None:
        self._check_instances(self.outer_fragments, self.inner_fragments)
        if self.algorithm not in JOIN_ALGORITHMS:
            raise PlanError(f"unknown join algorithm {self.algorithm!r}")
        if self.grain < 1:
            raise PlanError(f"grain must be >= 1, got {self.grain}")
        # Estimate memo: the scheduler (complexity + strategy selection)
        # and the runtime build ask for the same per-instance estimates
        # five times a query.  Valid for the cost model it holds (held,
        # so its address cannot be recycled) and the operand
        # cardinalities, so two-phase plans that materialize their
        # operands between calls invalidate it automatically.
        self._estimate_cache: tuple[CostModel, list[int],
                                    list[float]] | None = None

    @property
    def instances(self) -> int:
        return len(self.outer_fragments)

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        return (self.outer_fragments, self.inner_fragments)

    def activations_per_instance(self) -> int:
        return self.grain

    def chunk_bounds(self, instance: int, chunk: int | None) -> tuple[int, int]:
        """Row range of the outer fragment covered by one activation."""
        cardinality = self.outer_fragments[instance].cardinality
        if chunk is None or self.grain == 1:
            return 0, cardinality
        if not 0 <= chunk < self.grain:
            raise PlanError(f"chunk {chunk} out of range for grain {self.grain}")
        low = cardinality * chunk // self.grain
        high = cardinality * (chunk + 1) // self.grain
        return low, high

    def _estimated_cardinalities(self, sizes: list[int],
                                 expected_total: int | None) -> list[float]:
        """An operand's fragment sizes as floats; an empty fragment of an
        operand materialized at run time counts as its share of the
        expected total."""
        if expected_total is None:
            return list(map(float, sizes))
        share = expected_total / self.instances
        return [float(size) if size else share for size in sizes]

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        """Per-*activation* estimates (whole instance divided by grain),
        the memo's own list: read it, do not change it."""
        sizes = [*map(len, map(_ROWS, self.outer_fragments)),
                 *map(len, map(_ROWS, self.inner_fragments))]
        cached = self._estimate_cache
        if (cached is not None and cached[0] is costs
                and cached[1] == sizes):
            return cached[2]
        algorithm, grain, degree = self.algorithm, self.grain, self.instances
        estimates = [
            _join_instance_estimate(costs, algorithm, outer, inner) / grain
            for outer, inner in zip(
                self._estimated_cardinalities(sizes[:degree],
                                              self.outer_expected_total),
                self._estimated_cardinalities(sizes[degree:],
                                              self.inner_expected_total))]
        self._estimate_cache = (costs, sizes, estimates)
        return estimates

    def total_complexity(self, costs: CostModel) -> float:
        return sum(self.estimated_instance_costs(costs)) * self.grain

    @property
    def output_schema(self) -> Schema:
        return self.outer_fragments[0].schema.concat(
            self.inner_fragments[0].schema)


@dataclass
class TransmitSpec(OperatorSpec):
    """Triggered redistribution (AssocJoin's Transmit).

    Each instance, on its trigger, reads its fragment and sends every
    tuple to the downstream operator instance selected by hashing
    ``key`` modulo ``target_degree`` — dynamic repartitioning through
    the pipeline.
    """

    fragments: list[Fragment]
    key: str
    target_degree: int
    trigger_mode = TRIGGERED

    def __post_init__(self) -> None:
        self._check_instances(self.fragments)
        if self.target_degree < 1:
            raise PlanError(f"target_degree must be >= 1, got {self.target_degree}")

    @property
    def instances(self) -> int:
        return len(self.fragments)

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        return (self.fragments,)

    @property
    def key_position(self) -> int:
        return self.fragments[0].schema.position(self.key)

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        return [f.cardinality * costs.transmit_tuple for f in self.fragments]


@dataclass
class PipelinedJoinSpec(OperatorSpec):
    """Pipelined join against statically partitioned fragments.

    Instance ``i`` holds ``stored_fragments[i]`` (e.g. ``A_i``); each
    incoming data activation carries one tuple of the streamed operand
    (e.g. ``B'``), which is joined with the stored fragment.  With the
    temp-index algorithm the index over the stored fragment is built
    lazily, on the instance's first activation.
    """

    stored_fragments: list[Fragment]
    stored_key: str
    stream_schema: Schema
    stream_key: str
    algorithm: str = JOIN_NESTED_LOOP
    stream_cardinality: int = 0
    trigger_mode = PIPELINED

    def __post_init__(self) -> None:
        self._check_instances(self.stored_fragments)
        if self.algorithm not in JOIN_ALGORITHMS:
            raise PlanError(f"unknown join algorithm {self.algorithm!r}")

    @property
    def instances(self) -> int:
        return len(self.stored_fragments)

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        return (self.stored_fragments,)

    @property
    def stored_key_position(self) -> int:
        return self.stored_fragments[0].schema.position(self.stored_key)

    @property
    def stream_key_position(self) -> int:
        return self.stream_schema.position(self.stream_key)

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        """Per-*activation* cost estimate of each instance (LPT order)."""
        estimates = []
        for stored in self.stored_fragments:
            estimates.append(_probe_estimate(costs, self.algorithm,
                                             stored.cardinality))
        return estimates

    def total_complexity(self, costs: CostModel) -> float:
        """Total work: stream tuples spread evenly over instances."""
        if self.instances == 0:
            return 0.0
        per_instance = self.stream_cardinality / self.instances
        total = 0.0
        for stored in self.stored_fragments:
            total += per_instance * (costs.pipelined_activation
                                     + _probe_estimate(costs, self.algorithm,
                                                       stored.cardinality))
            if self.algorithm == JOIN_TEMP_INDEX:
                total += costs.index_build_cost(stored.cardinality)
        return total

    def estimated_activations(self) -> int:
        return self.stream_cardinality

    @property
    def output_schema(self) -> Schema:
        return self.stream_schema.concat(self.stored_fragments[0].schema)


@dataclass
class IndexScanSpec(OperatorSpec):
    """Triggered equality selection through a permanent index.

    Each instance, on its trigger, probes its fragment's index with
    ``value`` and emits the matches — the index-scan fast path the
    compiler picks when a selection is a single equality on an indexed
    attribute.  ``indexes[i]`` must be an index over
    ``fragments[i].rows`` on *attribute*.
    """

    fragments: list[Fragment]
    indexes: list
    attribute: str
    value: object
    schema: Schema
    trigger_mode = TRIGGERED

    def __post_init__(self) -> None:
        self._check_instances(self.fragments)
        if len(self.indexes) != len(self.fragments):
            raise PlanError(
                f"{len(self.indexes)} indexes for {len(self.fragments)} "
                f"fragments")
        self.schema.position(self.attribute)

    @property
    def instances(self) -> int:
        return len(self.fragments)

    def stored_operands(self) -> tuple[list[Fragment], ...]:
        return (self.fragments,)

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        """A probe plus an estimated 1% of the fragment emitted."""
        estimates = []
        for fragment in self.fragments:
            matches = max(1, fragment.cardinality // 100)
            estimates.append(costs.index_probe_cost(
                max(fragment.cardinality, 1), matches))
        return estimates


@dataclass
class AggregateSpec(OperatorSpec):
    """Pipelined grouped aggregation.

    Incoming tuples are routed by hashing the group-by attribute (all
    to instance 0 for a global aggregate); each instance folds
    accumulators per group and emits one result row per group when its
    input closes.  Always a query-terminal operator.
    """

    stream_schema: Schema
    group_by: str | None
    aggregates: tuple
    degree: int = 1
    stream_cardinality: int = 0
    trigger_mode = PIPELINED

    def __post_init__(self) -> None:
        from repro.lera.aggregates import AggregateExpr
        if not self.aggregates:
            raise PlanError("aggregate operator needs at least one aggregate")
        for expr in self.aggregates:
            if not isinstance(expr, AggregateExpr):
                raise PlanError(f"not an AggregateExpr: {expr!r}")
        if self.group_by is None and self.degree != 1:
            raise PlanError("a global aggregate has exactly one instance")
        if self.degree < 1:
            raise PlanError(f"degree must be >= 1, got {self.degree}")
        # Resolve positions eagerly so bad references fail at plan time.
        if self.group_by is not None:
            self.stream_schema.position(self.group_by)
        for expr in self.aggregates:
            if expr.attribute is not None:
                self.stream_schema.position(expr.attribute)

    @property
    def instances(self) -> int:
        return self.degree

    @property
    def group_position(self) -> int | None:
        if self.group_by is None:
            return None
        return self.stream_schema.position(self.group_by)

    def value_positions(self) -> list[int | None]:
        """Input position folded by each aggregate (None = COUNT(*))."""
        return [None if expr.attribute is None
                else self.stream_schema.position(expr.attribute)
                for expr in self.aggregates]

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        """Per-activation estimate: one accumulator update per aggregate."""
        per_activation = (costs.pipelined_activation
                          + len(self.aggregates) * costs.aggregate_tuple)
        return [per_activation] * self.degree

    def total_complexity(self, costs: CostModel) -> float:
        per_activation = (costs.pipelined_activation
                          + len(self.aggregates) * costs.aggregate_tuple)
        return self.stream_cardinality * per_activation

    def estimated_activations(self) -> int:
        return self.stream_cardinality

    @property
    def output_schema(self) -> Schema:
        from repro.lera.aggregates import aggregate_output_schema
        group_kind = ("int" if self.group_by is None
                      else self.stream_schema[self.stream_schema.position(
                          self.group_by)].kind)
        return aggregate_output_schema(self.group_by, tuple(self.aggregates),
                                       group_kind)


@dataclass
class StoreSpec(OperatorSpec):
    """Pipelined materialization into hash-partitioned fragments.

    The tail of a producer chain in multi-chain plans: incoming tuples
    are routed by hashing ``key`` and appended to
    ``target_fragments[instance]``, which later chains read as a
    statically partitioned operand.  ``expected_cardinality`` feeds
    scheduler estimates, since the fragments are empty at plan time.
    """

    target_fragments: list[Fragment]
    stream_schema: Schema
    key: str
    expected_cardinality: int = 0
    trigger_mode = PIPELINED

    def __post_init__(self) -> None:
        self._check_instances(self.target_fragments)
        self.stream_schema.position(self.key)

    @property
    def instances(self) -> int:
        return len(self.target_fragments)

    @property
    def key_position(self) -> int:
        return self.stream_schema.position(self.key)

    def estimated_instance_costs(self, costs: CostModel) -> list[float]:
        per_activation = costs.pipelined_activation + costs.store_tuple
        return [per_activation] * self.instances

    def total_complexity(self, costs: CostModel) -> float:
        per_activation = costs.pipelined_activation + costs.store_tuple
        return self.expected_cardinality * per_activation

    def estimated_activations(self) -> int:
        return self.expected_cardinality


def _join_instance_estimate(costs: CostModel, algorithm: str,
                            outer: int, inner: int) -> float:
    """Estimated cost of joining an (outer, inner) fragment pair."""
    if algorithm == JOIN_NESTED_LOOP:
        return costs.nested_loop_cost(outer, inner, matches=0)
    build = costs.index_build_cost(outer)
    probe = inner * costs.index_probe_cost(max(outer, 1), matches=0)
    return build + probe


def _probe_estimate(costs: CostModel, algorithm: str, stored: int) -> float:
    """Estimated cost of probing one stored fragment with one tuple."""
    if algorithm == JOIN_NESTED_LOOP:
        return stored * costs.tuple_pair
    return costs.index_probe_cost(max(stored, 1), matches=0)
