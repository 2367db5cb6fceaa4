"""Analytical response-time prediction — the model without the engine.

Combines the cost model with the Section 4.1 equations to predict a
plan's response time for a given schedule *without simulating*: the
same estimates the scheduler uses, assembled into per-chain bounds.

Predictions deliberately mirror the engine's structure:

* sequential start-up (threads + queues);
* per chain, the bottleneck operator's time band
  ``[max(Tideal, Pmax), Tworst]`` from its estimated activation costs;
* processor-sharing dilation when a wave allocates more threads than
  processors;
* chains summed wave by wave along the materialization DAG.

The integration tests check that simulated executions actually land
inside (or within a small machinery margin of) the predicted band —
the same validation the paper performs between its measurements and
its analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.formulas import OperatorProfile
from repro.engine.executor import QuerySchedule
from repro.lera.activation import TRIGGERED
from repro.lera.graph import LeraGraph, LeraNode
from repro.machine.costs import CostModel
from repro.machine.machine import Machine

#: Relative slack of :meth:`QueryPrediction.contains` around the band:
#: the queue machinery the analysis ignores.
BAND_SLACK = 0.10


@dataclass(frozen=True)
class OperatorPrediction:
    """Analytic time band for one operator under a thread count."""

    name: str
    threads: int
    activations: int
    total_cost: float
    max_cost: float
    ideal_time: float
    worst_time: float
    lower_bound: float

    @property
    def nmax(self) -> float:
        """Largest useful thread count implied by the estimates."""
        if self.max_cost <= 0:
            return float("inf")
        return self.total_cost / self.max_cost


@dataclass(frozen=True)
class QueryPrediction:
    """Analytic time band for a whole plan under a schedule."""

    startup_time: float
    lower_bound: float
    ideal_time: float
    worst_time: float
    operators: dict[str, OperatorPrediction]

    def contains(self, measured: float) -> bool:
        """Is a measured response inside the predicted band (with a
        relative :data:`BAND_SLACK` for queue machinery the analysis
        ignores)?"""
        return (self.lower_bound * (1 - BAND_SLACK)
                <= measured
                <= self.worst_time * (1 + BAND_SLACK))


def _estimated_profile(node: LeraNode, costs: CostModel) -> OperatorProfile:
    """Per-activation estimated cost profile of one operator."""
    per_instance = node.spec.estimated_instance_costs(costs)
    if node.trigger_mode == TRIGGERED:
        per_activation = node.spec.activations_per_instance()
        return OperatorProfile.of(
            [cost for cost in per_instance for _ in range(per_activation)])
    # Pipelined: activations spread over instances proportionally to
    # nothing in particular — assume uniform routing, the scheduler's
    # own assumption.
    total = node.spec.estimated_activations()
    if total <= 0 or not per_instance:
        return OperatorProfile.of([])
    share = max(1, round(total / len(per_instance)))
    costs_list: list[float] = []
    remaining = total
    for per_act in per_instance:
        take = min(share, remaining)
        costs_list.extend([per_act] * take)
        remaining -= take
        if remaining <= 0:
            break
    if remaining > 0:
        costs_list.extend([per_instance[-1]] * remaining)
    return OperatorProfile.of(costs_list)


def predict(plan: LeraGraph, schedule: QuerySchedule,
            machine: Machine) -> QueryPrediction:
    """Predict the response-time band of *plan* under *schedule*.

    Returns analytic lower/ideal/worst times including start-up and
    wave sequencing; per-operator bands are exposed for inspection.
    """
    costs = machine.costs
    startup = 0.0
    operators: dict[str, OperatorPrediction] = {}
    for node in plan.nodes:
        threads = schedule.of(node.name).threads
        startup += threads * costs.thread_create
        per_queue = (costs.queue_create_pipelined
                     if node.trigger_mode != TRIGGERED
                     else costs.queue_create_triggered)
        startup += node.instances * per_queue
        profile = _estimated_profile(node, costs)
        effective = min(threads, machine.processors)
        operators[node.name] = OperatorPrediction(
            name=node.name,
            threads=threads,
            activations=profile.activations,
            total_cost=profile.total_cost,
            max_cost=profile.max_cost,
            ideal_time=profile.ideal_time(effective),
            worst_time=profile.worst_time(effective),
            lower_bound=profile.lower_bound_time(effective),
        )

    lower = ideal = worst = startup
    for wave in plan.chain_waves():
        wave_threads = sum(schedule.of(node.name).threads
                           for chain in wave for node in chain.nodes)
        dilation = machine.dilation(wave_threads)
        wave_lower = wave_ideal = wave_worst = 0.0
        for chain in wave:
            # A pipelined chain finishes somewhere between its
            # bottleneck operator's time (perfect producer/consumer
            # overlap — the lower/ideal bounds) and the sum of its
            # operators' worst times (no overlap at all — the worst
            # bound).
            chain_lower = max(operators[n.name].lower_bound
                              for n in chain.nodes)
            chain_ideal = max(operators[n.name].ideal_time
                              for n in chain.nodes)
            chain_worst = sum(operators[n.name].worst_time
                              for n in chain.nodes)
            wave_lower = max(wave_lower, chain_lower)
            wave_ideal = max(wave_ideal, chain_ideal)
            wave_worst = max(wave_worst, chain_worst)
        # The lower/ideal bounds assume no processor contention (in the
        # engine, dilation follows the *active* thread count, and
        # parked threads don't contend); the worst bound assumes the
        # full allocation stays active.
        lower += wave_lower
        ideal += wave_ideal
        worst += wave_worst * dilation
    return QueryPrediction(
        startup_time=startup,
        lower_bound=lower,
        ideal_time=ideal,
        worst_time=worst,
        operators=operators,
    )
