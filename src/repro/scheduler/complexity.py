"""Complexity estimation (compiler-provided in DBS3).

Every scheduler decision is driven by *estimated* sequential
complexities, computed from static catalog information (fragment
cardinalities) through the same cost model the engine charges.  This
mirrors DBS3, where the ESQL compiler annotates the Lera-par plan with
complexity estimates used at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lera.graph import Chain, LeraGraph, dependency_order
from repro.machine.costs import CostModel


def operator_complexity(spec, costs: CostModel) -> float:
    """Estimated total sequential work of one operator, in seconds."""
    return spec.total_complexity(costs)


def chain_complexity(chain: Chain, costs: CostModel) -> float:
    """Estimated sequential work of a whole pipeline chain."""
    return sum(operator_complexity(node.spec, costs) for node in chain.nodes)


def query_complexity(plan: LeraGraph, costs: CostModel) -> float:
    """Estimated sequential work of the full query."""
    return sum(operator_complexity(node.spec, costs) for node in plan.nodes)


@dataclass(frozen=True)
class ChainEstimate:
    """One chain with its estimated complexity and subtree total.

    ``subtree`` adds the complexities of every chain this one
    (transitively) depends on — the quantity the paper's step-2
    equations distribute threads by (e.g. ``(T1 + T2 + T3) / N3 =
    T4 / N4``).
    """

    chain: Chain
    own: float
    subtree: float


def estimate_chains(plan: LeraGraph, costs: CostModel) -> dict[int, ChainEstimate]:
    """Estimate every chain, including dependency-subtree totals."""
    chains = plan.chains()
    dependencies = plan.chain_dependencies(chains)
    own = {c.chain_id: chain_complexity(c, costs) for c in chains}
    subtree: dict[int, float] = {}
    for chain_id in dependency_order(dependencies):
        subtree[chain_id] = own[chain_id] + sum(
            subtree[d] for d in dependencies[chain_id])
    return {c.chain_id: ChainEstimate(c, own[c.chain_id], subtree[c.chain_id])
            for c in chains}
