"""Thread allocation — scheduler steps 1 to 3.

Step 1 chooses the query's total thread count from its estimated
complexity (minimizing estimated response time, start-up included, as
in [Wilschut92]), optionally damped for multi-user throughput
([Rahm93]).  Step 2 distributes the total over the chain tree by
solving the proportional-complexity equation system of Section 3.
Step 3 splits each chain's threads over its operators by complexity
ratio.  The workload layer's "step 0" (:func:`allocate_to_queries`)
applies the same proportional split across running queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.lera.graph import Chain, LeraGraph
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.scheduler.complexity import estimate_chains, operator_complexity

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.explain import ScheduleExplanation


def estimated_response_time(work: float, threads: int, machine: Machine) -> float:
    """Estimated response time of *work* on *threads* threads.

    ``T(N) = N * thread_create + (work / min(N, p)) * dilation(N)`` —
    the start-up term grows with the degree of parallelism while the
    execution term shrinks, so low-complexity queries get few threads.
    """
    if threads < 1:
        raise SchedulerError(f"threads must be >= 1, got {threads}")
    startup = threads * machine.costs.thread_create
    effective = min(threads, machine.processors)
    return startup + (work / effective) * machine.dilation(threads)


def choose_thread_count(work: float, machine: Machine,
                        multi_user_factor: float = 1.0,
                        explain: "ScheduleExplanation | None" = None) -> int:
    """Step 1: the thread count minimizing estimated response time.

    Args:
        work: Estimated sequential complexity of the query, seconds.
        machine: Target machine (processor count, cost model).
        multi_user_factor: In (0, 1]; scales the single-user optimum
            down to raise multi-user throughput, the [Rahm93] hook.
        explain: Optional decision recorder (purely passive).

    Returns:
        The chosen thread count, at least 1.
    """
    if work < 0:
        raise SchedulerError(f"work must be >= 0, got {work}")
    if not 0 < multi_user_factor <= 1:
        raise SchedulerError(
            f"multi_user_factor must be in (0, 1], got {multi_user_factor}")
    ceiling = machine.processors
    best_n, best_t = 1, estimated_response_time(work, 1, machine)
    for n in range(2, ceiling + 1):
        t = estimated_response_time(work, n, machine)
        if t < best_t:
            best_n, best_t = n, t
    chosen = max(1, round(best_n * multi_user_factor))
    if explain is not None:
        from repro.obs.explain import STEP_THREAD_COUNT
        explain.record(
            STEP_THREAD_COUNT, "query", chosen,
            "minimizes estimated response time (start-up included)",
            work=work, processors=machine.processors, ceiling=ceiling,
            single_user_optimum=best_n, estimated_time=best_t,
            multi_user_factor=multi_user_factor)
    return chosen


def _largest_remainder(total: int, weights: list[float],
                       minimum: int = 1) -> list[int]:
    """Split *total* integer units proportionally to *weights*.

    Every share is at least *minimum*; the sum equals
    ``max(total, minimum * len(weights))``.
    """
    count = len(weights)
    if count == 0:
        raise SchedulerError("nothing to allocate to")
    total = max(total, minimum * count)
    weight_sum = sum(weights)
    if weight_sum <= 0:
        weights = [1.0] * count
        weight_sum = float(count)
    raw = [total * w / weight_sum for w in weights]
    shares = [max(minimum, int(r)) for r in raw]
    # Largest-remainder correction toward the exact total.
    while sum(shares) > total:
        # Over minimum budget because of the max(minimum, .) clamps;
        # shave the most over-allocated shares above the minimum.
        candidates = [i for i in range(count) if shares[i] > minimum]
        if not candidates:
            break
        victim = max(candidates, key=lambda i: shares[i] - raw[i])
        shares[victim] -= 1
    remainders = sorted(range(count), key=lambda i: raw[i] - shares[i],
                        reverse=True)
    index = 0
    while sum(shares) < total:
        shares[remainders[index % count]] += 1
        index += 1
    return shares


def allocate_to_queries(budget: int, demands: list[int],
                        complexities: list[float]) -> list[int]:
    """Workload step 0: split the machine's budget across running queries.

    The same proportional-complexity equation system the paper applies
    across subqueries (step 2), lifted one level: each *running* query
    is weighted by its estimated remaining complexity, and its grant is
    capped at its *demand* — the thread count its own four-step
    schedule asked for — because threads beyond the demand would sit
    idle in pools the query never builds.

    A lone query always receives its full demand, whatever the budget:
    this is the rule that lets :meth:`~repro.engine.executor.Executor
    .execute` be a one-query workload whose schedule applies as written.

    Args:
        budget: Machine thread budget to distribute (>= 1).
        demands: Per-query demanded thread count (each >= 1).
        complexities: Per-query estimated complexity weights.

    Returns:
        Per-query grants, aligned with *demands*; each grant is in
        ``[1, demand]`` and the grants sum to at most
        ``max(budget, len(demands))`` (never less when demand allows).
    """
    count = len(demands)
    if count == 0:
        raise SchedulerError("nothing to allocate to")
    if len(complexities) != count:
        raise SchedulerError(
            f"{count} demands but {len(complexities)} complexities")
    if budget < 1:
        raise SchedulerError(f"budget must be >= 1, got {budget}")
    for demand in demands:
        if demand < 1:
            raise SchedulerError(f"demands must be >= 1, got {demand}")

    if count == 1:
        grants = [demands[0]]
    else:
        # Water-filling: proportional shares, demand caps, surplus
        # redistributed among the still-uncapped queries.
        grants = [0] * count
        open_queries = list(range(count))
        remaining = budget
        while open_queries:
            shares = _largest_remainder(
                remaining, [complexities[i] for i in open_queries])
            capped = [(i, share) for i, share in zip(open_queries, shares)
                      if share >= demands[i]]
            if not capped:
                for i, share in zip(open_queries, shares):
                    grants[i] = share
                break
            for i, _ in capped:
                grants[i] = demands[i]
                remaining -= demands[i]
            open_queries = [i for i in open_queries if grants[i] == 0]
            if remaining < len(open_queries):
                # Budget exhausted by the caps: floor of one each.
                for i in open_queries:
                    grants[i] = 1
                break
    return grants


def allocate_to_chains(plan: LeraGraph, total_threads: int,
                       costs: CostModel,
                       explain: "ScheduleExplanation | None" = None
                       ) -> dict[int, int]:
    """Step 2: threads per chain via the inverted-tree equation system.

    The root chains (no dependents) share the full budget; each
    chain's budget is then split among the chains it depends on,
    proportionally to their *subtree* complexities — solving the
    paper's equations ``N3 + N4 = N5``, ``(T1+T2+T3)/N3 = T4/N4``, ...
    recursively.
    """
    if total_threads < 1:
        raise SchedulerError(f"total_threads must be >= 1, got {total_threads}")
    chains = plan.chains()
    estimates = estimate_chains(plan, costs)
    dependencies = plan.chain_dependencies(chains)
    dependents: dict[int, set[int]] = {c.chain_id: set() for c in chains}
    for chain_id, deps in dependencies.items():
        for dep in deps:
            dependents[dep].add(chain_id)

    allocation: dict[int, int] = {}
    roots = [c.chain_id for c in chains if not dependents[c.chain_id]]
    root_shares = _largest_remainder(
        total_threads, [estimates[r].subtree for r in roots])
    frontier = [(chain_id, share, None)
                for chain_id, share in zip(roots, root_shares)]
    while frontier:
        chain_id, budget, parent = frontier.pop()
        allocation[chain_id] = budget
        if explain is not None:
            from repro.obs.explain import STEP_CHAIN_SPLIT
            explain.record(
                STEP_CHAIN_SPLIT, f"chain:{chain_id}", budget,
                ("share of the query budget" if parent is None
                 else f"share of chain:{parent}'s budget"),
                subtree_complexity=estimates[chain_id].subtree,
                parent_budget=(total_threads if parent is None
                               else allocation[parent]))
        children = sorted(dependencies[chain_id])
        if not children:
            continue
        child_shares = _largest_remainder(
            budget, [estimates[c].subtree for c in children])
        frontier.extend((child, share, chain_id)
                        for child, share in zip(children, child_shares))
    return allocation


def allocate_to_operations(chain: Chain, chain_threads: int,
                           costs: CostModel,
                           explain: "ScheduleExplanation | None" = None
                           ) -> dict[str, int]:
    """Step 3: a chain's threads, split by operator complexity ratio.

    ``NbThreads(Op_i) = NbThreads(Chain) * Complexity(Op_i) /
    Complexity(Chain)``, with every operator getting at least one
    thread (the engine needs a pool per operator).
    """
    weights = [operator_complexity(node.spec, costs) for node in chain.nodes]
    shares = _largest_remainder(chain_threads, weights)
    if explain is not None:
        from repro.obs.explain import STEP_OPERATION_SPLIT
        chain_weight = sum(weights)
        for node, weight, share in zip(chain.nodes, weights, shares):
            explain.record(
                STEP_OPERATION_SPLIT, node.name, share,
                f"complexity share of chain:{chain.chain_id}",
                complexity=weight, chain_complexity=chain_weight,
                chain_threads=chain_threads)
    return {node.name: share for node, share in zip(chain.nodes, shares)}
