"""The adaptive scheduler (steps 1-4) and baselines."""

from repro.scheduler.adaptive import AdaptiveScheduler, StaticScheduler
from repro.scheduler.allocation import (
    allocate_to_chains,
    allocate_to_operations,
    allocate_to_queries,
    choose_thread_count,
    estimated_response_time,
)
from repro.scheduler.complexity import (
    ChainEstimate,
    chain_complexity,
    estimate_chains,
    operator_complexity,
    query_complexity,
)
from repro.scheduler.strategy_selection import (
    DEFAULT_SKEW_THRESHOLD,
    instance_skew,
    select_strategy,
)

__all__ = [
    "AdaptiveScheduler",
    "ChainEstimate",
    "DEFAULT_SKEW_THRESHOLD",
    "StaticScheduler",
    "allocate_to_chains",
    "allocate_to_operations",
    "allocate_to_queries",
    "chain_complexity",
    "choose_thread_count",
    "estimate_chains",
    "estimated_response_time",
    "instance_skew",
    "operator_complexity",
    "query_complexity",
    "select_strategy",
]
