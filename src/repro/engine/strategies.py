"""Consumption strategies.

"For each operation, we must decide on the consumption strategy.
Currently, DBS3 supports two strategies: Random and LPT.  For all
strategies, main queues are always considered first."  (Section 3,
step 4.)

The strategy only picks *which* ready instance a thread serves next;
the main-before-secondary discipline is enforced by the simulator,
whose selection hands over the ready instance ids unsorted.  Random and
RoundRobin sort them (Random only when it draws); LPT is order-free.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import ExecutionError

RANDOM = "random"
LPT = "lpt"
ROUND_ROBIN = "round_robin"
STRATEGIES = (RANDOM, LPT, ROUND_ROBIN)


class ConsumptionStrategy(ABC):
    """Chooses one instance among those holding ready activations."""

    name: str = "abstract"

    @abstractmethod
    def choose(self, rng: random.Random, ready: list[int],
               keys: list[int]) -> int:
        """Pick from *ready* (non-empty, unsorted, the strategy's to
        reorder); *keys* is the operation's :func:`lpt_keys`."""


class RandomStrategy(ConsumptionStrategy):
    """The default: uniformly random among the non-empty queues.

    "Each thread randomly chooses one queue among the non-empty ones,
    associated with the operation."
    """

    name = RANDOM

    def choose(self, rng: random.Random, ready: list[int],
               keys: list[int]) -> int:
        if len(ready) == 1:
            return ready[0]
        ready.sort()
        return ready[rng.randrange(len(ready))]


class LPTStrategy(ConsumptionStrategy):
    """Longest Processing Time first [Graham69].

    "Each thread chooses the activation queue which contains the most
    expensive activations."  DBS3 does not estimate per-activation
    times at run time; queues are ranked by static fragment-size
    information captured in ``cost_estimate``; among equal estimates
    the lowest instance wins (both folded into :func:`lpt_keys`).
    """

    name = LPT

    def choose(self, rng: random.Random, ready: list[int],
               keys: list[int]) -> int:
        return max(ready, key=keys.__getitem__)


class RoundRobinStrategy(ConsumptionStrategy):
    """Deterministic rotation over candidates (an extra strategy slot;
    the paper notes "other strategies can also be added")."""

    name = ROUND_ROBIN

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, rng: random.Random, ready: list[int],
               keys: list[int]) -> int:
        ready.sort()
        choice = ready[self._cursor % len(ready)]
        self._cursor += 1
        return choice


def lpt_keys(estimates: list[float]) -> list[int]:
    """LPT's rank of each instance: higher for a dearer estimate and,
    among equal estimates, for the lower instance (the stable sort
    keeps ties in descending instance order)."""
    keys = [0] * len(estimates)
    for rank, instance in enumerate(sorted(
            range(len(estimates) - 1, -1, -1), key=estimates.__getitem__)):
        keys[instance] = rank
    return keys


def make_strategy(name: str) -> ConsumptionStrategy:
    """Instantiate a strategy by name (one instance per operation)."""
    if name == RANDOM:
        return RandomStrategy()
    if name == LPT:
        return LPTStrategy()
    if name == ROUND_ROBIN:
        return RoundRobinStrategy()
    raise ExecutionError(f"unknown consumption strategy {name!r}; "
                         f"expected one of {STRATEGIES}")
