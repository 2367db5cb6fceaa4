"""Consumption strategies.

"For each operation, we must decide on the consumption strategy.
Currently, DBS3 supports two strategies: Random and LPT.  For all
strategies, main queues are always considered first."  (Section 3,
step 4.)

The strategy only picks *which* non-empty candidate queue a thread
serves next; the main-before-secondary discipline is enforced by the
simulator, which builds the candidate list.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from operator import attrgetter

from repro.engine.queues import ActivationQueue
from repro.errors import ExecutionError

RANDOM = "random"
LPT = "lpt"
ROUND_ROBIN = "round_robin"
STRATEGIES = (RANDOM, LPT, ROUND_ROBIN)
_LPT_KEY = attrgetter("lpt_key")


class ConsumptionStrategy(ABC):
    """Chooses one queue among the candidates holding ready activations."""

    name: str = "abstract"

    @abstractmethod
    def choose(self, rng: random.Random,
               candidates: list[ActivationQueue]) -> ActivationQueue:
        """Pick a queue; *candidates* is non-empty."""


class RandomStrategy(ConsumptionStrategy):
    """The default: uniformly random among the non-empty queues.

    "Each thread randomly chooses one queue among the non-empty ones,
    associated with the operation."
    """

    name = RANDOM

    def choose(self, rng: random.Random,
               candidates: list[ActivationQueue]) -> ActivationQueue:
        if len(candidates) == 1:
            return candidates[0]
        return candidates[rng.randrange(len(candidates))]


class LPTStrategy(ConsumptionStrategy):
    """Longest Processing Time first [Graham69].

    "Each thread chooses the activation queue which contains the most
    expensive activations."  DBS3 does not estimate per-activation
    times at run time; queues are ranked by static fragment-size
    information captured in ``cost_estimate``; among equal estimates
    the lowest instance wins (``ActivationQueue.lpt_key``).
    """

    name = LPT

    def choose(self, rng: random.Random,
               candidates: list[ActivationQueue]) -> ActivationQueue:
        return max(candidates, key=_LPT_KEY)


class RoundRobinStrategy(ConsumptionStrategy):
    """Deterministic rotation over candidates (an extra strategy slot;
    the paper notes "other strategies can also be added")."""

    name = ROUND_ROBIN

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, rng: random.Random,
               candidates: list[ActivationQueue]) -> ActivationQueue:
        choice = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return choice


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
