"""Consumption strategies.

"For each operation, we must decide on the consumption strategy.
Currently, DBS3 supports two strategies: Random and LPT.  For all
strategies, main queues are always considered first."  (Section 3,
step 4.)

The strategy only picks *which* ready instance a thread serves next;
the main-before-secondary discipline is enforced by the simulator.
Each strategy gives every instance one fixed *rank* — the instance id
for Random, :func:`lpt_keys` for LPT — and selection hands it the
candidate ids sorted by rank, so every pick is positional: Random
draws an index (nothing for a lone candidate), LPT takes the last.
Neither holds state, so every operation shares one instance of each.
"""

from __future__ import annotations

import random

from repro.errors import ExecutionError

RANDOM = "random"
LPT = "lpt"
STRATEGIES = (RANDOM, LPT)


class RandomStrategy:
    """The default: uniformly random among the non-empty queues.

    "Each thread randomly chooses one queue among the non-empty ones,
    associated with the operation."
    """

    name = RANDOM
    #: Ranked by the operation's :func:`lpt_keys`, else by instance id.
    ranks_by_cost = False

    def choose(self, rng: random.Random, ranked: list[int]) -> int:
        """Pick from *ranked*: the candidate instance ids, non-empty and
        in ascending rank, read-only (it may be the ready index's own
        list)."""
        if len(ranked) == 1:
            return ranked[0]
        return ranked[rng.randrange(len(ranked))]


class LPTStrategy:
    """Longest Processing Time first [Graham69].

    "Each thread chooses the activation queue which contains the most
    expensive activations."  DBS3 does not estimate per-activation
    times at run time; queues are ranked by static fragment-size
    information captured in ``cost_estimate``; among equal estimates
    the lowest instance wins (both folded into :func:`lpt_keys`).
    """

    name = LPT
    ranks_by_cost = True

    def choose(self, rng: random.Random, ranked: list[int]) -> int:
        return ranked[-1]


def lpt_keys(estimates: list[float]) -> list[int]:
    """LPT's rank of each instance, a permutation of ``range(d)``:
    higher for a dearer estimate and, among equal estimates, for the
    lower instance (the stable sort keeps ties in descending instance
    order)."""
    keys = [0] * len(estimates)
    for rank, instance in enumerate(sorted(
            range(len(estimates) - 1, -1, -1), key=estimates.__getitem__)):
        keys[instance] = rank
    return keys


_SHARED = {RANDOM: RandomStrategy(), LPT: LPTStrategy()}


def make_strategy(name: str) -> RandomStrategy | LPTStrategy:
    """The strategy named *name* (one instance shared by every
    operation)."""
    try:
        return _SHARED[name]
    except KeyError:
        raise ExecutionError(f"unknown consumption strategy {name!r}; "
                             f"expected one of {STRATEGIES}") from None
