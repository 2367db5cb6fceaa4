"""Consumption strategies: Random and LPT.

A strategy picks an instance id by position from the ready ids
selection found, handed over sorted by the strategy's rank (the id, or
``lpt_keys`` under LPT).  The property at the end holds the ranked API
to the strategies as they were when they chose among queue objects
sorted by instance (restated here as the oracle): the same instance,
and the same RNG stream, for every candidate set.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queues import ActivationQueue
from repro.engine.strategies import (
    LPTStrategy,
    RandomStrategy,
    lpt_keys,
    make_strategy,
)
from repro.errors import ExecutionError
from repro.obs.probes import queue_depth_key


def _ranked(strategy, ids, keys):
    """*ids* in *strategy*'s rank order, as selection hands them over."""
    return sorted(ids, key=keys.__getitem__ if strategy.ranks_by_cost
                  else None)


class TestRandomStrategy:
    def test_single_candidate_shortcut(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert RandomStrategy().choose(rng, [4]) == 4
        assert rng.getstate() == state      # no draw for a lone candidate

    def test_covers_all_candidates(self):
        rng = random.Random(0)
        strategy = RandomStrategy()
        chosen = {strategy.choose(rng, [0, 1, 2]) for _ in range(100)}
        assert chosen == {0, 1, 2}

    def test_deterministic_for_seed(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        picks_a = [RandomStrategy().choose(rng_a, [0, 1, 2, 3, 4])
                   for _ in range(5)]
        picks_b = [RandomStrategy().choose(rng_b, [0, 1, 2, 3, 4])
                   for _ in range(5)]
        assert picks_a == picks_b

    def test_engine_seed_variation_bounded(self):
        """Skewed Random executions vary across seeds, but modestly."""
        from repro.bench.workloads import make_join_database
        from repro.engine.executor import (
            ExecutionOptions,
            Executor,
            QuerySchedule,
        )
        from repro.lera.plans import ideal_join_plan
        from repro.machine.machine import Machine
        database = make_join_database(2000, 200, degree=20, theta=0.8)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule.for_plan(plan, 4)
        machine = Machine.uniform(processors=8)
        times = [Executor(machine, ExecutionOptions(seed=seed))
                 .execute(plan, schedule).response_time for seed in range(6)]
        mean = sum(times) / len(times)
        assert (max(times) - min(times)) / mean < 0.5


class TestLPTStrategy:
    def test_picks_most_expensive(self):
        keys = lpt_keys([1.0, 9.0, 3.0])
        strategy = LPTStrategy()
        assert strategy.choose(random.Random(0),
                               _ranked(strategy, [0, 1, 2], keys)) == 1

    def test_tie_breaks_on_lower_instance(self):
        keys = lpt_keys([5.0, 5.0])
        strategy = LPTStrategy()
        for ids in ([1, 0], [0, 1]):
            assert strategy.choose(random.Random(0),
                                   _ranked(strategy, ids, keys)) == 0

    def test_ignores_rng(self):
        keys = lpt_keys([1.0, 2.0])
        for seed in range(5):
            rng = random.Random(seed)
            state = rng.getstate()
            assert LPTStrategy().choose(rng, [0, 1]) == 1
            assert rng.getstate() == state

    def test_lpt_order_matches_descending_estimates(self):
        """Serving queues in LPT order processes the most expensive
        activations with highest priority, as in [Graham69]."""
        keys = lpt_keys([2.0, 8.0, 5.0, 1.0])
        strategy = LPTStrategy()
        order = []
        remaining = [3, 0, 2, 1]
        while remaining:
            pick = strategy.choose(random.Random(0),
                                   _ranked(strategy, remaining, keys))
            order.append(pick)
            remaining.remove(pick)
        assert order == [1, 2, 0, 3]


class TestLptKeys:
    def test_dearer_ranks_higher_and_ties_go_to_the_lower_instance(self):
        assert lpt_keys([2.0, 8.0, 2.0, 8.0]) == [1, 3, 0, 2]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("random", RandomStrategy),
        ("lpt", LPTStrategy),
    ])
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_strategy(name), cls)
        assert make_strategy(name) is make_strategy(name)    # stateless

    def test_unknown_rejected(self):
        with pytest.raises(ExecutionError):
            make_strategy("greedy")


# -- the queue-list strategies, restated as the oracle -------------------------

def _oracle_random(rng, candidates):
    if len(candidates) == 1:
        return candidates[0]
    return candidates[rng.randrange(len(candidates))]


def _oracle_lpt(rng, candidates):
    return max(candidates, key=lambda q: (q.cost_estimate, -q.instance))


ORACLES = {
    "random": _oracle_random,
    "lpt": _oracle_lpt,
}


@st.composite
def _picks(draw):
    """Estimates with forced ties, then a run of non-empty candidate
    sets."""
    degree = draw(st.integers(1, 12))
    estimates = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                              min_size=degree, max_size=degree))
    ids = st.lists(st.integers(0, degree - 1), min_size=1, unique=True)
    steps = draw(st.lists(ids, min_size=1, max_size=6))
    return estimates, steps


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), picks=_picks(),
       seed=st.integers(0, 2**32 - 1))
def test_id_choice_matches_the_queue_list_choice(name, picks, seed):
    estimates, steps = picks
    queues = [ActivationQueue("op", i, "triggered", queue_depth_key("op"),
                              cost_estimate=e)
              for i, e in enumerate(estimates)]
    keys = lpt_keys(estimates)
    strategy = make_strategy(name)
    oracle = ORACLES[name]
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for ready in steps:
        # The scan's candidate list: queue objects in instance order.
        candidates = [queues[i] for i in sorted(ready)]
        want = oracle(oracle_rng, candidates).instance
        assert strategy.choose(rng, _ranked(strategy, ready, keys)) == want
        assert rng.getstate() == oracle_rng.getstate()
