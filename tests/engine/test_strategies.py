"""Consumption strategies: Random, LPT, RoundRobin."""

import random

import pytest

from repro.engine.queues import ActivationQueue
from repro.engine.strategies import (
    LPTStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    make_strategy,
)
from repro.errors import ExecutionError


def _queues(estimates):
    return [ActivationQueue("op", i, "triggered", cost_estimate=e)
            for i, e in enumerate(estimates)]


class TestRandomStrategy:
    def test_single_candidate_shortcut(self):
        queues = _queues([1.0])
        assert RandomStrategy().choose(random.Random(0), queues) is queues[0]

    def test_covers_all_candidates(self):
        queues = _queues([1.0, 1.0, 1.0])
        rng = random.Random(0)
        strategy = RandomStrategy()
        chosen = {strategy.choose(rng, queues).instance for _ in range(100)}
        assert chosen == {0, 1, 2}

    def test_deterministic_for_seed(self):
        queues = _queues([1.0] * 5)
        picks_a = [RandomStrategy().choose(random.Random(7), queues).instance
                   for _ in range(1)]
        picks_b = [RandomStrategy().choose(random.Random(7), queues).instance
                   for _ in range(1)]
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
        queues = _queues([1.0, 9.0, 3.0])
        assert LPTStrategy().choose(random.Random(0), queues).instance == 1

    def test_tie_breaks_on_lower_instance(self):
        queues = _queues([5.0, 5.0])
        assert LPTStrategy().choose(random.Random(0), queues).instance == 0

    def test_ignores_rng(self):
        queues = _queues([1.0, 2.0])
        for seed in range(5):
            assert LPTStrategy().choose(random.Random(seed), queues).instance == 1

    def test_lpt_order_matches_descending_estimates(self):
        """Serving queues in LPT order processes the most expensive
        activations with highest priority, as in [Graham69]."""
        queues = _queues([2.0, 8.0, 5.0, 1.0])
        strategy = LPTStrategy()
        order = []
        remaining = list(queues)
        while remaining:
            pick = strategy.choose(random.Random(0), remaining)
            order.append(pick.instance)
            remaining.remove(pick)
        assert order == [1, 2, 0, 3]


class TestRoundRobinStrategy:
    def test_rotates(self):
        queues = _queues([1.0, 1.0, 1.0])
        strategy = RoundRobinStrategy()
        rng = random.Random(0)
        picks = [strategy.choose(rng, queues).instance for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("random", RandomStrategy),
        ("lpt", LPTStrategy),
        ("round_robin", RoundRobinStrategy),
    ])
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_strategy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ExecutionError):
            make_strategy("greedy")
