"""Scheduler steps 1-3: thread count, chain split, operator split."""

import pytest

from repro.bench.workloads import make_join_database
from repro.errors import SchedulerError
from repro.lera.plans import assoc_join_plan, ideal_join_plan, materialized
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.machine import Machine
from repro.scheduler.allocation import (
    allocate_to_chains,
    allocate_to_operations,
    choose_thread_count,
    estimated_response_time,
)
from repro.scheduler.complexity import chain_complexity, query_complexity


@pytest.fixture
def assoc_plan(join_db):
    return assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")


class TestStepOne:
    def test_low_complexity_gets_few_threads(self):
        machine = Machine.uniform(processors=70)
        assert choose_thread_count(0.01, machine) <= 2

    def test_high_complexity_saturates_processors(self):
        machine = Machine.uniform(processors=70)
        assert choose_thread_count(10_000.0, machine) >= 69

    def test_monotone_in_complexity(self):
        machine = Machine.uniform(processors=70)
        counts = [choose_thread_count(w, machine)
                  for w in (0.1, 1.0, 10.0, 100.0)]
        assert counts == sorted(counts)

    def test_multi_user_factor_reduces(self):
        machine = Machine.uniform(processors=70)
        single = choose_thread_count(1000.0, machine)
        shared = choose_thread_count(1000.0, machine, multi_user_factor=0.5)
        assert shared <= single
        assert shared >= 1

    def test_rejects_bad_inputs(self):
        machine = Machine.uniform()
        with pytest.raises(SchedulerError):
            choose_thread_count(-1.0, machine)
        with pytest.raises(SchedulerError):
            choose_thread_count(1.0, machine, multi_user_factor=0.0)

    def test_estimated_response_has_tradeoff(self):
        """More threads help big work, hurt tiny work (start-up)."""
        machine = Machine.uniform(processors=70)
        assert (estimated_response_time(100.0, 50, machine)
                < estimated_response_time(100.0, 1, machine))
        assert (estimated_response_time(0.001, 50, machine)
                > estimated_response_time(0.001, 1, machine))


class TestStepTwo:
    def test_single_chain_gets_all(self, assoc_plan):
        allocation = allocate_to_chains(assoc_plan, 10, DEFAULT_COSTS)
        assert list(allocation.values()) == [10]

    def test_dependent_chains_split_budget(self, join_db, catalog,
                                           small_relation):
        from repro.lera.plans import selection_plan
        from repro.lera.predicates import TRUE
        from repro.storage.partitioning import PartitioningSpec
        entry = catalog.register(small_relation, PartitioningSpec.on("key", 4))
        producer = selection_plan(entry, TRUE, node_name="pre")
        consumer = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                                   "key", "key")
        merged = materialized(producer, consumer, "pre", "join")
        allocation = allocate_to_chains(merged, 12, DEFAULT_COSTS)
        chains = merged.chains()
        by_head = {c.head.name: c.chain_id for c in chains}
        # The root (join) chain gets the full budget; its dependency
        # (the filter chain) then receives the root's budget in turn
        # (single child == whole allocation).
        assert allocation[by_head["join"]] == 12
        assert allocation[by_head["pre"]] == 12

    def test_sibling_chains_split_proportionally(self, catalog):
        """Two producer chains with 3:1 complexities split the parent's
        threads roughly 3:1 (the paper's T_i/N_i equations)."""
        from repro.lera.graph import MATERIALIZED, LeraGraph
        from repro.lera.operators import ScanFilterSpec
        from repro.lera.predicates import TRUE
        from repro.storage.fragment import Fragment
        from repro.storage.schema import Schema
        schema = Schema.of_ints("key")
        big = [Fragment("Big", i, schema, [(j,) for j in range(300)])
               for i in range(2)]
        small = [Fragment("Small", i, schema, [(j,) for j in range(100)])
                 for i in range(2)]
        sink = [Fragment("Sink", i, schema, [(j,) for j in range(10)])
                for i in range(2)]
        graph = LeraGraph()
        graph.add_node("big", ScanFilterSpec(big, TRUE, schema))
        graph.add_node("small", ScanFilterSpec(small, TRUE, schema))
        graph.add_node("sink", ScanFilterSpec(sink, TRUE, schema))
        graph.add_edge("big", "sink", MATERIALIZED)
        graph.add_edge("small", "sink", MATERIALIZED)
        allocation = allocate_to_chains(graph, 8, DEFAULT_COSTS)
        chains = graph.chains()
        by_head = {c.head.name: c.chain_id for c in chains}
        assert allocation[by_head["sink"]] == 8
        assert allocation[by_head["big"]] == 6
        assert allocation[by_head["small"]] == 2

    def test_rejects_zero_threads(self, assoc_plan):
        with pytest.raises(SchedulerError):
            allocate_to_chains(assoc_plan, 0, DEFAULT_COSTS)


class TestStepThree:
    def test_split_proportional_to_complexity(self, assoc_plan):
        chain = assoc_plan.chains()[0]
        allocation = allocate_to_operations(chain, 10, DEFAULT_COSTS)
        assert sum(allocation.values()) == 10
        # the pipelined join dominates the transmit in estimated work
        assert allocation["join"] > allocation["transmit"]

    def test_every_operation_gets_a_thread(self, assoc_plan):
        chain = assoc_plan.chains()[0]
        allocation = allocate_to_operations(chain, 1, DEFAULT_COSTS)
        assert all(threads >= 1 for threads in allocation.values())

    def test_exact_ratio_formula(self, assoc_plan):
        """NbThreads(Op) ~= chain threads * complexity ratio."""
        chain = assoc_plan.chains()[0]
        total = chain_complexity(chain, DEFAULT_COSTS)
        allocation = allocate_to_operations(chain, 20, DEFAULT_COSTS)
        for node in chain.nodes:
            expected = 20 * node.spec.total_complexity(DEFAULT_COSTS) / total
            assert abs(allocation[node.name] - expected) <= 1.0

    def test_query_complexity_positive(self, assoc_plan):
        assert query_complexity(assoc_plan, DEFAULT_COSTS) > 0
