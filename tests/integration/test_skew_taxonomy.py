"""Skew-taxonomy workload construction invariants."""

import pytest

from repro.bench.skew_taxonomy import (
    make_avs_workload,
    make_jps_workload,
    make_rs_workload,
    make_ss_workload,
)
from repro.engine.executor import Executor, QuerySchedule
from repro.machine.machine import Machine
from repro.storage.tuples import stable_hash

MACHINE = Machine.uniform(processors=8)

def all_workloads():
    return [make() for make in (make_avs_workload, make_ss_workload,
                                        make_rs_workload, make_jps_workload)]


def _run(workload, threads=4):
    executor = Executor(MACHINE)
    return executor.execute(workload.plan,
                            QuerySchedule.for_plan(workload.plan, threads))


class TestConstruction:
    def test_all_workloads_build(self):
        kinds = [w.kind for w in all_workloads()]
        assert kinds == ["AVS/TPS", "SS", "RS", "JPS"]

    def test_stored_fragments_hash_partitioned(self):
        for workload in all_workloads():
            degree = workload.entry_s.degree
            for fragment in workload.entry_s.fragments:
                for row in fragment.rows:
                    assert stable_hash(row[0]) % degree == fragment.index

    def test_avs_has_skewed_stored_fragments(self):
        workload = make_avs_workload()
        assert workload.entry_s.statistics.skew_ratio > 2.0

    def test_rs_has_uniform_stored_fragments(self):
        workload = make_rs_workload()
        assert workload.entry_s.statistics.skew_ratio < 1.2


class TestResultsAreReal:
    def test_avs_join_matches_reference(self):
        workload = make_avs_workload()
        execution = _run(workload)
        reference = workload.entry_r.relation.join(
            workload.entry_s.relation, "key", "key")
        assert execution.result_cardinality == reference.cardinality

    def test_ss_filter_halves_stream(self):
        workload = make_ss_workload()
        execution = _run(workload)
        join = execution.operation("join")
        assert join.activations == workload.entry_r.cardinality // 2

    def test_jps_hot_key_multiplies_output(self):
        workload = make_jps_workload()
        execution = _run(workload)
        base = make_avs_workload()  # same R size, no hot key
        assert execution.result_cardinality > workload.entry_r.cardinality

    def test_rs_floods_few_queues(self):
        workload = make_rs_workload()
        execution = _run(workload)
        assert execution.operation("join").queue_imbalance() > 2.0


class TestMetricsSupport:
    def test_queue_activations_sum_to_enqueues(self):
        workload = make_rs_workload()
        execution = _run(workload)
        join = execution.operation("join")
        filter_metrics = execution.operation("filter")
        assert sum(join.queue_activations) == filter_metrics.enqueues

    def test_activation_outputs_sum_to_emitted(self):
        workload = make_avs_workload()
        execution = _run(workload)
        join = execution.operation("join")
        assert join.emitted == join.result_count
