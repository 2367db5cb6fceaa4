"""Analytical predictor vs simulated executions."""

import pytest

from repro.analysis.predictor import predict
from repro.bench.workloads import make_join_database
from repro.engine.executor import Executor, QuerySchedule
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler

MACHINE = Machine.uniform(processors=16)


def _predict_and_measure(plan, threads, strategy=None):
    schedule = AdaptiveScheduler(MACHINE).schedule(plan, threads)
    if strategy is not None:
        schedule = schedule.with_strategy("join", strategy)
    prediction = predict(plan, schedule, MACHINE)
    execution = Executor(MACHINE).execute(plan, schedule)
    return prediction, execution


class TestBandStructure:
    def test_band_ordering(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        prediction, _ = _predict_and_measure(plan, 4)
        assert prediction.startup_time <= prediction.lower_bound
        assert prediction.lower_bound <= prediction.worst_time
        assert prediction.ideal_time <= prediction.worst_time

    def test_operator_predictions_exposed(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        prediction, _ = _predict_and_measure(plan, 4)
        assert set(prediction.operators) == {"transmit", "join"}
        join = prediction.operators["join"]
        assert join.activations == join_db.entry_b.cardinality

    def test_nmax_from_estimates(self, skewed_join_db):
        plan = ideal_join_plan(skewed_join_db.entry_a, skewed_join_db.entry_b,
                               "key", "key")
        prediction, _ = _predict_and_measure(plan, 4)
        stats = skewed_join_db.entry_a.statistics
        expected = stats.total / stats.largest
        assert prediction.operators["join"].nmax == pytest.approx(
            expected, rel=0.05)


class TestAgainstSimulation:
    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("threads", [2, 8])
    def test_ideal_join_inside_band(self, theta, threads):
        database = make_join_database(5000, 500, degree=25, theta=theta)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        prediction, execution = _predict_and_measure(plan, threads,
                                                     strategy="lpt")
        assert prediction.contains(execution.response_time), \
            (f"measured {execution.response_time:.3f} outside "
             f"[{prediction.lower_bound:.3f}, {prediction.worst_time:.3f}]")

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_assoc_join_inside_band(self, theta):
        database = make_join_database(5000, 500, degree=25, theta=theta)
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        prediction, execution = _predict_and_measure(plan, 6)
        # The transmit pipeline's queueing sits outside the analysis:
        # a 15 % band, wider than contains()'s.
        assert (prediction.lower_bound * 0.85 <= execution.response_time
                <= prediction.worst_time * 1.15)

    def test_skewed_measured_hits_lower_bound(self):
        """With LPT, a heavily skewed triggered join runs at its Pmax
        lower bound — the predictor should pinpoint it."""
        database = make_join_database(20_000, 2000, degree=50, theta=1.0)
        plan = ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        prediction, execution = _predict_and_measure(plan, 10, strategy="lpt")
        assert execution.response_time == pytest.approx(
            prediction.lower_bound, rel=0.05)

    def test_startup_predicted_exactly(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        prediction, execution = _predict_and_measure(plan, 4)
        assert prediction.startup_time == pytest.approx(
            execution.startup_time)

    def test_two_wave_plan_predicted(self):
        from repro.bench.workloads import skewed_fragments
        from repro.lera.plans import chain_join_plan
        from repro.storage.catalog import Catalog
        from repro.storage.partitioning import PartitioningSpec
        database = make_join_database(2000, 200, degree=10, theta=0.0)
        relation_c, fragments_c = skewed_fragments("C", 300, 8, 0.0)
        entry_c = Catalog().register_fragments(
            relation_c, PartitioningSpec.on("key", 8), fragments_c)
        plan = chain_join_plan(database.entry_a, database.entry_b,
                               "key", "key", [(entry_c, "key", "key")])
        prediction, execution = _predict_and_measure(plan, 6)
        # estimates of the materialized intermediate are approximate;
        # a generous band still has to hold
        assert execution.response_time <= prediction.worst_time * 1.5
        assert execution.response_time >= prediction.startup_time
