"""Property-based tests on the execution engine's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import make_join_database
from repro.engine.executor import Executor, QuerySchedule
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine

databases = st.builds(
    make_join_database,
    card_a=st.integers(min_value=50, max_value=800),
    card_b=st.integers(min_value=10, max_value=80),
    degree=st.integers(min_value=2, max_value=16),
    theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _run_ideal(database, threads, strategy="random", seed=0):
    plan = ideal_join_plan(database.entry_a, database.entry_b, "key", "key")
    executor = Executor(Machine.uniform(processors=16))
    return executor.execute(
        plan, QuerySchedule.for_plan(plan, threads, strategy=strategy))


class TestEngineInvariants:
    @given(database=databases,
           threads=st.integers(min_value=1, max_value=12),
           strategy=st.sampled_from(["random", "lpt"]))
    @settings(max_examples=30, deadline=None)
    def test_every_activation_consumed_exactly_once(self, database, threads,
                                                    strategy):
        execution = _run_ideal(database, threads, strategy)
        join = execution.operation("join")
        assert join.activations == database.degree

    @given(database=databases,
           threads=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_result_cardinality_invariant(self, database, threads):
        execution = _run_ideal(database, threads)
        assert execution.result_cardinality == database.expected_matches

    @given(database=databases,
           threads=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_response_bounded_by_analysis(self, database, threads):
        """startup + Tideal <= response; response stays under a slack
        multiple of the worst bound plus machinery overhead."""
        execution = _run_ideal(execution_db := database, threads)
        profile = execution.operation("join").profile()
        lower = execution.startup_time + profile.ideal_time(threads)
        assert execution.response_time >= lower - 1e-9

    @given(database=databases,
           threads=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_assoc_join_conserves_tuples(self, database, threads):
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        executor = Executor(Machine.uniform(processors=16))
        execution = executor.execute(plan, QuerySchedule.for_plan(plan, threads))
        transmit = execution.operation("transmit")
        join = execution.operation("join")
        # every transmitted tuple becomes exactly one join activation
        assert transmit.enqueues == database.entry_b.cardinality
        assert join.activations == database.entry_b.cardinality
        assert execution.result_cardinality == database.expected_matches

    @given(database=databases)
    @settings(max_examples=20, deadline=None)
    def test_busy_time_equals_clock_progress(self, database):
        execution = _run_ideal(database, 4)
        join = execution.operation("join")
        # busy + idle fills each thread's lifetime exactly
        span = join.finished_at - join.started_at
        assert join.busy_time + join.idle_time <= span * join.threads + 1e-6
