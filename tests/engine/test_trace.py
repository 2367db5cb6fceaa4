"""Execution tracing and the Gantt renderer."""

import pytest

from repro.bench.workloads import make_join_database
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    QuerySchedule,
)
from repro.engine.trace import ExecutionTrace
from repro.errors import ReproError
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine


def _traced(plan, threads=4, strategy="random"):
    executor = Executor(Machine.uniform(processors=8),
                        ExecutionOptions(
                            observability=ObservabilityOptions(observe=True)))
    return executor.execute(plan,
                            QuerySchedule.for_plan(plan, threads, strategy))


class TestTraceCollection:
    def test_one_event_per_activation(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = _traced(plan)
        assert execution.obs is not None
        assert len(execution.obs.trace) == join_db.degree

    def test_pipeline_traces_both_operations(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = _traced(plan, threads=2)
        trace = execution.obs.trace
        assert set(trace.operations()) == {"transmit", "join"}
        join_events = [e for e in trace.events if e.operation == "join"]
        assert len(join_events) == join_db.entry_b.cardinality

    def test_tracing_off_by_default(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        executor = Executor(Machine.uniform(processors=8))
        execution = executor.execute(plan, QuerySchedule.for_plan(plan, 2))
        assert execution.obs is None

    def test_events_have_positive_duration(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        for event in _traced(plan).obs.trace.events:
            assert event.duration > 0

    def test_events_within_response_time(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = _traced(plan, threads=2)
        start, end = execution.obs.trace.span
        assert start >= execution.startup_time - 1e-9
        assert end <= execution.response_time + 1e-9

    def test_busy_time_matches_metrics(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = _traced(plan, threads=2)
        traced_busy = sum(execution.obs.trace.busy_time(t)
                          for t in execution.obs.trace.thread_ids())
        metric_busy = execution.operation("join").busy_time
        # trace records activation intervals; metrics also count queue
        # machinery, so trace <= metrics, within a small margin.
        assert traced_busy <= metric_busy + 1e-9
        assert traced_busy > metric_busy * 0.95

    def test_finalize_events_marked(self):
        from repro.lera.aggregates import AggregateExpr
        from repro.lera.plans import aggregate_plan
        from repro.storage.catalog import Catalog
        from repro.storage.partitioning import PartitioningSpec
        from repro.storage.relation import Relation
        from repro.storage.schema import Schema
        schema = Schema.of_ints("key", "grp")
        entry = Catalog().register(
            Relation("R", schema, [(i, i % 3) for i in range(60)]),
            PartitioningSpec.on("key", 4))
        plan = aggregate_plan(entry, (AggregateExpr("count"),),
                              group_by="grp")
        execution = _traced(plan, threads=2)
        kinds = {e.kind for e in execution.obs.trace.events}
        assert "finalize" in kinds


class TestTraceQueries:
    def test_empty_trace_raises(self):
        with pytest.raises(ReproError):
            ExecutionTrace().span
        with pytest.raises(ReproError):
            ExecutionTrace().gantt()


class TestGantt:
    def test_renders_rows_and_legend(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        execution = _traced(plan, threads=2)
        chart = execution.obs.trace.gantt(width=40)
        lines = chart.splitlines()
        # header + one row per thread + legend
        assert len(lines) == 1 + 4 + 1
        assert "legend:" in lines[-1]
        assert "transmit" in lines[-1]
        assert all("|" in line for line in lines[1:-1])

    def test_golden_rendering(self):
        """Pin the exact rendering of a tiny hand-built trace."""
        trace = ExecutionTrace()
        trace.record(0, "scan", "activation", 0.0, 1.0)
        trace.record(1, "join", "activation", 0.0, 2.0)
        trace.record(0, "join", "finalize", 1.0, 2.0)
        expected = "\n".join([
            "virtual time 0.000s .. 2.000s (0.2500s per column)",
            "t  0 |aaaaBBBB|",
            "t  1 |bbbbbbbb|",
            "legend: a=scan, b=join (uppercase = finalize), · = idle",
        ])
        assert trace.gantt(width=8) == expected

    def test_idle_columns_dotted(self):
        trace = ExecutionTrace()
        trace.record(0, "scan", "activation", 0.0, 1.0)
        trace.record(0, "scan", "activation", 3.0, 4.0)
        row = trace.gantt(width=8).splitlines()[1]
        assert row == "t  0 |aa····aa|"

    def test_many_operations_share_glyphs_explicitly(self):
        """With more operations than glyphs the legend disambiguates
        instead of silently reusing letters."""
        from repro.engine.trace import _GLYPHS
        trace = ExecutionTrace()
        count = len(_GLYPHS) + 8
        for i in range(count):
            trace.record(0, f"op{i:03d}", "activation",
                         float(i), float(i) + 1.0)
        chart = trace.gantt(width=40)
        legend = chart.splitlines()[-2]
        note = chart.splitlines()[-1]
        assert f"a=op000|op{len(_GLYPHS):03d}" in legend
        assert f"note: {count} operations share {len(_GLYPHS)} glyphs" in note

    def test_few_operations_have_unique_glyphs_and_no_note(self, join_db):
        plan = assoc_join_plan(join_db.entry_a, join_db.entry_b, "key", "key")
        chart = _traced(plan, threads=2).obs.trace.gantt(width=40)
        assert "note:" not in chart

    def test_skew_straggler_visible(self, skewed_join_db):
        """The Gantt makes the Pmax straggler literally visible: one
        thread's row is busy long after the others idle."""
        plan = ideal_join_plan(skewed_join_db.entry_a, skewed_join_db.entry_b,
                               "key", "key")
        execution = _traced(plan, threads=8, strategy="lpt")
        trace = execution.obs.trace
        ends = [max((e.end for e in trace.events_of(t)), default=0.0)
                for t in trace.thread_ids()]
        assert max(ends) > 1.5 * sorted(ends)[len(ends) // 2]
