"""The serving layer through the engine and Session API.

Contracts under test: ``serving=None`` and a default
``ServingPolicy()`` produce bit-identical runs (the escape hatch);
a bounded queue sheds the policy's victim pre-admission with the
full client surface intact (terminal status, ``QueryShedError``,
``query.reject`` event, backpressure signal, span reject reason,
report serving section); memory- and deadline-infeasible queries
become ``rejected``/``shed`` statuses instead of raising into the
open-loop stream; and brownout without monitor rules never trips.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    ServingPolicy,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import Executor
from repro.errors import QueryRejectedError, QueryShedError
from repro.faults.plan import ActivationFaults, FaultPlan
from repro.lera.graph import LeraGraph
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_REJECT,
    SERVE_BACKPRESSURE,
    SERVE_BROWNOUT,
)
from repro.obs.monitor import POINT_FINISH
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.serve.arrivals import make_arrival_process
from repro.serve.harness import (
    build_submissions,
    default_templates,
    serving_machine,
)
from repro.workload import engine as engine_module
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    _WorkloadRun,
)
from repro.workload.session import DONE, REJECTED, SHED

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


@pytest.fixture
def db():
    options = ExecutionOptions(
        observability=ObservabilityOptions(trace=True, observe=True))
    db = DBS3(processors=16, options=options)
    db.create_table(generate_wisconsin("A", 600, seed=1), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("B", 60, seed=2), "unique1",
                    degree=8)
    return db


def _submit_wave(session, count=4, **kwargs):
    return [session.submit(SQL, at=i * 0.01, threads=8, tag=f"q{i}",
                           **{k: (v[i] if isinstance(v, (list, tuple)) else v)
                              for k, v in kwargs.items()})
            for i in range(count)]


class TestEscapeHatch:
    def test_default_policy_is_bit_identical_to_serving_off(self, db):
        runs = {}
        for name, serving in (("off", None), ("on", ServingPolicy())):
            session = db.session(WorkloadOptions(max_concurrent=2,
                                                 serving=serving))
            _submit_wave(session)
            runs[name] = session.run()
        off, on = runs["off"], runs["on"]
        assert on.makespan == off.makespan
        for tag in ("q0", "q1", "q2", "q3"):
            assert on.status_of(tag) == off.status_of(tag) == DONE
            assert (on.execution(tag).response_time
                    == off.execution(tag).response_time)
            assert (on.execution(tag).result_rows
                    == off.execution(tag).result_rows)


class TestQueueBoundShedding:
    def run_overloaded(self, db):
        session = db.session(WorkloadOptions(
            max_concurrent=1,
            serving=ServingPolicy(policy="priority", queue_limit=1)))
        # q0 is admitted immediately; q1 (the only high-priority
        # waiter) holds the one queue slot; q2 and q3 overflow it and
        # the priority policy sheds the lowest-priority youngest.
        handles = _submit_wave(session, priority=[0, 5, 0, 0])
        return handles, session.run()

    def test_victims_reach_a_shed_terminal_status(self, db):
        handles, result = self.run_overloaded(db)
        statuses = [h.status for h in handles]
        assert statuses == [DONE, DONE, SHED, SHED]
        assert result.status_of("q2") == SHED

    def test_result_refuses_with_query_shed_error(self, db):
        handles, _ = self.run_overloaded(db)
        with pytest.raises(QueryShedError, match="load-shed"):
            handles[2].result()
        # Partial metrics stay reachable; a shed query never
        # materialized, so it carries no operations.
        assert handles[2].execution.status == SHED
        assert not handles[2].execution.operations

    def test_reject_event_and_backpressure_signal(self, db):
        _, result = self.run_overloaded(db)
        rejects = [e for e in result.bus.events if e.kind == QUERY_REJECT]
        assert {e.operation for e in rejects} == {"q2", "q3"}
        assert all(e.data["reason"] == "queue_full" for e in rejects)
        assert all(e.data["status"] == SHED for e in rejects)
        pressure = [e for e in result.bus.events
                    if e.kind == SERVE_BACKPRESSURE]
        assert pressure and pressure[0].data["engaged"] is True
        # The queue drains by the end of the run, so the signal must
        # also disengage — backpressure is a level, not a latch.
        assert pressure[-1].data["engaged"] is False

    def test_span_and_report_surface_the_shed(self, db):
        _, result = self.run_overloaded(db)
        span = result.spans.of("q2")
        assert span.status == SHED
        assert span.reject_reason == "queue_full"
        assert not span.admitted
        assert span.terminal_events == 1
        report = result.report()
        assert report.statuses[SHED] == 2
        assert report.serving["shed"] == 2
        assert report.serving["reasons"] == {"queue_full": 2}
        assert not report.problems


class TestInfeasibleRejection:
    def test_memory_infeasible_is_rejected_not_raised(self, db):
        session = db.session(WorkloadOptions(
            memory_limit_bytes=16, serving=ServingPolicy()))
        handle = session.submit(SQL, threads=8, tag="huge")
        session.run()
        assert handle.status == REJECTED
        with pytest.raises(QueryRejectedError, match="rejected at admission"):
            handle.result()
        rejects = [e for e in session.result.bus.events
                   if e.kind == QUERY_REJECT]
        assert rejects[0].data["reason"] == "memory_infeasible"
        assert session.result.report().serving["rejected"] == 1

    def test_edf_sheds_a_provably_doomed_deadline(self, db):
        session = db.session(WorkloadOptions(
            serving=ServingPolicy(policy="edf")))
        # The sequential start-up alone overruns a deadline this
        # tight, so EDF sheds at admission instead of burning machine
        # time on a guaranteed timeout.
        doomed = session.submit(SQL, threads=8, tag="doomed",
                                timeout=1e-9)
        fine = session.submit(SQL, threads=8, tag="fine")
        result = session.run()
        assert doomed.status == SHED
        assert fine.status == DONE
        rejects = [e for e in result.bus.events if e.kind == QUERY_REJECT]
        assert rejects[0].data["reason"] == "deadline_infeasible"


class TestBrownout:
    def test_without_monitor_rules_brownout_never_trips(self, db):
        session = db.session(WorkloadOptions(
            max_concurrent=2,
            serving=ServingPolicy(brownout=True, brownout_factor=0.5)))
        _submit_wave(session)
        result = session.run()
        assert all(result.status_of(f"q{i}") == DONE for i in range(4))
        assert not [e for e in result.bus.events
                    if e.kind == SERVE_BROWNOUT]
        assert not result.report().serving.get("brownout_tripped", False)


def _arrivals(count, rate):
    return make_arrival_process("poisson", rate).times(count, seed=0)


class TestTheLazyPathIsWhatRan:
    """Call counts and weak references, spied — the job lifecycle has
    no counter API.  400 Poisson arrivals at twice the saturation rate
    under EDF with a bounded queue, the ledger's ``serving_edf_2x`` at a
    tenth of its length."""

    MAX_CONCURRENT = 2

    @pytest.fixture(scope="class")
    def run(self):
        machine = serving_machine()
        submissions = build_submissions(
            default_templates(), _arrivals(400, 77.0), machine=machine)
        calls, keys, alive, peaks = Counter(), [], [], []

        def count_alive(now, job, **facts):
            gc.collect()
            peaks.append(sum(ref() is not None for ref in alive))

        with pytest.MonkeyPatch.context() as patch:
            def spy(owner, name, label, seen=None):
                original = getattr(owner, name)

                def wrapper(*args, **kwargs):
                    calls[label] += 1
                    value = original(*args, **kwargs)
                    if seen is not None:
                        seen(args, value)
                    return value
                patch.setattr(owner, name, wrapper)

            spy(Executor, "build_runtimes", "build",
                lambda args, runtimes: alive.extend(
                    weakref.ref(runtime) for runtime in runtimes.values()))
            spy(engine_module, "query_complexity", "complexity")
            spy(LeraGraph, "chain_waves", "waves")
            spy(engine_module, "allocate_to_queries", "allocate",
                lambda args, grants: keys.append(
                    (args[0], tuple(args[1]), tuple(args[2]))))
            spy(_WorkloadRun, "_grants", "step0")
            run = _WorkloadRun(
                machine, ExecutionOptions(), WorkloadOptions(
                    max_concurrent=self.MAX_CONCURRENT,
                    serving=ServingPolicy(policy="edf", queue_limit=6)),
                submissions)
            run.subscribe(POINT_FINISH, count_alive)
            # Everything that exists by now is out of the collector's
            # sight, so a full collection per finish walks this run only.
            gc.freeze()
            try:
                result = run.run()
            finally:
                gc.unfreeze()
        return result, submissions, calls, keys, peaks

    def test_runtimes_are_built_for_the_admitted_only(self, run):
        result, submissions, calls, _, _ = run
        statuses = Counter(e.status for e in result.executions.values())
        assert statuses[SHED] > 50 and statuses[DONE] > 200
        assert calls["build"] == len(result.bus.events_of(QUERY_ADMIT))
        assert calls["build"] == len(submissions) - statuses[SHED]

    def test_shape_is_computed_once_per_template(self, run):
        _, submissions, calls, _, _ = run
        assert len({id(s.compiled.plan) for s in submissions}) == 3
        assert calls["complexity"] == calls["waves"] == 3

    def test_step_zero_is_computed_once_per_running_set(self, run):
        _, _, calls, keys, _ = run
        assert calls["allocate"] == len(keys) == len(set(keys))
        assert calls["step0"] > 20 * calls["allocate"]

    def test_a_finished_job_lets_its_runtimes_go(self, run):
        result, submissions, _, _, peaks = run
        widest = max(len(s.compiled.plan.nodes) for s in submissions)
        assert len(peaks) == len(submissions)
        assert 0 < max(peaks) <= self.MAX_CONCURRENT * widest
        # ... and the result still has every finished operation's metrics.
        assert all(execution.operations
                   for execution in result.executions.values()
                   if execution.status == DONE)


#: The serving mix's shapes over one set of tables, so that a fresh
#: plan per arrival still fingerprints (and folds) like its template.
@pytest.fixture(scope="module")
def mix():
    machine = serving_machine()
    tables = {
        template.name: make_join_database(
            template.card_a, template.card_b, degree=2, theta=0.0,
            name_a=f"{template.name}_a", name_b=f"{template.name}_b")
        for template in default_templates()}

    def pair(template):
        tables_of = tables[template.name]
        build = assoc_join_plan if template.assoc else ideal_join_plan
        plan = build(tables_of.entry_a, tables_of.entry_b, "key", "key")
        return (CompiledQuery(plan, None, None, template.name),
                AdaptiveScheduler(machine).schedule(plan, None))
    return machine, pair


class TestHitAndMissPathsAgree:
    """The per-run shape memo is keyed on the identity of the
    ``(plan, schedule)`` pair.  One pair per template makes every job
    after a template's first a hit; one fresh pair per arrival makes
    every job a miss.  Nothing observable may tell the two apart."""

    @staticmethod
    def _run(mix, fresh, picks, shared, policy, cancel, slo, faulty,
             observe):
        machine, pair = mix
        templates = default_templates()
        pairs = {} if fresh else {t.name: pair(t) for t in templates}
        submissions = []
        for index, pick in enumerate(picks):
            template = templates[pick]
            compiled, schedule = pairs.get(template.name) or pair(template)
            submissions.append(QuerySubmission(
                f"{template.name}-{index}", compiled, schedule,
                arrival=0.004 * index,
                timeout=slo if template.slo is not None else None,
                cancel_at=(0.004 * index + 0.001 if index == cancel
                           else None),
                priority=template.priority, tenant=template.tenant))
        faults = FaultPlan(seed=3, activations=(
            ActivationFaults(rate=0.2, max_retries=6),)) if faulty else None
        return WorkloadExecutor(
            machine,
            ExecutionOptions(observability=ObservabilityOptions(
                observe=observe)),
            WorkloadOptions(
                max_concurrent=2, shared=shared, faults=faults,
                serving=ServingPolicy(policy=policy, queue_limit=4)),
        ).execute(submissions)

    @given(picks=st.lists(st.sampled_from([0, 0, 0, 1, 1, 2]),
                          min_size=6, max_size=14),
           shared=st.booleans(), policy=st.sampled_from(["edf", "fifo"]),
           cancel=st.integers(min_value=2, max_value=13),
           slo=st.sampled_from([0.05, 0.3, 2.0]),
           faulty=st.booleans(), observe=st.booleans())
    @settings(max_examples=20, deadline=None)
    @example(picks=[2, 2, 0, 1, 0, 0, 2, 1, 0, 0], shared=True,
             policy="edf", cancel=5, slo=0.05, faulty=True, observe=True)
    def test_same_arrivals_same_run(self, mix, picks, shared, policy,
                                    cancel, slo, faulty, observe):
        hit, miss = (self._run(mix, fresh, picks, shared, policy, cancel,
                               slo, faulty, observe)
                     for fresh in (False, True))
        assert hit.bus.events == miss.bus.events
        assert hit.makespan == miss.makespan and hit.errors == miss.errors
        for tag in hit.order:
            ours, theirs = hit.execution(tag), miss.execution(tag)
            assert ours.status == theirs.status
            assert ours.response_time == theirs.response_time
            assert ours.startup_time == theirs.startup_time
            assert ours.total_threads == theirs.total_threads
            assert ours.operations == theirs.operations
            assert ours.result_rows == theirs.result_rows
            if observe:
                assert ours.obs.events == theirs.obs.events
