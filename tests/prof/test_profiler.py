"""The engine self-profiler: attribution math, the ambient ``profile()``
context manager, and the live-run coverage contract."""

import gc
import types

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.engine.dbfuncs import JoinFunc
from repro.engine.simulator import _PROFILED_SECTIONS as SIMULATOR_SECTIONS
from repro.errors import (
    ExecutionError,
    ReproError,
    WorkloadError,
)
from repro.obs.bus import QUERY_ADMIT
from repro.prof import EngineProfiler, active_profiler, profile
from repro.serve.harness import (
    build_submissions,
    default_templates,
    serving_machine,
)
from repro.workload.engine import _PROFILED_SECTIONS as RUN_SECTIONS
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    _WorkloadRun,
)


class TestAttribution:
    def _profiled(self):
        profiler = EngineProfiler()
        profiler.start()
        profiler.enter("sim")
        profiler.enter("dbfunc")
        profiler.exit()
        profiler.enter("deliver")
        profiler.exit()
        profiler.exit()
        profiler.enter("assemble")
        profiler.exit()
        profiler.stop()
        return profiler

    def test_nodes_keyed_by_path(self):
        profiler = self._profiled()
        paths = set(profiler.nodes)
        assert paths == {("sim",), ("sim", "dbfunc"),
                         ("sim", "deliver"), ("assemble",)}

    def test_self_time_excludes_children(self):
        profiler = self._profiled()
        sim_calls, sim_self, sim_total = profiler.nodes[("sim",)]
        child_total = (profiler.nodes[("sim", "dbfunc")][2]
                       + profiler.nodes[("sim", "deliver")][2])
        assert sim_calls == 1
        assert sim_self == sim_total - child_total
        # Self times are double-count-free: their sum is the
        # attributed time, which can never exceed the wall.
        assert profiler.attributed_ns() <= profiler.wall_ns

    def test_coverage_between_zero_and_one(self):
        profiler = self._profiled()
        assert 0.0 < profiler.coverage() <= 1.0
        assert EngineProfiler().coverage() == 0.0

    def test_render_mentions_every_section(self):
        rendered = self._profiled().render()
        assert "sim;dbfunc" in rendered
        assert "attributed" in rendered

    def test_json_round_trip(self):
        profiler = self._profiled()
        again = EngineProfiler.from_json(profiler.to_json())
        assert again.nodes == profiler.nodes
        assert again.wall_ns == profiler.wall_ns
        assert again.coverage() == pytest.approx(profiler.coverage())


class TestAmbientProfile:
    def test_profile_installs_and_restores(self):
        assert active_profiler() is None
        with profile() as profiler:
            assert active_profiler() is profiler
        assert active_profiler() is None
        assert profiler.wall_ns > 0

    def test_profile_blocks_do_not_nest(self):
        with profile():
            with pytest.raises(ReproError, match="do not nest"):
                with profile():
                    pass  # pragma: no cover - never reached
        assert active_profiler() is None


class TestCollectorSection:
    def test_a_collection_under_a_section_is_its_own_section(self):
        with profile() as profiler:
            profiler.enter("sim")
            gc.collect()
            profiler.exit()
            gc.collect()  # no section open: not attributed
        assert profiler.nodes[("sim", "gc")][0] >= 1
        assert ("gc",) not in profiler.nodes
        sim_calls, sim_self, sim_total = profiler.nodes[("sim",)]
        assert sim_self == sim_total - profiler.nodes[("sim", "gc")][2]

    def test_only_a_profile_block_installs_the_hook(self):
        hooks = list(gc.callbacks)
        EngineProfiler().start()
        assert gc.callbacks == hooks
        with profile():
            assert len(gc.callbacks) == len(hooks) + 1
        assert gc.callbacks == hooks
        with pytest.raises(RuntimeError):
            with profile():
                raise RuntimeError("the hook goes even on an error")
        assert gc.callbacks == hooks

    def test_collections_inside_enter_and_exit(self, monkeypatch):
        # A generation-0 threshold of 1 starts a collection at every
        # tracked allocation, so enter/exit are interrupted mid-way.  The
        # profiler's clock moves only while a collection runs (1000 ns
        # each), so any self time outside a ``gc`` node is misattributed.
        clock = [0]
        monkeypatch.setattr("repro.prof.profiler.time",
                            types.SimpleNamespace(
                                perf_counter_ns=lambda: clock[0]))

        def pause(phase, info):
            if phase == "start":
                clock[0] += 1000

        thresholds = gc.get_threshold()
        try:
            with profile() as profiler:
                gc.callbacks.append(pause)  # after the profiler's hook
                gc.set_threshold(1, 1, 1)
                for _ in range(200):
                    profiler.enter("sim")
                    profiler.enter("dbfunc")
                    profiler.exit()
                    profiler.enter("deliver")
                    profiler.exit()
                    profiler.exit()
                gc.set_threshold(*thresholds)
        finally:
            gc.set_threshold(*thresholds)
            if pause in gc.callbacks:
                gc.callbacks.remove(pause)
        assert profiler._stack == [] and not profiler._gc_open
        assert profiler.nodes[("sim",)][0] == 200
        assert profiler.nodes[("sim", "dbfunc")][0] == 200
        collected = {path: node for path, node in profiler.nodes.items()
                     if path[-1] == "gc"}
        assert collected and all(len(path) > 1 for path in collected)
        for path, (calls, self_ns, total_ns) in profiler.nodes.items():
            expected = 1000 * calls if path in collected else 0
            assert self_ns == expected, path
            children = sum(node[2] for child, node in profiler.nodes.items()
                           if child[:-1] == path)
            assert total_ns == self_ns + children, path
        assert 0.0 < profiler.coverage() <= 1.0


# -- the live run -------------------------------------------------------------

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


def _db():
    db = DBS3(processors=24)
    db.create_table(generate_wisconsin("A", 800, seed=1), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("B", 80, seed=2), "unique1",
                    degree=8)
    return db


def _run(options: WorkloadOptions | None = None):
    session = _db().session(options=options)
    session.submit(SQL)
    return session.run()


class TestProfiledRun:
    def test_profiled_workload_attributes_most_of_the_wall(self):
        # The run lasts a few milliseconds, so one scheduler hiccup
        # outside a section can sink one run's wall-clock share: the
        # 0.9 gate takes the best of three (`make profile-demo` gates it
        # on a run long enough to mean it); the structure must hold in
        # every run.
        coverages = []
        for _ in range(3):
            result = _run(WorkloadOptions(
                observability=ObservabilityOptions(profile=True)))
            assert result.profile is not None
            paths = {";".join(path) for path in result.profile.nodes}
            assert "sim" in paths
            assert "sim;dbfunc" in paths
            coverages.append(result.profile.coverage())
        assert max(coverages) >= 0.9

    def test_unprofiled_run_carries_no_profile(self):
        assert _run().profile is None

    def test_profiler_does_not_move_virtual_time(self):
        bare = _run()
        profiled = _run(WorkloadOptions(
            observability=ObservabilityOptions(profile=True)))
        assert profiled.makespan == bare.makespan

    def test_ambient_profiler_observes_the_run(self):
        with profile() as profiler:
            result = _run()
        # The engine instruments into the ambient profiler without
        # owning it: the result exposes no profile (profile=False),
        # but the engine sections land in the ambient call tree.
        assert result.profile is None
        assert any(path and path[0] == "sim" for path in profiler.nodes)


class TestSectionsCloseOnErrors:
    """A run that raises must not leave a profiler frame open: the
    next run under the same ``profile()`` block would be recorded
    under the stale frame."""

    TOP_LEVEL = {"control", "sim", "assemble"}

    @staticmethod
    def _executor(db, options=None):
        compiled = db.compile(SQL)
        schedule = db.scheduler.schedule(compiled.plan, 6)
        submissions = [QuerySubmission("q0", compiled, schedule)]
        return WorkloadExecutor(db.machine, workload=options), submissions

    def _assert_clean_after(self, db, prof):
        assert not prof._stack
        executor, submissions = self._executor(db)
        executor.execute(submissions)
        assert not prof._stack
        assert {path[0] for path in prof.nodes} == self.TOP_LEVEL
        assert not any("control" in path[1:] for path in prof.nodes)

    def test_admission_starvation_leaves_no_open_frame(self):
        db = _db()
        starved = WorkloadOptions()
        # No valid option admits nothing: bypass the frozen block's
        # validation to force the starvation _assemble reports.
        object.__setattr__(starved, "max_concurrent", 0)
        with profile() as prof:
            executor, submissions = self._executor(db, starved)
            with pytest.raises(WorkloadError, match="starvation"):
                executor.execute(submissions)
            self._assert_clean_after(db, prof)

    def test_dbfunc_error_leaves_no_open_frame(self, monkeypatch):
        def broken(self, instance, activation, ctx):
            raise ExecutionError("unknown join algorithm 'broken'")

        db = _db()
        with profile() as prof:
            executor, submissions = self._executor(db)
            with monkeypatch.context() as patch:
                patch.setattr(JoinFunc, "process", broken)
                with pytest.raises(ExecutionError, match="unknown join"):
                    executor.execute(submissions)
            self._assert_clean_after(db, prof)


class TestSharedBodies:
    """Every job of one ``(plan, schedule)`` pair runs the pair's one
    stateless body, and the simulator instruments each operation's
    body as it admits it: the body is wrapped once, timed once per
    activation, and unwrapped when the run ends."""

    def test_a_shared_body_is_timed_once_and_restored(self):
        machine = serving_machine()
        submissions = build_submissions(
            default_templates(), [0.02 * i for i in range(60)],
            machine=machine)
        run = _WorkloadRun(machine, ExecutionOptions(), WorkloadOptions(
            max_concurrent=2,
            observability=ObservabilityOptions(profile=True)), submissions)
        result = run.run()
        bodies = [blueprint.dbfunc for shape in run._shapes.values()
                  for blueprint in shape.blueprints.values()]
        for target, sections in ((run, RUN_SECTIONS),
                                 (run.simulator, SIMULATOR_SECTIONS),
                                 *((body, {"process"}) for body in bodies)):
            assert not set(sections) & set(vars(target)), target
        timed = sum(node[0] for path, node in result.profile.nodes.items()
                    if path[-1] == "dbfunc")
        activations = sum(execution.total_activations
                          for execution in result.executions.values())
        admitted = len(result.bus.events_of(QUERY_ADMIT))
        assert admitted > len(bodies) and timed == activations > admitted
