"""The quiet step: a scan answered by arithmetic must not move anything.

When an indexed operation has nothing ready and nothing due
(``ReadyIndex.quiet``), ``Simulator._step`` charges the empty scan —
every queue polled, wake at the index's floor — without making it.
The *stepwise* twin — ``quiet`` patched to answer ``None``, so every
wake-up makes the full ``select`` — is the reference: per-thread clocks
and busy/idle/stalled time, per-operation counters, result rows,
``run(until)`` boundaries and, when observed, the bus's events, probe
series and counters must be equal bit for bit.
"""

import functools
from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import make_join_database
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    ObservabilityOptions,
    OperationSchedule,
    QuerySchedule,
)
from repro.engine.ready_index import ReadyIndex
from repro.engine.simulator import Simulator
from repro.faults import (
    ActivationFaults,
    FaultInjector,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)
from repro.faults.injector import NO_FAULTS
from repro.lera.plans import assoc_join_plan
from repro.machine.machine import Machine
from repro.obs.bus import EventBus

CARD_A = 1200
CARD_B = 120
#: Virtual seconds a run lasts past its start-up, at most (the
#: mid-run interventions and fault windows are drawn inside it).
SPAN = 0.45


@functools.lru_cache(maxsize=None)
def _database(degree):
    return make_join_database(CARD_A, CARD_B, degree, theta=0.0)


@dataclass(frozen=True)
class Config:
    """One point of the fuzzed space."""

    degree: int = 100
    processors: int = 16
    ksr1: bool = False
    transmit_threads: int = 1
    join_threads: int = 6
    strategy: str = "random"
    cache_size: int = 1
    capacity: int | None = None
    allow_secondary: bool = True
    seed: int = 0
    observe: bool = False
    #: Fault windows as ``(kind, offset, length)`` past the start-up.
    windows: tuple = ()
    retry: tuple | None = None          # (operation, rate, max_retries)
    memory_at: float | None = None
    #: ``(offset, "cancel" | "helpers")`` past the start-up, sorted.
    interventions: tuple = ()


def _faults(config, start):
    slowdowns, stalls = [], []
    for kind, offset, length in config.windows:
        t0 = start + offset
        if kind == "stall":
            stalls.append(StallWindow(t0, t0 + length, operation="join"))
        else:
            slowdowns.append(SlowdownWindow(t0, t0 + length, 3.0))
    plan = FaultPlan(
        seed=config.seed,
        slowdowns=tuple(slowdowns), stalls=tuple(stalls),
        memory=(() if config.memory_at is None
                else (MemoryPressure(start + config.memory_at, 0.5),)),
        activations=(() if config.retry is None else (ActivationFaults(
            config.retry[0], config.retry[1], config.retry[2],
            backoff=0.002),)))
    return None if plan.is_empty else plan


class Rig:
    """One AssocJoin run driven by hand, the way the workload engine
    drives the simulator: pause at boundaries, cancel, grant helpers."""

    def __init__(self, config):
        self.config = config
        database = _database(config.degree)
        machine = (Machine.ksr1 if config.ksr1 else Machine.uniform)(
            processors=config.processors)
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        schedule = QuerySchedule({
            "transmit": OperationSchedule(
                config.transmit_threads, config.strategy, config.cache_size),
            "join": OperationSchedule(
                config.join_threads, config.strategy, config.cache_size,
                config.allow_secondary)})
        executor = Executor(machine, ExecutionOptions(
            seed=config.seed, queue_capacity=config.capacity,
            observability=ObservabilityOptions(observe=config.observe)))
        runtimes = executor.build_runtimes(plan, schedule)
        executor.wire_pipelines(plan, runtimes)
        self.bus = EventBus() if config.observe else None
        executor.attach_observability(runtimes, self.bus, None)
        self.operations = list(runtimes.values())
        self.join = runtimes["join"]
        self.start = executor.startup_time(runtimes, schedule)
        faults = _faults(config, self.start)
        # Exhausted retries cancel the query, as a workload would.
        self.simulator = Simulator(
            machine, config.seed,
            NO_FAULTS if faults is None else FaultInjector(faults,
                                                           bus=self.bus),
            None, lambda operation, thread: None,
            lambda operation, error, at: self.cancel(at))
        self.next_thread_id, _ = executor.prepare_wave(
            self.operations,
            {name: schedule.of(name).threads for name in runtimes},
            self.start, 0)
        self.simulator.add_operations(self.operations)
        self.boundaries = []

    def run(self, until=None):
        simulator = self.simulator
        boundary = simulator.run(until)
        self.boundaries.append((boundary, simulator.idle))
        # The factor is cached beside the count it is a function of.
        assert simulator._dilation == simulator.machine.dilation(
            simulator._active)
        return boundary

    def cancel(self, at):
        self.simulator.drain_operations(self.operations, at)

    def grant_helpers(self, at, count=2):
        if self.join.complete or not self.join.allow_secondary:
            return
        ids = list(range(self.next_thread_id, self.next_thread_id + count))
        self.next_thread_id += count
        self.simulator.add_threads(self.join, self.join.add_threads(ids, at))

    def play(self):
        """The configured interventions, then drain; returns the
        snapshot."""
        for offset, action in self.config.interventions:
            at = self.start + offset
            if self.run(until=at) is None:
                break
            if action == "cancel":
                self.cancel(at)
            else:
                self.grant_helpers(at)
        self.run()
        return self.snapshot()

    def snapshot(self):
        """Everything the shortcut could move.  (A run may end deadlocked
        — bounded queues without secondary consumption can — and must
        then do so identically.)"""
        assert self.simulator.idle
        bus = self.bus
        return {
            "threads": {
                op.name: [(t.thread_id, t.state, t.clock, t.busy_time,
                           t.idle_time, t.stalled_time, t.finished_at)
                          for t in op.threads]
                for op in self.operations},
            "operations": {
                op.name: (op.polls, op.enqueues, op.dequeue_batches,
                          op.secondary_accesses, op.faults_injected,
                          op.fault_retries, op.fault_aborts, op.discarded,
                          op.pending_activations, op.finished_at,
                          op.memory_penalty, tuple(op.activation_costs))
                for op in self.operations},
            "rows": list(self.join.result_rows),
            "boundaries": self.boundaries,
            "events": None if bus is None else list(bus.events),
            "series": None if bus is None else {
                name: (series.times, series.values)
                for name, series in bus.series.items()},
            "counters": None if bus is None else dict(bus.counters),
        }


def stepwise():
    """Every wake-up a full ``select``: the engine before the quiet
    shortcut."""
    return mock.patch.object(ReadyIndex, "quiet", lambda *args: None)


def _both(config):
    quiet = Rig(config).play()
    with stepwise():
        return quiet, Rig(config).play()


offsets = st.floats(min_value=0.0, max_value=SPAN, allow_nan=False)
lengths = st.floats(min_value=0.005, max_value=0.1, allow_nan=False)
configs = st.builds(
    Config,
    # Below READY_INDEX_MIN_INSTANCES (96) there is no index to ask.
    degree=st.sampled_from([12, 100, 128]),
    # 2 and 4 processors over-subscribe most pools: the sliced path.
    processors=st.sampled_from([2, 4, 16]),
    ksr1=st.booleans(),
    transmit_threads=st.integers(1, 3),
    join_threads=st.integers(1, 9),
    strategy=st.sampled_from(["random", "lpt"]),
    cache_size=st.sampled_from([1, 1, 4]),
    capacity=st.sampled_from([None, None, 2, 8]),
    allow_secondary=st.sampled_from([True, True, False]),
    seed=st.integers(0, 3),
    observe=st.booleans(),
    windows=st.lists(st.tuples(st.sampled_from(["stall", "slowdown"]),
                               offsets, lengths), max_size=2).map(tuple),
    retry=st.none() | st.tuples(st.sampled_from([None, "join"]),
                                st.sampled_from([0.05, 0.4]),
                                st.sampled_from([0, 3])),
    memory_at=st.none() | offsets,
    interventions=st.lists(
        st.tuples(offsets, st.sampled_from(["cancel", "helpers", "helpers"])),
        max_size=3).map(lambda steps: tuple(sorted(steps))),
)


@given(config=configs)
@settings(max_examples=120, deadline=None)
def test_quiet_equals_stepwise(config):
    quiet, reference = _both(config)
    for key in reference:
        assert quiet[key] == reference[key], key


def test_the_fast_path_is_what_ran():
    """The comparison above is not vacuous: at degree 100 most wake-ups
    are answered without a scan, and none of it shows."""
    config = Config(observe=True)
    scans = {"quiet": 0, "stepwise": 0}

    def counting(label):
        select = Simulator._index_select

        def counted(*args):
            scans[label] += 1
            return select(*args)
        return mock.patch.object(Simulator, "_index_select",
                                 staticmethod(counted))

    with counting("quiet"):
        quiet = Rig(config).play()
    with stepwise(), counting("stepwise"):
        reference = Rig(config).play()
    assert quiet == reference
    assert scans["quiet"] * 2 < scans["stepwise"]


def test_allcache_keeps_a_context_per_activation():
    """On a KSR1 every activation's touches are charged to the thread
    that ran it; the quiet step moves none of it."""
    quiet, reference = _both(Config(ksr1=True))
    penalties = {name: facts[-2]
                 for name, facts in quiet["operations"].items()}
    assert penalties["join"] > 0.0
    assert penalties == {name: facts[-2] for name, facts
                         in reference["operations"].items()}
    assert Rig(Config(ksr1=True)).simulator._uniform_ctx is None
    assert Rig(Config()).simulator._uniform_ctx is not None
