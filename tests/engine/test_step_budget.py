"""Frame budgets for the two commonest events: the fruitless poll and
the dequeuing step.

A wake-up that finds nothing ready charges the empty scan, sleeps to
the index's floor and requeues — three float additions and a heap
push.  The threads of the same operation the heap holds at the same
instant are charged the same way by that step, one heap replace each,
without a step of their own.  What it costs the interpreter is Python
frames, so this counts them per fruitless poll, stepped or absorbed:
``_step``, ``ReadyIndex.quiet`` and ``Simulator._absorb_herd`` per
stepped poll, the thread's ``advance_then_wait`` per poll, plus
``_top`` on the few steps that meet a stale heap top.

A wake-up that finds work selects a queue, dequeues a batch, runs the
operator body on each activation, charges it and routes its output
into the consumer's queues.  Its frames are counted the same way, over
every ``_step`` that dequeued.

The third budget counts the dequeuing step of a triggered join under
LPT at a degree the ready index serves, where each step chooses among
about sixteen ready instances: a key function or helper called per
candidate would add a frame per candidate.

A loop over the candidates written in the selecting frame adds no
frame, so the degree-independence budget counts bytecodes instead:
those ``ReadyIndex.select`` and ``choose`` execute per dequeuing step
of the same join at d = 120 and d = 1,200 must stay within 1.5x.

The counts repeat exactly on one interpreter; on failure the
per-function histogram names the frame that came back.
"""

import sys
from collections import Counter

import pytest
from test_quiet_step import Config, Rig

from repro.bench.runners import default_machine
from repro.bench.workloads import make_join_database
from repro.engine.executor import ExecutionOptions, Executor, QuerySchedule
from repro.engine.operation import READY_INDEX_MIN_INSTANCES
from repro.engine.queues import ActivationQueue
from repro.engine.ready_index import ReadyIndex
from repro.engine.simulator import Simulator
from repro.engine.strategies import LPTStrategy
from repro.engine.threads import RUNNABLE, WorkerThread
from repro.lera.plans import ideal_join_plan

#: Mean Python frames per fruitless poll: 1.60 measured (1,321 polls,
#: 238 of them stepped), 3.09 before a step absorbed the herd behind
#: it, 7.09 before the factor was cached and the charge and the sleep
#: were one method.
FRAME_BUDGET = 1.7

#: Mean Python frames per dequeuing step: 14.99 measured, 28.52 before
#: the charge, the delivery and the pool promotion were written out,
#: the router took a batch and the per-activation records became tuples.
DEQUEUE_FRAME_BUDGET = 17.0

#: Mean Python frames per dequeuing step of the triggered LPT join:
#: 12.01 measured, as before ranked selection (LPT's ``max`` over the
#: ready ids with a C key function made no frame either).  A choice
#: is now one read at the end of the ranked list, however many are
#: ready: 15.6 instances per choice here, 150.5 at d = 1,200.
LPT_DEQUEUE_FRAME_BUDGET = 12.5

#: Selection bytecodes per dequeuing step at d = 1,200 over d = 120, on
#: the triggered LPT join: 125 / 135 = 0.93 measured (2,357 / 341 =
#: 6.9 when selection filtered the ready set and LPT took a max over
#: it).
DEGREE_RATIO_BUDGET = 1.5


def _profile_steps(play, counts):
    """``(wake-ups, frames by function)`` over every ``_step`` of
    *play* for which ``counts(thread, dequeued)`` holds, ``_step``
    itself included; *dequeued* says whether the step called
    ``ActivationQueue.dequeue_ready``.  A step's wake-ups are its own
    plus the polls its ``_absorb_herd`` charged (one
    ``advance_then_wait`` each)."""
    step_code = Simulator._step.__code__
    absorb_code = Simulator._absorb_herd.__code__
    charge_code = WorkerThread.advance_then_wait.__code__
    dequeue_code = ActivationQueue.dequeue_ready.__code__
    steps = 0
    total = Counter()
    current = None          # frames of the step being run
    step_frame = None
    dequeued = False
    absorbed = 0

    def profile(frame, event, arg):
        nonlocal steps, current, step_frame, dequeued, absorbed
        if event == "call":
            code = frame.f_code
            if code is step_code:
                current, step_frame = Counter(), frame
                dequeued, absorbed = False, 0
            if current is not None:
                current[code.co_qualname] += 1
                dequeued = dequeued or code is dequeue_code
                if code is charge_code and frame.f_back.f_code is absorb_code:
                    absorbed += 1
        elif event == "return" and frame is step_frame:
            if counts(frame.f_locals["thread"], dequeued):
                steps += 1 + absorbed
                total.update(current)
            current = step_frame = None

    sys.setprofile(profile)
    try:
        play()
    finally:
        sys.setprofile(None)
    return steps, total


def _fruitless(thread, dequeued):
    """A step that made no dequeue and left its thread runnable
    (neither parked nor finished)."""
    return not dequeued and thread.state == RUNNABLE


def _dequeuing(thread, dequeued):
    return dequeued


def _assert_budget(events, frames, budget, what):
    mean = sum(frames.values()) / events
    histogram = "\n".join(f"  {count / events:6.3f}  {name}"
                          for name, count in frames.most_common())
    assert mean <= budget, (
        f"{mean:.3f} Python frames per {what} over {events} of them "
        f"(budget {budget}):\n{histogram}")


def _rig():
    # The 1,200 x 120 AssocJoin at degree 100; twelve join threads on
    # sixteen processors wait on one transmitter, as the benchmark's do.
    return Rig(Config(join_threads=12))


def test_a_fruitless_poll_is_under_two_frames():
    polls, frames = _profile_steps(_rig().play, _fruitless)
    assert polls > 1000, "the workload no longer polls fruitlessly"
    _assert_budget(polls, frames, FRAME_BUDGET, "fruitless poll")


def test_a_dequeuing_step_is_at_most_seventeen_frames():
    steps, frames = _profile_steps(_rig().play, _dequeuing)
    assert steps > 200, "the workload no longer dequeues per tuple"
    _assert_budget(steps, frames, DEQUEUE_FRAME_BUDGET, "dequeuing step")


def _lpt_join(degree):
    """The IdealJoin at *degree* on four threads, its strategy LPT, as
    a function that runs it; the fragments' indexes are built by one
    warm-up run, as the benchmark's warm-up op builds them."""
    database = make_join_database(20 * degree, 2 * degree, degree, 0.5)
    plan = ideal_join_plan(database.entry_a, database.entry_b, "key", "key")
    schedule = QuerySchedule.for_plan(plan, 4).with_strategy("join", "lpt")
    executor = Executor(default_machine(), ExecutionOptions(seed=0))

    def play():
        execution = executor.execute(plan, schedule)
        assert execution.result_cardinality == database.expected_matches

    play()
    return play


def test_a_triggered_lpt_dequeuing_step_has_no_frame_per_candidate():
    degree = READY_INDEX_MIN_INSTANCES + 24
    steps, frames = _profile_steps(_lpt_join(degree), _dequeuing)
    assert steps == degree, "one dequeuing step per trigger"
    _assert_budget(steps, frames, LPT_DEQUEUE_FRAME_BUDGET,
                   "triggered LPT dequeuing step")


def _selection_bytecodes(play):
    """Bytecodes executed in ``ReadyIndex.select`` and
    ``LPTStrategy.choose`` (and any frame they call) per ``choose``
    over *play*: what choosing a queue costs per dequeuing step."""
    counted = {ReadyIndex.select.__code__, LPTStrategy.choose.__code__}
    choose_code = LPTStrategy.choose.__code__
    bytecodes = choices = depth = 0

    def local(frame, event, arg):
        nonlocal bytecodes, depth
        if event == "opcode":
            bytecodes += 1
        elif event == "return":
            depth -= 1
        return local

    def trace(frame, event, arg):
        nonlocal choices, depth
        if depth == 0 and frame.f_code not in counted:
            return None
        choices += frame.f_code is choose_code
        depth += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        play()
    finally:
        sys.settrace(None)
    return bytecodes / choices


def _degree_ratio():
    low, high = (_selection_bytecodes(_lpt_join(degree))
                 for degree in (120, 1200))
    return high / low, low, high


def _assert_degree_independent(ratio, low, high):
    assert ratio <= DEGREE_RATIO_BUDGET, (
        f"selection executes {high:.0f} bytecodes per dequeuing step at "
        f"d = 1,200 and {low:.0f} at d = 120: {ratio:.2f}x (budget "
        f"{DEGREE_RATIO_BUDGET}x)")


def test_choosing_a_queue_costs_the_same_at_a_tenfold_degree():
    _assert_degree_independent(*_degree_ratio())


def test_a_per_candidate_loop_breaks_the_degree_budget(monkeypatch):
    def choose(self, rng, ranked):
        best = ranked[0]
        for instance in ranked:
            if instance > best:
                best = instance
        return ranked[-1]

    monkeypatch.setattr(LPTStrategy, "choose", choose)
    with pytest.raises(AssertionError, match="bytecodes per dequeuing step"):
        _assert_degree_independent(*_degree_ratio())
