"""Frame budgets for the two commonest events: the fruitless poll and
the dequeuing step.

A wake-up that finds nothing ready charges the empty scan, sleeps to
the index's floor and requeues — three float additions and a heap
push.  What it costs the interpreter is Python frames, so this counts
them: ``_step``, ``ReadyIndex.quiet``, the thread's
``advance_then_wait``, plus ``_top`` on the few polls that meet a stale
heap top.

A wake-up that finds work selects a queue, dequeues a batch, runs the
operator body on each activation, charges it and routes its output
into the consumer's queues.  Its frames are counted the same way, over
every ``_step`` that dequeued.

The counts repeat exactly on one interpreter; on failure the
per-function histogram names the frame that came back.
"""

import sys
from collections import Counter

from test_quiet_step import Config, Rig

from repro.engine.queues import ActivationQueue
from repro.engine.simulator import Simulator
from repro.engine.threads import RUNNABLE

#: Mean Python frames per fruitless poll: 3.09 measured (``_top`` on
#: 9 % of them), 7.09 before the factor was cached and the charge and
#: the sleep were one method.
FRAME_BUDGET = 3.2

#: Mean Python frames per dequeuing step: 14.99 measured, 28.52 before
#: the charge, the delivery and the pool promotion were written out,
#: the router took a batch and the per-activation records became tuples.
DEQUEUE_FRAME_BUDGET = 17.0


def _profile_steps(play, counts):
    """``(steps, frames by function)`` over every ``_step`` of *play*
    for which ``counts(thread, dequeued)`` holds, ``_step`` itself
    included; *dequeued* says whether the step called
    ``ActivationQueue.dequeue_ready``."""
    step_code = Simulator._step.__code__
    dequeue_code = ActivationQueue.dequeue_ready.__code__
    steps = 0
    total = Counter()
    current = None          # frames of the step being run
    step_frame = None
    dequeued = False

    def profile(frame, event, arg):
        nonlocal steps, current, step_frame, dequeued
        if event == "call":
            code = frame.f_code
            if code is step_code:
                current, step_frame, dequeued = Counter(), frame, False
            if current is not None:
                current[code.co_qualname] += 1
                dequeued = dequeued or code is dequeue_code
        elif event == "return" and frame is step_frame:
            if counts(frame.f_locals["thread"], dequeued):
                steps += 1
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


def _assert_budget(steps, frames, budget, what):
    mean = sum(frames.values()) / steps
    histogram = "\n".join(f"  {count / steps:6.3f}  {name}"
                          for name, count in frames.most_common())
    assert mean <= budget, (
        f"{mean:.3f} Python frames per {what} over {steps} steps "
        f"(budget {budget}):\n{histogram}")


def _rig():
    # The 1,200 x 120 AssocJoin at degree 100; twelve join threads on
    # sixteen processors wait on one transmitter, as the benchmark's do.
    return Rig(Config(join_threads=12))


def test_a_fruitless_poll_is_three_frames():
    polls, frames = _profile_steps(_rig().play, _fruitless)
    assert polls > 1000, "the workload no longer polls fruitlessly"
    _assert_budget(polls, frames, FRAME_BUDGET, "fruitless poll")


def test_a_dequeuing_step_is_at_most_seventeen_frames():
    steps, frames = _profile_steps(_rig().play, _dequeuing)
    assert steps > 200, "the workload no longer dequeues per tuple"
    _assert_budget(steps, frames, DEQUEUE_FRAME_BUDGET, "dequeuing step")
