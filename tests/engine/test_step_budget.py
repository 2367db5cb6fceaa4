"""A frame budget for the commonest event: the fruitless poll.

A wake-up that finds nothing ready charges the empty scan, sleeps to
the index's floor and requeues — three float additions and a heap
push.  What it costs the interpreter is Python frames, so this counts
them: ``_step``, ``ReadyIndex.quiet``, the thread's
``advance_then_wait``, plus ``_top`` on the few polls that meet a stale
heap top.  The count repeats exactly on one interpreter; on failure the
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


def _fruitless_polls(play):
    """``(polls, frames by function)`` over every ``_step`` of *play*
    that made no dequeue and left its thread runnable (neither parked
    nor finished), ``_step`` itself included."""
    step_code = Simulator._step.__code__
    dequeue_code = ActivationQueue.dequeue_ready.__code__
    polls = 0
    total = Counter()
    current = None          # frames of the step being run
    step_frame = None
    dequeued = False

    def profile(frame, event, arg):
        nonlocal polls, current, step_frame, dequeued
        if event == "call":
            code = frame.f_code
            if code is step_code:
                current, step_frame, dequeued = Counter(), frame, False
            if current is not None:
                current[code.co_qualname] += 1
                dequeued = dequeued or code is dequeue_code
        elif event == "return" and frame is step_frame:
            if not dequeued and frame.f_locals["thread"].state == RUNNABLE:
                polls += 1
                total.update(current)
            current = step_frame = None

    sys.setprofile(profile)
    try:
        play()
    finally:
        sys.setprofile(None)
    return polls, total


def test_a_fruitless_poll_is_three_frames():
    # The 1,200 x 120 AssocJoin at degree 100; twelve join threads on
    # sixteen processors wait on one transmitter, as the benchmark's do.
    rig = Rig(Config(join_threads=12))
    polls, frames = _fruitless_polls(rig.play)
    assert polls > 1000, "the workload no longer polls fruitlessly"
    mean = sum(frames.values()) / polls
    histogram = "\n".join(f"  {count / polls:6.3f}  {name}"
                          for name, count in frames.most_common())
    assert mean <= FRAME_BUDGET, (
        f"{mean:.3f} Python frames per fruitless poll over {polls} polls "
        f"(budget {FRAME_BUDGET}):\n{histogram}")
