"""A call budget for observation: what watching one activation costs.

The run of ``tests/engine/test_step_budget.py`` — the 1,200 x 120
AssocJoin at degree 100, twelve join threads waiting on one transmitter
— is played twice under ``sys.setprofile``, plain and observed.  The
difference in Python calls, per activation, is what observation costs
the interpreter.  The per-activation records (the dequeue event, the
ready-notify count) are appends made by the engine site itself, a
queue-depth move is one ``EventBus.add`` frame, and a probe that repeats
its last value stores nothing, so a wake-up that finds nothing ready
makes no observation call at all.  The count repeats exactly on one
interpreter; on failure the histogram of the difference names the
frames that came back.
"""

import sys
from collections import Counter

from tests.engine.test_quiet_step import Config, Rig

#: Extra Python calls per observed activation.  28.2 when every step
#: sampled its probe through two frames, every enqueue went through a
#: four-frame chain and every record was a frozen dataclass.
CALL_BUDGET = 8.0


def _calls(observe):
    """``(calls by function, activations)`` of one played run."""
    rig = Rig(Config(join_threads=12, observe=observe))
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        rig.play()
    finally:
        sys.setprofile(None)
    return calls, sum(len(op.activation_costs) for op in rig.operations)


def test_observing_an_activation_costs_a_few_calls():
    # Warm: the first run on a database builds the fragments' key tables.
    _calls(observe=False)
    plain, activations = _calls(observe=False)
    observed, observed_activations = _calls(observe=True)
    assert activations == observed_activations > 100
    extra = observed.copy()
    extra.subtract(plain)
    per_activation = (observed.total() - plain.total()) / activations
    histogram = "\n".join(f"  {count / activations:7.3f}  {name}"
                          for name, count in extra.most_common() if count)
    assert per_activation <= CALL_BUDGET, (
        f"{per_activation:.2f} extra Python calls per observed activation "
        f"over {activations} activations (budget {CALL_BUDGET}):\n"
        f"{histogram}")
