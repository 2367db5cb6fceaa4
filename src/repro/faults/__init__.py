"""Deterministic fault injection for the virtual-time engine.

The paper's claim is that DBS3's dynamic thread pools *absorb* adverse
run-time conditions — busy processors, skewed fragments, memory
shortage.  This package makes those conditions injectable: a seeded,
declarative :class:`FaultPlan` describes processor slowdown/stall
windows, mid-run memory pressure, and transient activation failures;
a :class:`FaultInjector` applies them through flag-guarded hooks in
the simulator.  A run without a plan
(the default everywhere) runs under the empty plan's shared injector,
:data:`~repro.faults.injector.NO_FAULTS`, bit-identical to a run
under any other empty plan.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ActivationFaults,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)

__all__ = [
    "ActivationFaults",
    "FaultInjector",
    "FaultPlan",
    "MemoryPressure",
    "SlowdownWindow",
    "StallWindow",
]
