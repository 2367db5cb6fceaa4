"""Overload-robust serving: open-loop arrivals + overload protection.

Two halves:

* :mod:`repro.serve.arrivals` — seeded open-loop Poisson arrivals,
  in virtual time and byte-reproducible per seed.
* :mod:`repro.serve.policies` — the :class:`ServingPolicy`
  configuration block and the :class:`WaitQueue` it keys: FIFO,
  priority classes or deadline-aware EDF order, with the overflow
  victim the waiter that order would admit last.

:mod:`repro.serve.harness` glues them to the workload engine: query
templates, submission generation, the decision log and the serving
statistics the benchmark reports.

The layer is opt-in: ``WorkloadOptions(serving=None)`` (the default)
keeps the engine bit-identical to the pre-serving engine.
"""

from repro.serve.arrivals import (
    ARRIVAL_PROCESSES,
    PoissonArrivals,
    make_arrival_process,
)
from repro.serve.policies import (
    POLICIES,
    ServingPolicy,
    WaitQueue,
    provably_infeasible,
)

#: Harness names resolve lazily: the harness imports the workload
#: engine, which imports :mod:`repro.serve.policies` — an eager import
#: here would close that cycle while this package is half-initialized.
_HARNESS_NAMES = (
    "QueryTemplate", "build_submissions", "decision_digest",
    "decision_log", "default_templates", "run_serving", "serving_stats",
)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from repro.serve import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ARRIVAL_PROCESSES",
    "POLICIES",
    "PoissonArrivals",
    "QueryTemplate",
    "ServingPolicy",
    "WaitQueue",
    "build_submissions",
    "decision_digest",
    "decision_log",
    "default_templates",
    "make_arrival_process",
    "provably_infeasible",
    "run_serving",
    "serving_stats",
]
