"""Post-mortem execution diagnostics.

The observability layer (:mod:`repro.obs`) records what happened;
this layer answers the paper's questions about it:

* :func:`~repro.diag.critical_path.critical_path` — the longest
  dependency chain through the activation graph, with per-operator
  blame (busy, queue-wait, capacity-block, Allcache penalty): *which
  operator limits the response time?*
* :func:`~repro.diag.imbalance.diagnose_imbalance` — ranked skew
  findings per operator (instance-queue imbalance, thread stragglers,
  steal pressure, idle pools) with paper-grounded remediation hints:
  *how badly did skew defeat the thread pools?*

Everything consumes an observed execution
(``ObservabilityOptions(observe=True)``) or a reloaded JSONL event log
(:func:`repro.obs.export.read_jsonl`) — both give identical results.
Entry points: :func:`~repro.diag.report.diagnose` and
``python -m repro diagnose``.  An A/B of two diagnoses (*did Random vs
LPT move the bottleneck, or just the clock?*) is a row of the twin
table: ``bottleneck`` in :data:`repro.bench.twins.TABLE`.
"""

from repro.diag.critical_path import (
    CriticalPath,
    OperatorBlame,
    PathSegment,
    critical_path,
)
from repro.diag.imbalance import (
    FRAGMENT_SKEW,
    IDLE_POOL,
    REDISTRIBUTION_SKEW,
    STEAL_PRESSURE,
    THREAD_IMBALANCE,
    Finding,
    diagnose_imbalance,
    render_findings,
)
from repro.diag.report import Diagnosis, diagnose
from repro.diag.run import ObservedRun, OpView

__all__ = [
    "CriticalPath",
    "OperatorBlame",
    "PathSegment",
    "critical_path",
    "Finding",
    "diagnose_imbalance",
    "render_findings",
    "REDISTRIBUTION_SKEW",
    "FRAGMENT_SKEW",
    "THREAD_IMBALANCE",
    "STEAL_PRESSURE",
    "IDLE_POOL",
    "Diagnosis",
    "diagnose",
    "ObservedRun",
    "OpView",
]
