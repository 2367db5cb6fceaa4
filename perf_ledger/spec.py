"""What the ledger measures, as ``BENCHMARK.json`` declares it.

``BENCHMARK.json`` at the repo root is the one declaration of the
workloads and of every metric's name, unit, direction and driver bound;
a metric is added or changed there and nowhere else.  This module loads
it and adds the one fact the file has no key for: which metrics are
*exact*.  What each metric means, and which end-to-end metric a
per-layer metric is expected to move on which workload, is the
interaction table of ``README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Measuring seconds of one run, for the driver and for ``run`` alike.
RUN_SECONDS: int = _DECLARED["run_seconds"]
#: name -> why the workload is here.
WORKLOADS = {w["name"]: w["why"] for w in _DECLARED["workloads"]}

#: Units only simulated statistics and counts carry ...
_SIMULATED_UNITS = ("count", "virtual_s", "1/virtual_s")
#: ... except the size of the timing sample, which follows host speed.
_HOST_COUNTS = ("core.samples",)
#: Ratios of two exact counts.
_EXACT_RATIOS = ("done_share", "serve.in_slo_share_r29",
                 "serve.in_slo_share_r38", "serve.in_slo_share_r77",
                 "engine.steps_per_activation", "engine.useful_step_ratio")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The driver's bound on a single run's value (end-to-end only);
    #: ``compare`` judges sets with its own, tighter ``ledger.SET_BOUND``.
    bound: float | None = None

    @property
    def exact(self) -> bool:
        """A simulated statistic or a count: it repeats bit for bit for
        one seed, so ``compare`` requires equality, not a bound."""
        return (self.name in _EXACT_RATIOS
                or self.unit in _SIMULATED_UNITS
                and self.name not in _HOST_COUNTS)


END_TO_END = tuple(Metric(**m) for m in _DECLARED["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in _DECLARED["per_layer"])
BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def render(name: str, value: float | None) -> str:
    """One metric as the ledger prints it: name, value, unit."""
    shown = "null" if value is None else f"{value:.6g}"
    return f"{name:<34} {shown:>14} {BY_NAME[name].unit}"
