"""One-call diagnosis: critical path + imbalance doctor, one report.

:func:`diagnose` is the layer's front door — everything else
(:mod:`repro.diag.critical_path`, :mod:`repro.diag.imbalance`) is
reachable from its result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diag.critical_path import CriticalPath, critical_path
from repro.diag.imbalance import Finding, diagnose_imbalance, render_findings
from repro.diag.run import ObservedRun


@dataclass
class Diagnosis:
    """The full post-mortem of one observed execution."""

    run: ObservedRun
    critical_path: CriticalPath
    findings: list[Finding]

    @property
    def bottleneck(self) -> str:
        return self.critical_path.bottleneck

    def render(self) -> str:
        run = self.run
        lines = [
            f"diagnosis ({run.source} run): "
            f"elapsed {run.response_time:.3f}s virtual, "
            f"start-up {run.startup_time:.3f}s, "
            f"{run.total_threads} threads over {len(run.ops)} operations",
            "",
            self.critical_path.render(),
            "",
            render_findings(self.findings),
        ]
        return "\n".join(lines)


def diagnose(source) -> Diagnosis:
    """Diagnose an observed execution (live, reloaded, or a JSONL path).

    Produces the critical path through the activation dependency graph
    and the imbalance doctor's ranked findings.  Purely post-mortem:
    nothing here touches the engine or charges virtual time.
    """
    run = ObservedRun.of(source)
    return Diagnosis(
        run=run,
        critical_path=critical_path(run),
        findings=diagnose_imbalance(run),
    )
