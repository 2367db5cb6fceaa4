"""Adaptive scheduling: diagnostics-driven decisions at run time.

The controller machinery the workload engine arms when
``WorkloadOptions(scheduling="adaptive")``: it re-splits a wave's
thread grant toward the blamed producers and switches Random consumers
to LPT on the Fig 12 straggler signature.
"""

from repro.adapt.controller import (
    AdaptiveController,
    WaveEvidence,
    resplit_shares,
    wave_evidence,
)

__all__ = [
    "AdaptiveController",
    "WaveEvidence",
    "resplit_shares",
    "wave_evidence",
]
