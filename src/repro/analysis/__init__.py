"""Analytical model of Section 4.1 and speed-up mathematics."""

from repro.analysis.formulas import (
    OperatorProfile,
    ideal_time,
    nmax,
    nmax_from_costs,
    skew_overhead_bound,
    worst_time,
)
from repro.analysis.predictor import (
    OperatorPrediction,
    QueryPrediction,
    predict,
)
from repro.analysis.speedup import SpeedupCurve, speedup

__all__ = [
    "OperatorPrediction",
    "OperatorProfile",
    "QueryPrediction",
    "SpeedupCurve",
    "ideal_time",
    "nmax",
    "nmax_from_costs",
    "predict",
    "skew_overhead_bound",
    "speedup",
    "worst_time",
]
