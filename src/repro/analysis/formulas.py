"""The paper's analytical model (Section 4.1).

For one operator executed with ``a`` activations on ``n`` threads,
with ``P`` the mean activation processing time and ``Pmax`` the most
expensive activation:

* equation (1): ``Tworst = (1 + v) * Tideal`` with
  ``Tideal = a * P / n``;
* equation (2): ``Tworst <= ((a * P) - Pmax) / n + Pmax``;
* equation (3): ``v <= (Pmax / P) * (n - 1) / a``.

From the same quantities the parallelism ceiling for triggered
operators follows: once ``Pmax > a * P / n`` the response time is the
longest activation, so ``nmax = a * P / Pmax`` is the largest useful
thread count (Section 5.5: nmax = 6 for Zipf 1, 19 for 0.6, 40 for 0.4
with a = 200).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError


def ideal_time(activations: int, mean_cost: float, threads: int) -> float:
    """Equation (1)'s ``Tideal = a * P / n``."""
    _check_positive_threads(threads)
    return activations * mean_cost / threads


def worst_time(activations: int, mean_cost: float, max_cost: float,
               threads: int) -> float:
    """Equation (2)'s upper bound on the worst-case response time.

    ``Tworst <= ((a*P) - Pmax)/n + Pmax``: every activation but the
    most expensive one is processed with full parallelism; the most
    expensive one then runs alone.
    """
    _check_positive_threads(threads)
    total = activations * mean_cost
    return (total - max_cost) / threads + max_cost


def skew_overhead_bound(activations: int, mean_cost: float, max_cost: float,
                        threads: int) -> float:
    """Equation (3)'s bound ``v <= (Pmax/P) * (n-1) / a``.

    Returns the bound on the relative overhead over the ideal time.
    With the paper's worked example (Zipf = 1, a = 200 buckets gives
    Pmax = 34 P; n = 70 threads; a = 20000 tuple activations for the
    pipelined join) this evaluates to ``34 * 69 / 20000 = 0.117``.
    """
    _check_positive_threads(threads)
    if activations <= 0:
        raise ReproError(f"activations must be >= 1, got {activations}")
    if mean_cost <= 0:
        return 0.0
    return (max_cost / mean_cost) * (threads - 1) / activations


def nmax(activations: int, mean_cost: float, max_cost: float) -> float:
    """Largest useful degree of parallelism for a triggered operator.

    ``nmax = a * P / Pmax``.  Beyond this thread count the response
    time is pinned to the longest activation and speed-up plateaus.
    Returns ``inf`` when ``Pmax`` is zero (empty operator).
    """
    if max_cost <= 0:
        return math.inf
    return activations * mean_cost / max_cost


def nmax_from_costs(costs: Sequence[float]) -> float:
    """``nmax`` computed directly from per-activation costs."""
    if not costs:
        return math.inf
    total = sum(costs)
    peak = max(costs)
    if peak <= 0:
        return math.inf
    return total / peak


@dataclass(frozen=True)
class OperatorProfile:
    """Per-activation cost profile of one operator execution.

    Bundles the three analytical inputs and exposes the model's derived
    quantities, so benches and tests can speak the paper's language
    (``profile.v_bound(n)``, ``profile.nmax`` ...).
    """

    costs: tuple[float, ...]

    @classmethod
    def of(cls, costs: Sequence[float]) -> "OperatorProfile":
        return cls(tuple(float(c) for c in costs))

    @property
    def activations(self) -> int:
        return len(self.costs)

    @property
    def total_cost(self) -> float:
        return sum(self.costs)

    @property
    def mean_cost(self) -> float:
        if not self.costs:
            return 0.0
        return self.total_cost / len(self.costs)

    @property
    def max_cost(self) -> float:
        return max(self.costs) if self.costs else 0.0

    @property
    def skew_factor(self) -> float:
        """``Pmax / P`` of this profile (1.0 when uniform)."""
        mean = self.mean_cost
        if mean == 0:
            return 1.0
        return self.max_cost / mean

    @property
    def nmax(self) -> float:
        return nmax_from_costs(self.costs)

    def ideal_time(self, threads: int) -> float:
        return ideal_time(self.activations, self.mean_cost, threads)

    def worst_time(self, threads: int) -> float:
        return worst_time(self.activations, self.mean_cost, self.max_cost, threads)

    def v_bound(self, threads: int) -> float:
        return skew_overhead_bound(self.activations, self.mean_cost,
                                   self.max_cost, threads)

    def lower_bound_time(self, threads: int) -> float:
        """No schedule can beat ``max(Tideal, Pmax)``."""
        return max(self.ideal_time(threads), self.max_cost)


def _check_positive_threads(threads: int) -> None:
    if threads < 1:
        raise ReproError(f"threads must be >= 1, got {threads}")
