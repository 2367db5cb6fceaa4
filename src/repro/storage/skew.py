"""Zipf-skewed fragment cardinalities.

The paper models skewed databases with a Zipf function [Zipf49]: the
degree of skew ``theta`` ranges from 0 (uniform) to 1 (high skew) and
determines fragment cardinalities.  Fragment ``i`` (1-based) receives a
share proportional to ``1 / i**theta``.

This module provides the Zipf mathematics plus a partitioner that
builds a relation whose fragment cardinalities follow the Zipf law
while remaining a *correct* hash partitioning (every tuple's join key
still hashes to its fragment), which is what lets skewed databases run
real joins with verifiable results.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PartitioningError


def zipf_weights(degree: int, theta: float) -> list[float]:
    """Normalized Zipf weights for fragments ``1..degree``.

    ``theta = 0`` yields uniform weights; ``theta = 1`` the classic
    harmonic distribution.  Weights sum to 1.0.
    """
    if degree < 1:
        raise PartitioningError(f"degree must be >= 1, got {degree}")
    if theta < 0:
        raise PartitioningError(f"theta must be >= 0, got {theta}")
    raw = [1.0 / (i ** theta) for i in range(1, degree + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def zipf_cardinalities(total: int, degree: int, theta: float) -> list[int]:
    """Integer fragment cardinalities summing exactly to *total*.

    Uses largest-remainder rounding so the sum is exact and the
    distribution is as close to the real-valued Zipf shares as integer
    cardinalities allow.  The first fragment is always the largest
    (for ``theta > 0``).
    """
    if total < 0:
        raise PartitioningError(f"total must be >= 0, got {total}")
    weights = zipf_weights(degree, theta)
    shares = [w * total for w in weights]
    floors = [int(s) for s in shares]
    remainder = total - sum(floors)
    # Distribute the leftover units to the largest fractional parts.
    by_fraction = sorted(range(degree), key=lambda i: shares[i] - floors[i],
                         reverse=True)
    for i in by_fraction[:remainder]:
        floors[i] += 1
    return floors


def skew_ratio(cardinalities: Sequence[int]) -> float:
    """``Pmax / P`` — largest fragment over mean fragment size.

    This is the skew factor of equation (3) when activation cost is
    proportional to fragment cardinality.  Returns 1.0 for an empty or
    all-zero partitioning.
    """
    total = sum(cardinalities)
    if total == 0 or not cardinalities:
        return 1.0
    mean = total / len(cardinalities)
    return max(cardinalities) / mean

