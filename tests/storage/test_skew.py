"""Zipf skew mathematics."""

import math

import pytest

from repro.errors import PartitioningError
from repro.storage.skew import (
    skew_ratio,
    zipf_cardinalities,
    zipf_weights,
)


class TestZipfWeights:
    def test_theta_zero_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert all(abs(w - 0.1) < 1e-12 for w in weights)

    def test_weights_sum_to_one(self):
        assert math.isclose(sum(zipf_weights(37, 0.7)), 1.0)

    def test_weights_decrease(self):
        weights = zipf_weights(20, 0.9)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_theta_one_is_harmonic(self):
        weights = zipf_weights(3, 1.0)
        h3 = 1 + 0.5 + 1 / 3
        assert math.isclose(weights[0], 1 / h3)

    def test_rejects_bad_degree(self):
        with pytest.raises(PartitioningError):
            zipf_weights(0, 0.5)

    def test_rejects_negative_theta(self):
        with pytest.raises(PartitioningError):
            zipf_weights(5, -0.1)


class TestZipfCardinalities:
    def test_sum_is_exact(self):
        for theta in (0.0, 0.3, 0.6, 1.0):
            cards = zipf_cardinalities(10_001, 97, theta)
            assert sum(cards) == 10_001

    def test_first_fragment_is_largest(self):
        cards = zipf_cardinalities(1000, 10, 0.8)
        assert cards[0] == max(cards)

    def test_uniform_split(self):
        assert zipf_cardinalities(100, 10, 0.0) == [10] * 10

    def test_zero_total(self):
        assert zipf_cardinalities(0, 5, 1.0) == [0] * 5

    def test_rejects_negative_total(self):
        with pytest.raises(PartitioningError):
            zipf_cardinalities(-1, 5, 0.5)

    def test_paper_nmax_values(self):
        """Section 5.5: with 200 fragments, nmax = total/largest is
        ~6 for Zipf 1, ~19 for 0.6, ~40 for 0.4."""
        for theta, expected in ((1.0, 6), (0.6, 19), (0.4, 40)):
            cards = zipf_cardinalities(200_000, 200, theta)
            nmax = sum(cards) / max(cards)
            assert abs(nmax - expected) / expected < 0.15


class TestSkewRatio:
    def test_uniform_ratio_is_one(self):
        assert skew_ratio([5, 5, 5, 5]) == 1.0

    def test_empty_is_one(self):
        assert skew_ratio([]) == 1.0

    def test_all_zero_is_one(self):
        assert skew_ratio([0, 0]) == 1.0

    def test_ratio_value(self):
        assert skew_ratio([30, 10, 10, 10]) == 30 / 15

    def test_theoretical_matches_integer_version(self):
        theoretical = max(zipf_weights(100, 0.6)) * 100
        integral = skew_ratio(zipf_cardinalities(100_000, 100, 0.6))
        assert abs(theoretical - integral) / theoretical < 0.02
