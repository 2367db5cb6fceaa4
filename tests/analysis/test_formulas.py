"""Section 4.1 analytical model, including the paper's worked examples."""

import math

import pytest

from repro.analysis.formulas import (
    OperatorProfile,
    ideal_time,
    nmax,
    nmax_from_costs,
    skew_overhead_bound,
    worst_time,
)
from repro.errors import ReproError
from repro.storage.skew import zipf_cardinalities


class TestEquations:
    def test_ideal_time_is_work_over_threads(self):
        assert ideal_time(100, 2.0, 10) == 20.0

    def test_worst_time_adds_longest_activation(self):
        # (a*P - Pmax)/n + Pmax
        assert worst_time(10, 1.0, 4.0, 3) == (10 - 4) / 3 + 4

    def test_worst_at_one_thread_is_total(self):
        assert worst_time(10, 1.0, 4.0, 1) == 10.0

    def test_v_bound_formula(self):
        # v <= (Pmax/P) * (n-1) / a
        assert skew_overhead_bound(100, 1.0, 5.0, 11) == 5.0 * 10 / 100

    def test_v_bound_single_thread_is_zero(self):
        assert skew_overhead_bound(100, 1.0, 5.0, 1) == 0.0

    def test_paper_worked_example(self):
        """Section 5.5 footnote: Zipf=1, 200 buckets gives Pmax = 34 P;
        with 70 threads and 20000 activations, v = 34*69/20000 = 0.117."""
        v = skew_overhead_bound(20_000, 1.0, 34.0, 70)
        assert math.isclose(v, 0.117, rel_tol=0.01)

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ReproError):
            ideal_time(10, 1.0, 0)
        with pytest.raises(ReproError):
            skew_overhead_bound(10, 1.0, 1.0, 0)


class TestNmax:
    def test_formula(self):
        assert nmax(100, 1.0, 25.0) == 4.0

    def test_infinite_when_no_peak(self):
        assert nmax(10, 0.0, 0.0) == math.inf

    def test_from_costs(self):
        assert nmax_from_costs([1.0, 1.0, 2.0]) == 2.0

    def test_from_empty_costs(self):
        assert nmax_from_costs([]) == math.inf

    def test_paper_nmax_from_zipf_fragments(self):
        """nmax = 6 (Zipf 1), 19 (0.6), 40 (0.4) with 200 fragments."""
        for theta, expected in ((1.0, 6), (0.6, 19), (0.4, 40)):
            costs = [float(c) for c in zipf_cardinalities(200_000, 200, theta)]
            assert abs(nmax_from_costs(costs) - expected) / expected < 0.15


class TestOperatorProfile:
    def test_aggregates(self):
        profile = OperatorProfile.of([1.0, 3.0, 2.0])
        assert profile.activations == 3
        assert profile.total_cost == 6.0
        assert profile.mean_cost == 2.0
        assert profile.max_cost == 3.0
        assert profile.skew_factor == 1.5

    def test_empty_profile(self):
        profile = OperatorProfile.of([])
        assert profile.mean_cost == 0.0
        assert profile.skew_factor == 1.0
        assert profile.nmax == math.inf

    def test_times_consistent_with_functions(self):
        profile = OperatorProfile.of([1.0, 2.0, 3.0])
        assert profile.ideal_time(2) == ideal_time(3, 2.0, 2)
        assert profile.worst_time(2) == worst_time(3, 2.0, 3.0, 2)
        assert profile.v_bound(2) == skew_overhead_bound(3, 2.0, 3.0, 2)

    def test_lower_bound_is_max_of_ideal_and_pmax(self):
        profile = OperatorProfile.of([1.0, 1.0, 10.0])
        assert profile.lower_bound_time(12) == 10.0
        assert profile.lower_bound_time(1) == 12.0

    def test_worst_never_below_ideal(self):
        profile = OperatorProfile.of([0.5, 1.5, 2.0, 4.0])
        for threads in range(1, 10):
            assert profile.worst_time(threads) >= profile.ideal_time(threads) - 1e-12
