"""Seeded open-loop arrivals: determinism and shape.

The serving layer's reproducibility story starts here — every
arrival instant must be a pure function of (rate, count, seed),
strictly increasing, and long-run close to the requested rate.
"""

import pytest

from repro.errors import WorkloadError
from repro.serve.arrivals import (
    ARRIVAL_PROCESSES,
    PoissonArrivals,
    make_arrival_process,
)

PROCESSES = [PoissonArrivals(rate=20.0)]


@pytest.mark.parametrize("process", PROCESSES, ids=ARRIVAL_PROCESSES)
class TestEveryProcess:
    def test_times_are_strictly_increasing_and_positive(self, process):
        times = process.times(500, seed=3)
        assert len(times) == 500
        assert times[0] > 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_same_seed_same_times(self, process):
        assert process.times(400, seed=11) == process.times(400, seed=11)

    def test_different_seeds_differ(self, process):
        assert process.times(50, seed=0) != process.times(50, seed=1)

    def test_empirical_rate_tracks_mean_rate(self, process):
        # Long-run arrivals per virtual second within 15 % of the
        # requested rate.
        count = 6000
        times = process.times(count, seed=0)
        empirical = count / times[-1]
        assert empirical == pytest.approx(process.rate, rel=0.15)


class TestPoisson:
    def test_rate_must_be_positive(self):
        with pytest.raises(WorkloadError, match="rate must be > 0"):
            PoissonArrivals(rate=0.0)


class TestRegistry:
    @pytest.mark.parametrize("name", ARRIVAL_PROCESSES)
    def test_factory_matches_the_requested_mean_rate(self, name):
        assert make_arrival_process(name, 24.0) == PoissonArrivals(24.0)

    def test_unknown_name_is_an_error(self):
        with pytest.raises(WorkloadError, match="unknown arrival process"):
            make_arrival_process("mmpp", 10.0)
