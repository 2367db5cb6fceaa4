"""The series arithmetic the figure rows' ``shape`` variants use:
spread, crossover, and the plateau ceiling (``SpeedupCurve``'s)."""

import pytest

from repro.analysis.speedup import SpeedupCurve
from repro.bench.figures import crossover, spread
from repro.errors import ReproError


class TestSeries:
    def test_spread(self):
        assert spread((10.0, 12.0, 11.0)) == pytest.approx(0.2)

    def test_spread_rejects_zero(self):
        with pytest.raises(ReproError):
            spread((0.0, 1.0))

    def test_peak_and_ceiling(self):
        curve = SpeedupCurve((10, 20, 30, 40), (5.0, 5.9, 6.0, 5.95))
        assert curve.peak == 6.0
        assert 5.9 <= curve.ceiling() <= 6.0


class TestCrossover:
    def test_finds_crossover(self):
        assert crossover((1.0, 2.0, 5.0), (3.0, 3.0, 3.0)) == 2

    def test_no_crossover(self):
        assert crossover((1.0, 1.0), (3.0, 3.0)) is None

    def test_series_that_starts_above(self):
        """It must first dip under: index 2, not 0 and not ``None``."""
        assert crossover((3.0, 1.0, 3.0), (2.0, 2.0, 2.0)) == 2
        assert crossover((3.0, 3.0), (2.0, 2.0)) is None
