"""Speed-up curves and ceilings."""

import pytest

from repro.analysis.speedup import SpeedupCurve, speedup
from repro.errors import ReproError


class TestBasics:
    def test_speedup(self):
        assert speedup(100.0, 10.0) == 10.0

    def test_speedup_rejects_zero(self):
        with pytest.raises(ReproError):
            speedup(1.0, 0.0)


class TestSpeedupCurve:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            SpeedupCurve((1, 2), (1.0,))

    def test_peak(self):
        curve = SpeedupCurve((10, 20, 30), (9.0, 18.0, 17.0))
        assert curve.peak == 18.0

    def test_ceiling_averages_plateau(self):
        curve = SpeedupCurve((10, 20, 30, 40), (5.0, 5.9, 6.0, 5.95))
        assert 5.9 <= curve.ceiling() <= 6.0
