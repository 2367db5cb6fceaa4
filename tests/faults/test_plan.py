"""FaultPlan validation and seeded generation.

The plan layer is pure data: these tests pin its validation errors and
the determinism contract of :meth:`FaultPlan.generate` — the chaos
sweep's replayability rests on same-seed-same-plan.
"""

import pytest

from repro.errors import FaultError
from repro.faults import (
    ActivationFaults,
    FaultPlan,
    MemoryPressure,
    SlowdownWindow,
    StallWindow,
)


class TestValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(FaultError, match="empty"):
            SlowdownWindow(1.0, 1.0, 2.0)

    def test_negative_window_rejected(self):
        with pytest.raises(FaultError, match="empty or negative"):
            StallWindow(-0.5, 1.0)

    def test_speedup_factor_rejected(self):
        with pytest.raises(FaultError, match="factor must be >= 1"):
            SlowdownWindow(0.0, 1.0, 0.5)

    def test_memory_pressure_factor_bounds(self):
        with pytest.raises(FaultError, match="factor"):
            MemoryPressure(at=0.1, factor=1.0)
        with pytest.raises(FaultError, match="factor"):
            MemoryPressure(at=0.1, factor=0.0)

    def test_activation_rate_out_of_range(self):
        with pytest.raises(FaultError, match="rate"):
            ActivationFaults(rate=-0.1)

    def test_retry_parameters_must_be_positive(self):
        with pytest.raises(FaultError, match="retry parameters"):
            ActivationFaults(rate=0.1, backoff=0.0)

    def test_plan_fields_must_be_tuples(self):
        with pytest.raises(FaultError, match="tuple"):
            FaultPlan(slowdowns=[SlowdownWindow(0.0, 1.0, 2.0)])

    def test_spec_in_the_wrong_group_rejected(self):
        # Otherwise the run fails with AttributeError ('StallWindow'
        # object has no attribute 'factor').
        with pytest.raises(FaultError,
                           match="slowdowns holds SlowdownWindows, got "
                                 "StallWindow"):
            FaultPlan(slowdowns=(StallWindow(0, 1),))

    def test_memory_group_holds_memory_pressure_only(self):
        # Otherwise the run fails with no attribute 'at'.
        with pytest.raises(FaultError,
                           match="memory holds MemoryPressures, got "
                                 "SlowdownWindow"):
            FaultPlan(memory=(SlowdownWindow(0, 1, 2.0),))


class TestGenerate:
    OPS = ("scan_a", "transmit", "join")

    def test_same_seed_same_plan(self):
        assert (FaultPlan.generate(7, self.OPS)
                == FaultPlan.generate(7, self.OPS))

    def test_different_seeds_differ(self):
        plans = {FaultPlan.generate(seed, self.OPS) for seed in range(4)}
        assert len(plans) == 4

    def test_generated_plan_targets_known_operations(self):
        plan = FaultPlan.generate(0, self.OPS)
        assert plan != FaultPlan(seed=0)
        for spec in plan.activations:
            assert spec.operation in self.OPS

    def test_generate_needs_operations(self):
        with pytest.raises(FaultError, match="at least one operation"):
            FaultPlan.generate(0, ())
