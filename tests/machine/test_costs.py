"""Cost-model arithmetic and calibration invariants."""

import math

import pytest

from repro.errors import MachineError
from repro.machine.costs import DEFAULT_COSTS, CostModel


class TestValidation:
    def test_default_is_valid(self):
        assert DEFAULT_COSTS.tuple_pair > 0

    def test_negative_constant_rejected(self):
        with pytest.raises(MachineError):
            CostModel(tuple_pair=-1.0)

    def test_zero_line_bytes_rejected(self):
        with pytest.raises(MachineError):
            CostModel(line_bytes=0)


class TestDerivedCosts:
    def test_remote_penalty(self):
        assert DEFAULT_COSTS.remote_penalty_per_line() == pytest.approx(
            DEFAULT_COSTS.remote_line - DEFAULT_COSTS.local_line)

    def test_remote_is_about_six_times_local(self):
        """Section 5.2: remote access is ~6x a local access."""
        ratio = DEFAULT_COSTS.remote_line / DEFAULT_COSTS.local_line
        assert 5 <= ratio <= 7

    def test_lines_rounds_up(self):
        assert DEFAULT_COSTS.lines(1) == 1
        assert DEFAULT_COSTS.lines(128) == 1
        assert DEFAULT_COSTS.lines(129) == 2

    def test_lines_minimum_one(self):
        assert DEFAULT_COSTS.lines(0) == 1

    def test_nested_loop_cost(self):
        cost = DEFAULT_COSTS.nested_loop_cost(10, 20, 3)
        expected = 200 * DEFAULT_COSTS.tuple_pair + 3 * DEFAULT_COSTS.result_tuple
        assert cost == pytest.approx(expected)

    def test_index_build_nlogn(self):
        cost = DEFAULT_COSTS.index_build_cost(1024)
        assert cost == pytest.approx(1024 * 10 * DEFAULT_COSTS.index_compare)

    def test_index_build_tiny(self):
        assert DEFAULT_COSTS.index_build_cost(0) == 0.0
        assert DEFAULT_COSTS.index_build_cost(1) == DEFAULT_COSTS.index_compare

    def test_index_probe(self):
        cost = DEFAULT_COSTS.index_probe_cost(1024, 2)
        expected = 10 * DEFAULT_COSTS.index_compare + 2 * DEFAULT_COSTS.result_tuple
        assert cost == pytest.approx(expected)


class TestCalibration:
    def test_sequential_ideal_join_near_paper(self):
        """Figure 15's Tseq ~= 956 s: 200K x 20K nested loop over 200
        fragments is 20M tuple pairs."""
        pairs = 200 * (1000 * 100)
        sequential = pairs * DEFAULT_COSTS.tuple_pair
        assert math.isclose(sequential, 956, rel_tol=0.15)

    def test_assoc_join_extra_near_paper(self):
        """Figure 14's Tseq ~= 1048 s adds ~92 s of transmit/pipeline
        handling for 20K tuples."""
        extra = 20_000 * (DEFAULT_COSTS.transmit_tuple
                          + DEFAULT_COSTS.pipelined_activation)
        assert math.isclose(extra, 92, rel_tol=0.15)

    def test_queue_creation_slopes_near_paper(self):
        """Figure 16: ~0.45 ms/degree (IdealJoin) and ~4 ms/degree
        (AssocJoin: one triggered + one pipelined queue per degree)."""
        assert math.isclose(DEFAULT_COSTS.queue_create_triggered, 0.45e-3,
                            rel_tol=0.25)
        per_degree = (DEFAULT_COSTS.queue_create_triggered
                      + DEFAULT_COSTS.queue_create_pipelined)
        assert math.isclose(per_degree, 4e-3, rel_tol=0.25)
