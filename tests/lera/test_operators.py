"""Operator specs: instances, trigger modes, cost estimates."""

from dataclasses import replace

import pytest

from repro.errors import PlanError
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.lera.operators import (
    JOIN_NESTED_LOOP,
    JOIN_TEMP_INDEX,
    JoinSpec,
    PipelinedJoinSpec,
    ScanFilterSpec,
    TransmitSpec,
)
from repro.lera.predicates import TRUE
from repro.machine.costs import DEFAULT_COSTS
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")


def _fragments(name, cardinalities):
    return [Fragment(name, i, SCHEMA, [(i + 100 * j, 0) for j in range(c)])
            for i, c in enumerate(cardinalities)]


class TestScanFilterSpec:
    def test_instances_and_mode(self):
        spec = ScanFilterSpec(_fragments("R", [5, 5]), TRUE, SCHEMA)
        assert spec.instances == 2
        assert spec.trigger_mode == TRIGGERED

    def test_estimates_proportional_to_cardinality(self):
        spec = ScanFilterSpec(_fragments("R", [10, 20]), TRUE, SCHEMA)
        estimates = spec.estimated_instance_costs(DEFAULT_COSTS)
        assert estimates[1] == pytest.approx(2 * estimates[0])

    def test_output_cardinality_uses_selectivity(self):
        from repro.lera.predicates import Predicate
        spec = ScanFilterSpec(_fragments("R", [10, 10]),
                              Predicate("p", lambda r: True, 0.25), SCHEMA)
        assert spec.estimated_output_cardinality() == pytest.approx(5.0)

    def test_rejects_empty_fragments(self):
        with pytest.raises(PlanError):
            ScanFilterSpec([], TRUE, SCHEMA)


class TestJoinSpec:
    def test_mismatched_degrees_rejected(self):
        with pytest.raises(PlanError):
            JoinSpec(_fragments("A", [5, 5]), _fragments("B", [5]),
                     "key", "key")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(PlanError):
            JoinSpec(_fragments("A", [5]), _fragments("B", [5]),
                     "key", "key", algorithm="sort_merge")

    def test_nested_loop_estimate_is_product(self):
        spec = JoinSpec(_fragments("A", [10]), _fragments("B", [20]),
                        "key", "key")
        estimate = spec.estimated_instance_costs(DEFAULT_COSTS)[0]
        assert estimate == pytest.approx(200 * DEFAULT_COSTS.tuple_pair)

    def test_temp_index_estimate_has_build_and_probe(self):
        spec = JoinSpec(_fragments("A", [16]), _fragments("B", [4]),
                        "key", "key", algorithm=JOIN_TEMP_INDEX)
        estimate = spec.estimated_instance_costs(DEFAULT_COSTS)[0]
        build = DEFAULT_COSTS.index_build_cost(16)
        probe = 4 * DEFAULT_COSTS.index_probe_cost(16, 0)
        assert estimate == pytest.approx(build + probe)

    def test_output_schema_concatenates(self):
        spec = JoinSpec(_fragments("A", [1]), _fragments("B", [1]),
                        "key", "key")
        assert len(spec.output_schema) == 4

    def test_total_complexity_sums(self):
        spec = JoinSpec(_fragments("A", [10, 10]), _fragments("B", [5, 5]),
                        "key", "key")
        estimates = spec.estimated_instance_costs(DEFAULT_COSTS)
        assert spec.total_complexity(DEFAULT_COSTS) == pytest.approx(sum(estimates))

    def test_memo_survives_a_recycled_cost_model_address(self):
        """A dropped model's address goes to the next one built: the
        memo must know the model, not where it lived."""
        outer, inner = _fragments("A", [10, 30]), _fragments("B", [5, 7])
        spec = JoinSpec(outer, inner, "key", "key")
        for i in range(20):
            for pair in (48e-6 + i * 1e-6, 7e-6 + i * 1e-6):
                costs = replace(DEFAULT_COSTS, tuple_pair=pair)
                fresh = JoinSpec(outer, inner, "key", "key")
                assert (spec.estimated_instance_costs(costs)
                        == fresh.estimated_instance_costs(costs))
                del costs

    def test_memo_follows_operand_cardinalities(self):
        outer, inner = _fragments("A", [10, 30]), _fragments("B", [5, 7])
        spec = JoinSpec(outer, inner, "key", "key")
        before = spec.estimated_instance_costs(DEFAULT_COSTS)
        assert spec.estimated_instance_costs(DEFAULT_COSTS) == before
        inner[1].append((1, 0))
        after = spec.estimated_instance_costs(DEFAULT_COSTS)
        assert after[0] == before[0]
        assert after[1] == pytest.approx(30 * 8 * DEFAULT_COSTS.tuple_pair)


class TestTransmitSpec:
    def test_mode_and_tuples(self):
        spec = TransmitSpec(_fragments("B", [4, 6]), "key", 10)
        assert spec.trigger_mode == TRIGGERED
        assert spec.total_tuples() == 10

    def test_key_position(self):
        spec = TransmitSpec(_fragments("B", [1]), "payload", 4)
        assert spec.key_position == 1

    def test_rejects_bad_target_degree(self):
        with pytest.raises(PlanError):
            TransmitSpec(_fragments("B", [1]), "key", 0)

    def test_estimates(self):
        spec = TransmitSpec(_fragments("B", [8]), "key", 4)
        estimate = spec.estimated_instance_costs(DEFAULT_COSTS)[0]
        assert estimate == pytest.approx(8 * DEFAULT_COSTS.transmit_tuple)


class TestPipelinedJoinSpec:
    def _spec(self, cards, algorithm=JOIN_NESTED_LOOP, stream=100):
        return PipelinedJoinSpec(
            stored_fragments=_fragments("A", cards),
            stored_key="key",
            stream_schema=SCHEMA,
            stream_key="key",
            algorithm=algorithm,
            stream_cardinality=stream,
        )

    def test_mode_is_pipelined(self):
        assert self._spec([5]).trigger_mode == PIPELINED

    def test_estimated_activations_is_stream(self):
        assert self._spec([5], stream=42).estimated_activations() == 42

    def test_per_activation_estimate_tracks_fragment_size(self):
        estimates = self._spec([10, 30]).estimated_instance_costs(DEFAULT_COSTS)
        assert estimates[1] == pytest.approx(3 * estimates[0])

    def test_total_complexity_includes_build_for_index(self):
        nl = self._spec([64], stream=10).total_complexity(DEFAULT_COSTS)
        indexed = self._spec([64], JOIN_TEMP_INDEX, stream=10).total_complexity(
            DEFAULT_COSTS)
        assert indexed != nl

    def test_key_positions(self):
        spec = self._spec([5])
        assert spec.stored_key_position == 0
        assert spec.stream_key_position == 0

    def test_output_schema(self):
        assert len(self._spec([5]).output_schema) == 4
