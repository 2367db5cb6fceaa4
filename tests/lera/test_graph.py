"""Lera graph structure, validation, chain decomposition."""

import pytest

from repro.errors import PlanError
from repro.lera.graph import MATERIALIZED, PIPELINE, LeraEdge, LeraGraph
from repro.lera.operators import (
    PipelinedJoinSpec,
    ScanFilterSpec,
    TransmitSpec,
)
from repro.lera.predicates import TRUE
from repro.storage.fragment import Fragment
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")


def _frags(name, count=2, card=3):
    return [Fragment(name, i, SCHEMA, [(i + count * j, 0) for j in range(card)])
            for i in range(count)]


def _filter_spec(name="R"):
    return ScanFilterSpec(_frags(name), TRUE, SCHEMA)


def _transmit_spec(name="B"):
    return TransmitSpec(_frags(name), "key", 2)


def _pipejoin_spec(name="A"):
    return PipelinedJoinSpec(_frags(name), "key", SCHEMA, "key",
                             stream_cardinality=6)


class TestGraphConstruction:
    def test_add_node_and_lookup(self):
        graph = LeraGraph()
        graph.add_node("f", _filter_spec())
        assert "f" in graph
        assert graph.node("f").instances == 2

    def test_duplicate_node_rejected(self):
        graph = LeraGraph()
        graph.add_node("f", _filter_spec())
        with pytest.raises(PlanError):
            graph.add_node("f", _filter_spec())

    def test_edge_to_unknown_node_rejected(self):
        graph = LeraGraph()
        graph.add_node("f", _filter_spec())
        with pytest.raises(PlanError):
            graph.add_edge("f", "ghost")

    def test_self_edge_rejected(self):
        graph = LeraGraph()
        graph.add_node("f", _filter_spec())
        with pytest.raises(PlanError):
            graph.add_edge("f", "f")

    def test_unknown_edge_kind_rejected(self):
        with pytest.raises(PlanError):
            LeraEdge("a", "b", "wireless")

    def test_node_lookup_unknown_raises(self):
        with pytest.raises(PlanError):
            LeraGraph().node("nope")


class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError, match="empty"):
            LeraGraph().validate()

    def test_pipelined_node_needs_producer(self):
        graph = LeraGraph()
        graph.add_node("join", _pipejoin_spec())
        with pytest.raises(PlanError, match="no pipeline producer"):
            graph.validate()

    def test_triggered_node_cannot_have_producer(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("f", _filter_spec())
        graph.add_edge("t", "f", PIPELINE)
        with pytest.raises(PlanError, match="triggered"):
            graph.validate()

    def test_two_pipeline_consumers_rejected(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j1", _pipejoin_spec("A1"))
        graph.add_node("j2", _pipejoin_spec("A2"))
        graph.add_edge("t", "j1", PIPELINE)
        graph.add_edge("t", "j2", PIPELINE)
        with pytest.raises(PlanError, match="pipeline consumers"):
            graph.validate()

    def test_cycle_rejected(self):
        graph = LeraGraph()
        graph.add_node("a", _filter_spec("Ra"))
        graph.add_node("b", _filter_spec("Rb"))
        graph.add_edge("a", "b", MATERIALIZED)
        graph.add_edge("b", "a", MATERIALIZED)
        with pytest.raises(PlanError, match="cycle"):
            graph.validate()

    def test_valid_pipeline_passes(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j", _pipejoin_spec())
        graph.add_edge("t", "j", PIPELINE)
        graph.validate()


class TestChains:
    def _two_chain_graph(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j", _pipejoin_spec())
        graph.add_edge("t", "j", PIPELINE)
        graph.add_node("f", _filter_spec())
        graph.add_edge("f", "t", MATERIALIZED)
        return graph

    def test_single_chain(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j", _pipejoin_spec())
        graph.add_edge("t", "j", PIPELINE)
        chains = graph.chains()
        assert len(chains) == 1
        assert chains[0].node_names() == ["t", "j"]
        assert chains[0].head.name == "t"
        assert chains[0].tail.name == "j"

    def test_two_chains_split_on_materialization(self):
        chains = self._two_chain_graph().chains()
        assert len(chains) == 2
        names = {tuple(c.node_names()) for c in chains}
        assert ("t", "j") in names
        assert ("f",) in names

    def test_chain_dependencies(self):
        graph = self._two_chain_graph()
        chains = graph.chains()
        deps = graph.chain_dependencies(chains)
        by_head = {c.head.name: c.chain_id for c in chains}
        assert deps[by_head["t"]] == {by_head["f"]}
        assert deps[by_head["f"]] == set()

    def test_chain_waves_order(self):
        graph = self._two_chain_graph()
        waves = graph.chain_waves()
        assert len(waves) == 2
        assert waves[0][0].head.name == "f"
        assert waves[1][0].head.name == "t"

    def test_single_wave_for_independent_chains(self):
        graph = LeraGraph()
        graph.add_node("f1", _filter_spec("R1"))
        graph.add_node("f2", _filter_spec("R2"))
        waves = graph.chain_waves()
        assert len(waves) == 1
        assert len(waves[0]) == 2


class TestDerivedStructureMemo:
    """The graph keeps what it derived from its shape; mutation drops it."""

    def _pipeline(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j", _pipejoin_spec())
        graph.add_edge("t", "j", PIPELINE)
        return graph

    def test_unmutated_graph_is_walked_once(self, monkeypatch):
        graph = self._pipeline()
        walks = []
        original = LeraGraph._check_acyclic
        monkeypatch.setattr(
            LeraGraph, "_check_acyclic",
            lambda self: (walks.append(1), original(self))[1])
        for _ in range(3):
            graph.validate()
        assert len(walks) == 1
        graph.add_node("f", _filter_spec())
        graph.validate()
        assert len(walks) == 2

    def test_cycle_closed_after_validate_is_still_rejected(self):
        graph = LeraGraph()
        graph.add_node("a", _filter_spec("Ra"))
        graph.add_node("b", _filter_spec("Rb"))
        graph.add_edge("a", "b", MATERIALIZED)
        graph.validate()
        graph.add_edge("b", "a", MATERIALIZED)
        with pytest.raises(PlanError, match="cycle"):
            graph.validate()

    def test_failed_validation_is_not_remembered_as_passed(self):
        graph = LeraGraph()
        graph.add_node("j", _pipejoin_spec())
        for _ in range(2):
            with pytest.raises(PlanError, match="no pipeline producer"):
                graph.validate()

    def test_node_added_after_chains_shows_up(self):
        graph = self._pipeline()
        assert len(graph.chains()) == 1
        assert len(graph.chain_waves()) == 1
        graph.add_node("f", _filter_spec())
        graph.add_edge("f", "t", MATERIALIZED)
        assert {tuple(c.node_names()) for c in graph.chains()} == {
            ("t", "j"), ("f",)}
        assert [wave[0].head.name for wave in graph.chain_waves()] == [
            "f", "t"]

    def test_edge_added_after_adjacency_shows_up(self):
        graph = LeraGraph()
        graph.add_node("t", _transmit_spec())
        graph.add_node("j", _pipejoin_spec())
        assert graph.pipeline_consumer("t") is None
        assert graph.pipeline_producers("j") == []
        graph.add_edge("t", "j", PIPELINE)
        assert graph.pipeline_consumer("t") == "j"
        assert graph.pipeline_producers("j") == ["t"]
        assert graph.pipeline_consumer("ghost") is None
        assert graph.pipeline_producers("ghost") == []

    def test_returned_structures_are_the_callers_to_mutate(self):
        graph = self._pipeline()
        chains = graph.chains()
        with pytest.raises(AttributeError):     # a Chain is a value
            chains[0].nodes = ()
        chains.clear()
        waves = graph.chain_waves()
        waves[0].clear()
        waves.clear()
        graph.pipeline_producers("j").append("ghost")
        assert [c.node_names() for c in graph.chains()] == [["t", "j"]]
        assert [[c.node_names() for c in wave]
                for wave in graph.chain_waves()] == [[["t", "j"]]]
        assert graph.pipeline_producers("j") == ["t"]
        graph.validate()
