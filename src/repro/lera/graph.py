"""Lera-par dataflow graphs.

A Lera-par program is a dataflow graph whose nodes are operators and
whose edges are activators (Section 2).  We distinguish

* **pipeline edges** — data activations flow tuple-by-tuple from
  producer instances to consumer instances at run time, and
* **materialized edges** — the producer's result is a stored relation
  the consumer reads as a fragment operand, so the consumer's chain
  only starts when the producer's chain is finished.

A maximal subgraph connected by pipeline edges is a **chain**
(the paper's *subquery*, e.g. Sq1..Sq5 in Figure 5); the chain DAG
induced by materialized edges drives scheduler step 2 and the
executor's wave-by-wave evaluation.

The *simple view* of the graph is the node/edge structure here; the
*extended view* (one instance per fragment, Figure 1) is produced by
the engine when it builds operation runtimes from the specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import PlanError
from repro.lera.activation import PIPELINED, TRIGGERED
from repro.lera.operators import OperatorSpec

#: Edge kinds.
PIPELINE = "pipeline"
MATERIALIZED = "materialized"


@dataclass
class LeraNode:
    """One operator node of the simple view."""

    name: str
    spec: OperatorSpec

    @property
    def trigger_mode(self) -> str:
        """``triggered`` or ``pipelined`` (from the spec)."""
        return self.spec.trigger_mode

    @property
    def instances(self) -> int:
        """Number of operator instances (extended-view width)."""
        return self.spec.instances

    def __repr__(self) -> str:
        return f"LeraNode({self.name!r}, {self.trigger_mode}, x{self.instances})"


@dataclass(frozen=True)
class LeraEdge:
    """A producer -> consumer activator edge."""

    producer: str
    consumer: str
    kind: str = PIPELINE

    def __post_init__(self) -> None:
        if self.kind not in (PIPELINE, MATERIALIZED):
            raise PlanError(f"unknown edge kind {self.kind!r}")


@dataclass(frozen=True)
class Chain:
    """A pipeline chain (the paper's subquery).

    ``nodes`` are in dataflow order: ``nodes[0]`` is the chain's
    triggered head; every later node is pipelined from its
    predecessor.
    """

    chain_id: int
    nodes: tuple[LeraNode, ...]

    @property
    def name(self) -> str:
        """The paper's subquery naming: ``Sq<k>``."""
        return f"Sq{self.chain_id}"

    @property
    def head(self) -> LeraNode:
        """The chain's triggered entry operator."""
        return self.nodes[0]

    def node_names(self) -> list[str]:
        """Operator names in dataflow order."""
        return [node.name for node in self.nodes]


class LeraGraph:
    """The simple view of a parallel execution plan."""

    def __init__(self) -> None:
        self._nodes: dict[str, LeraNode] = {}
        self._edges: list[LeraEdge] = []
        #: What the shape alone decides, kept until add_node / add_edge.
        self._derived: dict[str, object] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, name: str, spec: OperatorSpec) -> LeraNode:
        """Add one operator node; names must be unique."""
        if name in self._nodes:
            raise PlanError(f"duplicate node name {name!r}")
        node = LeraNode(name, spec)
        self._nodes[name] = node
        self._derived.clear()
        return node

    def add_edge(self, producer: str, consumer: str, kind: str = PIPELINE) -> LeraEdge:
        """Connect two existing nodes with a pipeline/materialized edge."""
        for endpoint in (producer, consumer):
            if endpoint not in self._nodes:
                raise PlanError(f"edge references unknown node {endpoint!r}")
        if producer == consumer:
            raise PlanError(f"self-edge on {producer!r}")
        edge = LeraEdge(producer, consumer, kind)
        self._edges.append(edge)
        self._derived.clear()
        return edge

    # -- access ---------------------------------------------------------------

    def node(self, name: str) -> LeraNode:
        """Look up a node; raises :class:`PlanError` if absent."""
        try:
            return self._nodes[name]
        except KeyError:
            raise PlanError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> list[LeraNode]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def edges(self) -> list[LeraEdge]:
        """All edges, in insertion order."""
        return list(self._edges)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[LeraNode]:
        return iter(self._nodes.values())

    def _kept(self, key: str, compute):
        """The derived structure *key*, computed at most once per shape."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = compute()
        return value

    def _pipeline(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Pipeline adjacency: (producers of, consumers of) each node."""
        producers = {name: [] for name in self._nodes}
        consumers = {name: [] for name in self._nodes}
        for edge in self._edges:
            if edge.kind == PIPELINE:
                producers[edge.consumer].append(edge.producer)
                consumers[edge.producer].append(edge.consumer)
        return producers, consumers

    def pipeline_consumer(self, name: str) -> str | None:
        """The node fed by *name* through a pipeline edge, if any."""
        consumers = self._kept("pipeline", self._pipeline)[1].get(name)
        return consumers[0] if consumers else None

    def pipeline_producers(self, name: str) -> list[str]:
        """Nodes feeding *name* through pipeline edges."""
        return list(self._kept("pipeline", self._pipeline)[0].get(name, ()))

    def fingerprints(self) -> dict[str, tuple | None]:
        """Canonical subplan fingerprints, memoized on the plan.

        Maps node name to a hashable identity tuple (``None`` when the
        node must never be shared); see :mod:`repro.lera.fingerprint`
        for the rules.  The memo is invalidated by graph mutation.
        """
        from repro.lera.fingerprint import compute_fingerprints
        return self._kept("fingerprints", lambda: compute_fingerprints(self))

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks; raises :class:`PlanError` on violation.

        * a pipelined node must have at least one pipeline producer;
        * a triggered node must have none (it is started by a trigger);
        * each node has at most one pipeline consumer (linear chains,
          as in all the paper's plans);
        * the graph is acyclic.
        """
        if "validated" in self._derived:
            return
        if not self._nodes:
            raise PlanError("empty plan")
        all_producers, all_consumers = self._kept("pipeline", self._pipeline)
        for name, consumers in all_consumers.items():
            if len(consumers) > 1:
                raise PlanError(
                    f"node {name!r} has {len(consumers)} pipeline consumers")
        for node in self._nodes.values():
            producers = all_producers[node.name]
            if node.trigger_mode == TRIGGERED and producers:
                raise PlanError(
                    f"triggered node {node.name!r} has pipeline producers "
                    f"{producers}")
            if node.trigger_mode == PIPELINED and not producers:
                raise PlanError(
                    f"pipelined node {node.name!r} has no pipeline producer")
        self._check_acyclic()
        self._derived["validated"] = True

    def _check_acyclic(self) -> None:
        adjacency: dict[str, list[str]] = {name: [] for name in self._nodes}
        indegree: dict[str, int] = {name: 0 for name in self._nodes}
        for edge in self._edges:
            adjacency[edge.producer].append(edge.consumer)
            indegree[edge.consumer] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        seen = 0
        while frontier:
            name = frontier.pop()
            seen += 1
            for succ in adjacency[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if seen != len(self._nodes):
            raise PlanError("plan graph contains a cycle")

    # -- chain decomposition -----------------------------------------------------

    def chains(self) -> list[Chain]:
        """Decompose the plan into pipeline chains, in dataflow order."""
        return list(self._kept("chains", self._decompose))

    def _decompose(self) -> list[Chain]:
        consumed: set[str] = set()
        chains: list[Chain] = []
        heads = [node for node in self._nodes.values()
                 if not self.pipeline_producers(node.name)]
        for chain_id, head in enumerate(heads, start=1):
            nodes = [head]
            consumed.add(head.name)
            current = head.name
            while True:
                successor = self.pipeline_consumer(current)
                if successor is None:
                    break
                if successor in consumed:
                    raise PlanError(
                        f"node {successor!r} belongs to two chains")
                nodes.append(self.node(successor))
                consumed.add(successor)
                current = successor
            chains.append(Chain(chain_id, tuple(nodes)))
        missing = set(self._nodes) - consumed
        if missing:
            raise PlanError(f"nodes unreachable from any chain head: {missing}")
        return chains

    def chain_dependencies(self, chains: list[Chain]) -> dict[int, set[int]]:
        """Chain-level DAG: chain -> set of chains it must wait for."""
        owner: dict[str, int] = {}
        for chain in chains:
            for node in chain.nodes:
                owner[node.name] = chain.chain_id
        dependencies: dict[int, set[int]] = {c.chain_id: set() for c in chains}
        for edge in self._edges:
            if edge.kind != MATERIALIZED:
                continue
            producer_chain = owner[edge.producer]
            consumer_chain = owner[edge.consumer]
            if producer_chain != consumer_chain:
                dependencies[consumer_chain].add(producer_chain)
        return dependencies

    def chain_waves(self) -> list[list[Chain]]:
        """Topological *waves* of chains: each wave runs concurrently,
        waves run in order.  Wave k holds the chains whose longest
        dependency path has length k."""
        return [list(wave) for wave in self._kept("waves", self._level_chains)]

    def _level_chains(self) -> list[list[Chain]]:
        chains = self.chains()
        dependencies = self.chain_dependencies(chains)
        by_id = {c.chain_id: c for c in chains}
        level: dict[int, int] = {}
        for chain_id in dependency_order(dependencies):
            deps = dependencies[chain_id]
            level[chain_id] = 1 + max(level[d] for d in deps) if deps else 0
        max_level = max(level.values())
        waves = [[] for _ in range(max_level + 1)]
        for chain_id, lvl in level.items():
            waves[lvl].append(by_id[chain_id])
        return waves


def dependency_order(dependencies: dict) -> list:
    """The keys of *dependencies* (key -> the keys it waits for), each
    after every key it waits for: the depth-first post-order from each
    key in turn, dependencies in iteration order.  A loop, so the walk
    leaves no recursive closure behind.  Raises
    :class:`~repro.errors.PlanError` on a cycle."""
    order: dict = {}
    for root in dependencies:
        path = {root}
        stack = [(root, iter(dependencies[root]))]
        while stack:
            key, pending = stack[-1]
            for dep in pending:
                if dep in path:
                    raise PlanError("cycle among chains")
                if dep not in order:
                    path.add(dep)
                    stack.append((dep, iter(dependencies[dep])))
                    break
            else:
                stack.pop()
                path.discard(key)
                order[key] = None
    return list(order)
