"""Shared-work execution: fold concurrent queries into shared operators.

SharedDB's "one thousand queries with one stone" applied to the
workload engine: when a query is admitted, its subplans are matched —
by canonical fingerprint (:mod:`repro.lera.fingerprint`) — against the
subplans of queries already on the machine.  A match *folds*: the
incoming query does not build (or pay start-up for) its own runtime;
instead the already-running operator gains one more delivery edge (a
:class:`~repro.engine.operation.DeliveryTap` on its ``outputs``) whose
output fans out to the new subscriber.  One scan feeds N queries; throughput at high MPL
scales with *distinct* work instead of query count.

The pieces here are pure bookkeeping — the engine integration lives in
:mod:`repro.workload.engine`:

* :class:`SharedOperator` — one host runtime plus its subscriber
  reference counts (``active_tags``) and attribution denominators
  (``all_tags``).
* :class:`FoldRegistry` — fingerprint -> shared operator, with the
  *foldability window*: an operator accepts new subscribers only while
  nothing has been delivered yet (its pool is unbuilt, or built with a
  start time still in the future — the sequential start-up phase).
  Past that, a late subscriber would miss rows already routed.
* :func:`plan_folds` — the fold pass over one incoming plan: a node
  folds iff its fingerprint has a live registry entry AND all its
  pipeline producers folded (otherwise a private producer would have
  to feed the shared operator, corrupting the host's input stream).

Folding is restricted to operators in the host's *first* wave.  A
fingerprintable node has no materialized inputs anywhere in its
producer cone, but a node later in its chain may, pushing the whole
chain to a later wave; registering only wave-0 hosts guarantees every
registered runtime has its pool built synchronously during the host's
admission, so a cancelled host can always be *detached* (its own edge
stops, the subscribers' edges keep flowing) without ever needing to
adopt an unstarted operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lera.graph import LeraGraph

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.operation import DeliveryTap, OperationRuntime


class SharedOperator:
    """One runtime serving several queries.

    Attributes:
        runtime: The host query's operation runtime (the one whose
            threads actually do the work).
        host_tag: The query that built (and pays primary wiring for)
            the runtime.
        fingerprint: The canonical identity it was registered under.
        complexity: The operator's estimated complexity — split across
            ``active_tags`` by the engine's step-0 accounting.
        footprint: The operator's stored-data bytes — split across
            subscribers by the admission gate.
        active_tags: Live subscribers (host included).  The reference
            count: a cancelled/timed-out/faulted subscriber leaves;
            when the *host* leaves with survivors the runtime is
            detached; when the set empties mid-flight the orphan is
            drained.
        all_tags: Every query that ever subscribed — the cost-share
            denominator for per-query metrics (`1/len(all_tags)`).
        edges: Per-subscriber delivery edges (host excluded: the host
            uses the runtime's own edge, ``outputs[0]``; an interior
            fold subscribes with none).
        dead: No longer accepts new subscribers (host finished,
            cancelled, or the operator faulted).
        detached: The host left while others still subscribed, and
            the runtime runs on for them outside the host's wave; when
            the last of them leaves too, the orphan is drained.
    """

    __slots__ = ("runtime", "host_tag", "fingerprint", "complexity",
                 "footprint", "active_tags", "all_tags", "edges", "dead",
                 "detached")

    def __init__(self, runtime: "OperationRuntime", host_tag: str,
                 fingerprint: tuple, complexity: float,
                 footprint: int) -> None:
        self.runtime = runtime
        self.host_tag = host_tag
        self.fingerprint = fingerprint
        self.complexity = complexity
        self.footprint = footprint
        self.active_tags: set[str] = {host_tag}
        self.all_tags: set[str] = {host_tag}
        self.edges: dict[str, list[DeliveryTap]] = {}
        self.dead = False
        self.detached = False

    def valid(self, now: float) -> bool:
        """May a query admitted at *now* still fold onto this runtime?

        Sound exactly while nothing has been delivered: either the
        pool is not built yet (host admitted in the same batch), or it
        was built with a start time still in the future (the host is
        inside its sequential start-up window), so no thread has
        processed or routed anything at virtual time *now*.
        """
        if self.dead or not self.active_tags:
            return False
        runtime = self.runtime
        return not runtime.threads or runtime.started_at > now

    def attach(self, tag: str, edge: "DeliveryTap | None") -> None:
        """Subscribe *tag*: through *edge*, appended to the runtime's
        outputs, or through none for an interior fold (the data flows
        inside the host's own wiring)."""
        self.active_tags.add(tag)
        self.all_tags.add(tag)
        if edge is not None:
            self.runtime.outputs.append(edge)
            self.edges.setdefault(tag, []).append(edge)

    def __repr__(self) -> str:
        return (f"SharedOperator({self.runtime.name!r}, host={self.host_tag!r}, "
                f"subscribers={sorted(self.active_tags)})")


class FoldRegistry:
    """Fingerprint -> :class:`SharedOperator` for one workload run."""

    def __init__(self) -> None:
        self._entries: dict[tuple, SharedOperator] = {}
        self._by_runtime: dict[int, SharedOperator] = {}

    def lookup(self, fingerprint: tuple, now: float) -> SharedOperator | None:
        """A live, still-foldable entry for *fingerprint*, if any."""
        entry = self._entries.get(fingerprint)
        if entry is not None and entry.valid(now):
            return entry
        return None

    def register(self, shared: SharedOperator, now: float) -> bool:
        """Offer *shared* as a fold target; first valid entry wins.

        Returns False (and keeps the incumbent) when a live entry for
        the fingerprint already exists — the caller should have folded
        onto it instead; this only happens for duplicate subplans
        *within* one query, which stay private by design.
        """
        incumbent = self._entries.get(shared.fingerprint)
        if incumbent is not None and incumbent.valid(now):
            return False
        self._entries[shared.fingerprint] = shared
        self._by_runtime[id(shared.runtime)] = shared
        return True

    def by_runtime(self, runtime_id: int) -> SharedOperator | None:
        """The shared operator wrapping a runtime, if it is shared."""
        return self._by_runtime.get(runtime_id)


def plan_folds(plan: LeraGraph, registry: FoldRegistry,
               now: float) -> dict[str, SharedOperator]:
    """The fold pass: which nodes of *plan* ride on existing work.

    Walks each chain in dataflow order; a node folds iff its
    fingerprint has a live registry entry and every pipeline producer
    folded too (an unfolded producer must never feed a shared
    operator).  Returns node name -> shared operator.
    """
    fingerprints = plan.fingerprints()
    folds: dict[str, SharedOperator] = {}
    for chain in plan.chains():
        for node in chain.nodes:
            fingerprint = fingerprints[node.name]
            if fingerprint is None:
                continue
            producers = plan.pipeline_producers(node.name)
            if any(producer not in folds for producer in producers):
                continue
            shared = registry.lookup(fingerprint, now)
            if shared is not None:
                folds[node.name] = shared
    return folds


def projected_footprint(plan: LeraGraph, footprints: dict[str, int],
                        folds: dict[str, SharedOperator]) -> int:
    """Admission bytes for a plan given its fold set.

    Private nodes cost their full footprint; a folded node costs its
    share of the host operator's bytes with this query joined
    (``ceil(footprint / (subscribers + 1))``) — the memory-gate face
    of fractional cost attribution.
    """
    total = 0
    seen: set[int] = set()
    for node in plan.nodes:
        shared = folds.get(node.name)
        if shared is None:
            total += footprints[node.name]
        elif id(shared) not in seen:
            seen.add(id(shared))
            count = len(shared.active_tags) + 1
            total += -(-shared.footprint // count)
    return total
