"""The calibrated cost model.

Every quantity the virtual-time engine charges is defined here, in
*seconds of virtual time*.  The defaults are calibrated against the
paper's headline measurements on the 72-node KSR1 (40 MIPS
processors), so that absolute numbers land in the paper's ballpark:

* sequential IdealJoin, 200K x 20K tuples, nested loop, 200 fragments:
  ~956 s  (Figure 15's Tseq)  ->  ``tuple_pair`` ~= 48 us;
* sequential AssocJoin on the same database: ~1048 s (Figure 14's
  Tseq)  ->  per-tuple transmit + pipelined activation handling
  ~= 4.4 ms;
* partitioning overhead slopes (Figure 16): ~0.45 ms/degree for
  IdealJoin (one triggered queue per fragment) and ~4 ms/degree for
  AssocJoin (a triggered transmit queue plus a pipelined join queue
  per fragment)  ->  queue creation costs 0.45 ms / 3.5 ms;
* 200K-tuple selection, 5..30 threads, total ~28 s (Figure 8)  ->
  ``filter_tuple`` ~= 140 us.

We reproduce shapes, not the authors' exact milliseconds; see
DESIGN.md section "Cost-model calibration".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MachineError


@dataclass(frozen=True)
class CostModel:
    """All virtual-time cost constants, in seconds.

    Attributes are grouped by the subsystem that charges them.
    """

    # -- relational work ----------------------------------------------------
    tuple_pair: float = 48e-6
    """Nested-loop join: compare one (outer, inner) tuple pair."""
    index_compare: float = 15e-6
    """One key comparison during temp-index build (sort) or probe."""
    result_tuple: float = 20e-6
    """Materialize one join result tuple."""
    filter_tuple: float = 140e-6
    """Evaluate the selection predicate on one tuple."""
    transmit_tuple: float = 2.0e-3
    """Producer-side cost to hash-route and send one tuple."""
    pipelined_activation: float = 2.4e-3
    """Consumer-side cost to receive and dispatch one tuple activation."""
    store_tuple: float = 10e-6
    """Append one tuple to a result fragment."""
    aggregate_tuple: float = 12e-6
    """Update one group's accumulators with one tuple."""

    # -- activation queue machinery ------------------------------------------
    queue_create_triggered: float = 0.45e-3
    """Create one triggered queue (start-up, sequential)."""
    queue_create_pipelined: float = 3.5e-3
    """Create one pipelined queue: buffer + NotFull/NotEmpty conditions
    (start-up, sequential)."""
    enqueue: float = 2e-6
    """Push one activation under the queue mutex."""
    dequeue_batch: float = 5e-6
    """Pop a batch of activations under the queue mutex."""
    poll_empty: float = 1e-6
    """Inspect one empty queue while hunting for work."""
    secondary_access: float = 15e-6
    """Extra mutex-contention cost when consuming from a queue that is
    another thread's main queue."""
    trigger_activation: float = 50e-6
    """Handle one control (trigger) activation."""

    # -- threads and processors ------------------------------------------------
    thread_create: float = 5e-3
    """Spawn one worker thread (start-up, sequential)."""
    context_switch_tax: float = 0.05
    """Relative slow-down per unit of processor over-subscription."""

    # -- memory hierarchy (KSR1 Allcache) --------------------------------------
    line_bytes: int = 128
    """KSR1 subpage (cache line) size."""
    local_line: float = 0.77e-6
    """Touch one line resident in the local cache."""
    remote_line: float = 4.6e-6
    """Ship one line from a remote cache (about 6x local access)."""

    def __post_init__(self) -> None:
        for name in ("tuple_pair", "index_compare", "result_tuple",
                     "filter_tuple", "transmit_tuple", "pipelined_activation",
                     "store_tuple", "aggregate_tuple", "queue_create_triggered",
                     "queue_create_pipelined", "enqueue", "dequeue_batch",
                     "poll_empty", "secondary_access", "trigger_activation",
                     "thread_create", "local_line", "remote_line"):
            if getattr(self, name) < 0:
                raise MachineError(f"cost constant {name} must be >= 0")
        if self.line_bytes < 1:
            raise MachineError("line_bytes must be >= 1")

    # -- derived costs -----------------------------------------------------

    def remote_penalty_per_line(self) -> float:
        """Extra seconds per line for a remote rather than local touch."""
        return self.remote_line - self.local_line

    def lines(self, size_bytes: int) -> int:
        """Number of cache lines spanned by *size_bytes*."""
        return max(1, math.ceil(size_bytes / self.line_bytes))

    def nested_loop_cost(self, outer: int, inner: int, matches: int) -> float:
        """Nested-loop join of an outer x inner fragment pair."""
        return outer * inner * self.tuple_pair + matches * self.result_tuple

    def index_build_cost(self, cardinality: int) -> float:
        """Build a temp sorted index over *cardinality* rows (n log n)."""
        if cardinality <= 1:
            return cardinality * self.index_compare
        return cardinality * math.log2(cardinality) * self.index_compare

    def index_probe_cost(self, index_cardinality: int, matches: int) -> float:
        """Binary-search one key in a temp index and emit matches."""
        comparisons = math.log2(index_cardinality) if index_cardinality > 1 else 1.0
        return comparisons * self.index_compare + matches * self.result_tuple


#: The default calibration, shared by experiments unless overridden.
DEFAULT_COSTS = CostModel()
