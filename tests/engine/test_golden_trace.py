"""Golden execution traces: the ready index must not move virtual time.

Reduced-scale versions of the paper's Figure 13 (IdealJoin under Zipf
skew, LPT vs Random) and Figure 14 (AssocJoin pipeline) workloads run
four times — with the ready index, its quiet shortcut and the absorbed
herd (what the engine does at this degree), with the index but every
wake-up a full select (``ReadyIndex.quiet`` patched to answer
``None``), with the index but every fruitless poll a step of its own
(``Simulator._absorb_herd`` patched to do nothing), and with the
reference linear scan (selected the way the engine selects it:
READY_INDEX_MIN_INSTANCES is lifted above the degree) — and must
produce *bit-identical* executions: response time, per-op
poll/secondary/dequeue/enqueue counters, busy and idle time, and
result rows.  On top of the four-way check, the headline numbers are
pinned as literals so a change that drifts every path at once still
trips.

The degree (120) is above READY_INDEX_MIN_INSTANCES so the index is
actually engaged; the cardinalities are scaled down to keep this in
the tier-1 budget (the degree x discipline matrix lives in
repro.bench.twins).
"""

import pytest

from repro.bench.runners import default_machine
from repro.bench.workloads import make_join_database
from repro.engine import operation
from repro.engine.executor import ExecutionOptions, Executor
from repro.engine.ready_index import ReadyIndex
from repro.engine.simulator import Simulator
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.scheduler.adaptive import AdaptiveScheduler

DEGREE = 120
CARD_A = 10_000
CARD_B = 1_000
THREADS = 10

#: (plan kind, Zipf theta, strategy) -> pinned (response_time, polls of
#: the join operation).  Captured from the pre-index engine; the index
#: reproduces them exactly.  The theta-0 LPT row was captured from the
#: engine whose strategies chose among sorted queue lists: there every
#: fragment estimate ties, so LPT's lower-instance tie-break makes each
#: pick (the fragments are equal, so any tie order gives this trace;
#: tests/engine/test_strategies.py pins the order itself).
GOLDEN = {
    ("ideal", 0.0, "lpt"): (0.5069739999999998, 1860),
    ("ideal", 0.5, "lpt"): (0.5249889999999998, 2867),
    ("ideal", 0.5, "random"): (0.5436459999999997, 2697),
    ("assoc", 0.0, "lpt"): (1.5369009999999996, 285013),
    ("assoc", 0.0, "random"): (1.536733, 284467),
}


def _execute(database, kind, strategy):
    machine = default_machine()
    builder = ideal_join_plan if kind == "ideal" else assoc_join_plan
    plan = builder(database.entry_a, database.entry_b, "key", "key")
    schedule = AdaptiveScheduler(machine).schedule(plan, THREADS)
    schedule = schedule.with_strategy("join", strategy)
    return Executor(machine, ExecutionOptions(seed=0)).execute(plan, schedule)


def _trace(execution):
    """Everything the queue discipline can influence, in one structure."""
    return {
        "response_time": execution.response_time,
        "rows": sorted(execution.result_rows),
        "operations": {
            name: (m.polls, m.secondary_accesses, m.dequeue_batches,
                   m.enqueues, m.finished_at, m.busy_time, m.idle_time)
            for name, m in execution.operations.items()
        },
    }


@pytest.mark.parametrize("kind,theta,strategy", sorted(GOLDEN))
def test_index_and_scan_produce_identical_traces(kind, theta, strategy,
                                                 monkeypatch):
    assert DEGREE >= operation.READY_INDEX_MIN_INSTANCES  # index engaged
    database = make_join_database(CARD_A, CARD_B, DEGREE, theta)
    with_index = _execute(database, kind, strategy)
    with monkeypatch.context() as stepwise:
        stepwise.setattr(ReadyIndex, "quiet", lambda *args: None)
        assert _trace(_execute(database, kind, strategy)) == _trace(with_index)
    with monkeypatch.context() as unabsorbed:
        unabsorbed.setattr(Simulator, "_absorb_herd", lambda *args: None)
        assert _trace(_execute(database, kind, strategy)) == _trace(with_index)
    monkeypatch.setattr(operation, "READY_INDEX_MIN_INSTANCES", DEGREE + 1)
    with_scan = _execute(database, kind, strategy)
    assert _trace(with_index) == _trace(with_scan)

    golden_response, golden_polls = GOLDEN[(kind, theta, strategy)]
    assert with_index.response_time == golden_response
    assert with_index.operations["join"].polls == golden_polls
    assert with_index.result_cardinality == database.expected_matches
