"""The chaos table, one row per test (``pytest -m chaos``; ``make chaos``).

Deselected from tier-1.  Every row's variants must audit clean
(``violations`` pinned ``[]``), hold their relations and parities and
equal the committed pins; ``python -m repro chaos`` runs the same
table from the CLI.  That each audit can *fire* is tier-1's
``tests/analysis/test_chaos_audit.py``.
"""

import json

import pytest

from repro.bench.chaos import CHAOS
from repro.bench.twins import PINS_PATH, compare, render, run

pytestmark = pytest.mark.chaos

PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("row", CHAOS, ids=lambda row: row.name)
def test_chaos_row_holds_its_gates(row):
    record = run(row)
    print()
    print(render(row, record))
    problems = compare(row, record, PINS[row.name])
    assert not problems, "\n".join(problems)


def test_fault_counters_come_from_the_registry():
    """The seeded rows report fault/retry counters straight off the
    metrics registry; that they agree with the per-operation
    ``OperationMetrics`` tallies is the ``fault accounting`` invariant
    (the row's ``violations`` fact is ``[]``)."""
    faults = run(CHAOS[0])["run"]["facts"]["faults"]
    assert set(faults) == {"injected", "retries", "aborts", "memory_events"}
    assert faults["injected"] >= faults["retries"] + faults["aborts"]
