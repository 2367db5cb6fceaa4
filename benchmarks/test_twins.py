"""The twin table, one row per test (``pytest -m perf``).

Every row's pins, parities and relations are deterministic; the wall
gates compare variants interleaved within this run, so they hold on a
loaded box too.  ``make perf`` runs the same table from the CLI.
"""

import json

import pytest

from repro.bench.twins import PINS_PATH, TABLE, compare, render, run

PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.perf
@pytest.mark.parametrize("row", TABLE, ids=lambda row: row.name)
def test_twin_row_holds_its_gates(row):
    record = run(row)
    print()
    print(render(row, record))
    problems = compare(row, record, PINS[row.name])
    assert not problems, "\n".join(problems)
