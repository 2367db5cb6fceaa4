"""The figures table, one row per test (``pytest benchmarks``).

Every row runs at the paper's scale against its pins, parities and
relations, all deterministic.  ``make bench`` (``python -m repro
figures``, in CI) runs the same table from the CLI in about a minute;
tier-1 runs the fig13 and fig15 rows (tests/analysis/test_figures.py).
"""

import json

import pytest

from repro.bench.figures import FIGURES
from repro.bench.twins import PINS_PATH, compare, render, run

PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.name)
def test_figure_row_holds_its_gates(row):
    record = run(row)
    print()
    print(render(row, record))
    problems = compare(row, record, PINS[row.name])
    assert not problems, "\n".join(problems)
