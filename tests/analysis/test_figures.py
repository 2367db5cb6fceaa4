"""The figures table without its minute of sweeps: the relations are
well-formed, each of the paper's central claims fires alone on a
doctored record, and the two rows that hold the central skew claim
(Figures 13 and 15, ~3 s at the paper's scale) run against their pins.

The whole table runs in ``benchmarks/test_figures.py`` and from
``python -m repro figures`` (``make bench``, in CI).
"""

import copy
import json

import pytest

from repro.bench.figures import FIGURES
from repro.bench.twins import PINS_PATH, compare, run

PINS = json.loads(PINS_PATH.read_text())
ROWS = {row.name: row for row in FIGURES}


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.name)
def test_every_relation_and_parity_term_names_a_pinned_fact(row):
    """Static — runs nothing: a term is ``variant.fact`` with the
    variant declared by the row and the fact in the committed pins."""
    terms = [term for left, _, right, *_ in row.relations
             for term in (left, right) if isinstance(term, str)]
    assert terms or row.parity, f"{row.name} gates nothing beyond its pins"
    for term in terms:
        label, fact = term.split(".")
        assert label in row.variants, f"{row.name}: {term}"
        assert fact in PINS[row.name][label], f"{row.name}: {term}"
    for group in row.parity:
        assert set(group) <= set(row.variants), f"{row.name}: {group}"


def _pinned_record(name):
    """The committed pins of a row, as the record a clean run returns."""
    return {label: {"facts": copy.deepcopy(facts), "runs": [0.0]}
            for label, facts in PINS[name].items()}


@pytest.mark.parametrize("name, label, fact, value, fragment", [
    ("fig12", "shape", "spread", 0.06, "shape.spread < 0.05"),
    ("fig13", "z10", "lpt_s", 45.0, "z10.lpt_s <= z10.random_s x 1.02"),
    ("fig15", "shape", "ceiling_zipf1", 8.0,
     "shape.ceiling_zipf1 <= 6 x 1.2"),
], ids=["fig12-not-flat", "fig13-lpt-above-random", "fig15-ceiling-off-nmax"])
def test_a_doctored_claim_violates_exactly_its_relation(name, label, fact,
                                                        value, fragment):
    record = _pinned_record(name)
    assert compare(ROWS[name], record, PINS[name]) == []
    record[label]["facts"][fact] = value
    doctored_pins = {variant: entry["facts"]
                     for variant, entry in record.items()}
    problems = compare(ROWS[name], record, doctored_pins)
    assert len(problems) == 1 and fragment in problems[0], problems
    # ... and against the committed pins the drift itself is named too.
    assert any(f"pinned {fact} drifted" in problem
               for problem in compare(ROWS[name], record, PINS[name]))


@pytest.mark.parametrize("name", ["fig13", "fig15"])
def test_the_central_skew_claims_run_against_their_pins(name):
    """LPT within 2 % of ideal through Zipf 0.8 and pinned by Pmax past
    it; speed-up ceilings at nmax = 6 / 19 / 40 — exact numbers, on
    every tier-1 run."""
    row = ROWS[name]
    problems = compare(row, run(row), PINS[name])
    assert not problems, "\n".join(problems)
