"""The twin table's comparer on synthetic records, and the pins file.

The table itself runs under the ``perf`` marker
(benchmarks/test_twins.py); nothing is timed here, so tier-1 covers
every kind of gate without a wall clock.
"""

import json

import pytest

from repro.bench import twins
from repro.bench.chaos import CHAOS
from repro.bench.figures import FIGURES
from repro.bench.twins import (
    PINS_PATH,
    TABLE,
    WALL_DERIVED,
    Twin,
    compare,
    drive,
    render,
)

#: ``on`` must not move what ``off`` reports, must gain >= 2x on an
#: unpinned fact, and must stay within 5 % (+5 ms) of ``off``.
ROW = Twin("demo", ("off", "on"), build=dict,
           parity=(("off", "on"),),
           relations=(("on.gain", ">=", "off.virtual_s", 2.0),),
           wall=(("off", "on", 0.05),))
PINS = {"off": {"virtual_s": 1.5, "rows": 10}, "on": {"alerts": 4}}


def _record(on_runs=(1.2, 1.04), **on_facts):
    facts = {"virtual_s": 1.5, "rows": 10}
    return {
        "off": {"facts": dict(facts), "runs": [1.0, 1.0]},
        "on": {"facts": {**facts, "alerts": 4, "gain": 3.0, **on_facts},
               "runs": list(on_runs)},
    }


def test_clean_record_passes():
    # One of the two interleaved pairs is within the ratio: enough.
    assert compare(ROW, _record(), PINS) == []


@pytest.mark.parametrize("record, pins, fragment", [
    (_record(alerts=5), PINS, "demo/on: pinned alerts drifted 4 -> 5"),
    (_record(), {"off": PINS["off"]}, "demo/on: no committed pins"),
    (_record(virtual_s=1.5000001), PINS, "on moved virtual_s off off's"),
    (_record(gain=2.9), PINS, "on.gain >= off.virtual_s x 2.0 does not hold"),
    (_record(on_runs=(1.2, 1.06)), PINS, "no interleaved repeat put on"),
], ids=["pinned-fact-drift", "missing-pins", "variant-parity-drift",
        "relation-violated", "no-pair-within-wall-ratio"])
def test_each_gate_kind_fires_alone(record, pins, fragment):
    problems = compare(ROW, record, pins)
    assert len(problems) == 1 and fragment in problems[0], problems


def test_render_mentions_every_variant():
    text = render(ROW, _record())
    assert "demo" in text and " off " in text and " on " in text


def test_pins_file_has_exactly_the_tables_rows_and_variants():
    """One file pins the three tables; a row name is a key of it."""
    pins = json.loads(PINS_PATH.read_text())
    rows = TABLE + CHAOS + FIGURES
    assert len({row.name for row in rows}) == len(rows)
    assert ({name: tuple(entry) for name, entry in pins.items()}
            == {row.name: row.variants for row in rows})
    names = {name for entry in pins.values() for facts in entry.values()
             for name in facts}
    assert names and not names & WALL_DERIVED  # virtual facts only


def test_record_rewrites_only_the_rows_it_ran(tmp_path, monkeypatch):
    """``--record`` of one table leaves the other tables' pins alone."""
    monkeypatch.setattr(twins, "PINS_PATH", tmp_path / "pins.json")
    row = Twin("ran", ("run",), build=lambda: {
        "run": lambda: {"virtual_s": 2.0, "coverage": 0.93}})
    other = {"run": {"virtual_s": 1.0}}
    assert drive((row,), {"other": other, "ran": {"run": {"virtual_s": 9.0}}},
                 record=True) == 0
    assert json.loads(twins.PINS_PATH.read_text()) == {
        "other": other, "ran": {"run": {"virtual_s": 2.0}}}


def test_quiet_shortcut_holds_its_pin_without_a_clock():
    """The machine-independent gate on the quiet step, in tier-1: the
    ready scans the MPL-4 workload makes (a wake-up charged as
    arithmetic makes none)."""
    pins = json.loads(PINS_PATH.read_text())
    rows = {row.name: row for row in TABLE}
    profiled = rows["mpl4"].build()["profiled"]()
    assert profiled["steps"] == pins["mpl4"]["profiled"]["steps"]


def test_shape_memo_hit_and_miss_paths_decide_alike():
    """``protected`` runs one (plan, schedule) pair per template, so the
    engine's per-run shape memo hits; ``fresh_plans`` gives every
    arrival its own pair, so every job misses.  Every admit, grant,
    shed and finish — not only makespan and status counts — must be
    the same, and what the pins file holds."""
    pins = json.loads(PINS_PATH.read_text())["serving"]
    variants = {row.name: row for row in TABLE}["serving"].build()
    hit, miss = variants["protected"](), variants["fresh_plans"]()
    assert hit == miss == pins["protected"] == pins["fresh_plans"]
    assert len(hit["decision_digest"]) == 16
    assert hit["statuses"]["shed"] > 0
