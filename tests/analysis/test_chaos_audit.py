"""``audit_run``: every invariant seen to fire, alone, on a doctored run.

The chaos table (``tests/faults/test_chaos.py``, ``-m chaos``) only
ever shows the audits *silent*.  Here one clean serving-under-fire
result — overload, shedding, folds, faults, cancellation, full
observation: every invariant's precondition holds — is doctored once
per invariant, and exactly that invariant must report.  Nothing is
timed; the runs are small enough for tier-1.
"""

import dataclasses

import pytest

from repro.__main__ import chaos_command
from repro.bench import chaos
from repro.bench.chaos import (
    CHAOS_QUERIES,
    INVARIANTS,
    audit_run,
    run_adaptive_workload,
    serving_run,
    shared_run,
    skipped_audits,
)
from repro.obs.bus import THREAD_FINISH


def _replace_op(result, tag, name, **changes):
    operations = result.executions[tag].operations
    operations[name] = dataclasses.replace(operations[name], **changes)


def _some_op(result, wanted=lambda op: op.activations > 0):
    return next((tag, name) for tag, execution in result.executions.items()
                for name, op in execution.operations.items() if wanted(op))


def _drop_a_thread_finish(result):
    events = next(e.obs.events for e in result.executions.values()
                  if e.obs is not None and any(
                      event.kind == THREAD_FINISH for event in e.obs.events))
    events.remove(next(e for e in events if e.kind == THREAD_FINISH))


def _bump_discarded(result):
    tag, name = _some_op(result)
    op = result.executions[tag].operations[name]
    _replace_op(result, tag, name, discarded=op.discarded + 1)


def _reorder_a_bus_stamp(result):
    events = result.bus.events
    late = max(range(len(events)), key=lambda i: events[i].t)
    events[0], events[late] = events[late], events[0]


def _give_a_shed_query_an_operation(result):
    tag, name = _some_op(result)
    shed = next(t for t, e in result.executions.items()
                if e.status == "shed")
    result.executions[shed].operations[name] = dataclasses.replace(
        result.executions[tag].operations[name], activation_costs=(),
        queue_activations=(), busy_time=0.0, fault_retries=0,
        fault_aborts=0, faults_injected=0, discarded=0, cost_share=1.0)


def _push_a_folded_group_past_one(result):
    tag, name = _some_op(result, lambda op: op.cost_share < 1.0)
    _replace_op(result, tag, name, cost_share=0.999)


def _desynchronise_a_fault_counter(result):
    tag, name = _some_op(result)
    op = result.executions[tag].operations[name]
    _replace_op(result, tag, name, faults_injected=op.faults_injected + 1)


def _lose_a_submission(result):
    shed = next(t for t, e in result.executions.items()
                if e.status == "shed")
    del result.executions[shed]


def _remove_a_terminal_status(result):
    tag = next(iter(result.executions))
    result.executions[tag] = dataclasses.replace(
        result.executions[tag], status="running")


def _double_a_terminal_event(result):
    next(iter(result.spans)).terminal_events = 2


#: doctoring -> the invariants that must report (and no others).  The
#: span audit cross-checks the spans assembled from the bus against
#: the executions, so a query whose execution loses its status, or
#: goes missing, is seen by both streams.
DOCTORINGS = {
    _remove_a_terminal_status: {"terminal statuses", "span audit"},
    _lose_a_submission: {"query conservation", "span audit"},
    _bump_discarded: {"activation conservation"},
    _reorder_a_bus_stamp: {"monotone time"},
    _drop_a_thread_finish: {"thread orphans"},
    _give_a_shed_query_an_operation: {"shed before work"},
    _push_a_folded_group_past_one: {"cost shares"},
    _desynchronise_a_fault_counter: {"fault accounting"},
    _double_a_terminal_event: {"span audit"},
}


def _reporting(problems):
    return {problem.split(":")[0] for problem in problems}


@pytest.mark.parametrize("doctor", DOCTORINGS, ids=lambda d: d.__name__[1:])
def test_each_invariant_fires_alone(doctor):
    result, _ = serving_run()
    submitted = len(result.executions)
    assert audit_run(result, submitted) == []
    assert skipped_audits(result, submitted) == []
    doctor(result)
    problems = audit_run(result, submitted)
    assert _reporting(problems) == DOCTORINGS[doctor], problems


def test_every_invariant_has_a_doctoring():
    fired = set().union(*DOCTORINGS.values())
    assert fired == {name for name, *_ in INVARIANTS}


def _bare_run():
    session = chaos._chaos_db(observe=False).session()
    for sql in CHAOS_QUERIES:
        session.submit(sql)
    return session.run()


@pytest.mark.parametrize("run, skipped", [
    (_bare_run, ["query conservation", "thread orphans", "fault accounting",
                 "span audit"]),
    (shared_run, ["query conservation"]),
    (lambda: serving_run()[0], ["query conservation"]),
    (lambda: run_adaptive_workload(6.0, "adaptive"),
     ["query conservation", "thread orphans", "fault accounting",
      "span audit"]),
], ids=["bare", "shared", "serving", "adaptive"])
def test_clean_runs_audit_clean_and_say_what_they_skipped(run, skipped):
    result = run()
    assert audit_run(result) == []
    assert skipped_audits(result) == skipped


def test_unpinned_seed_is_audited_without_pins(capsys):
    assert chaos_command(["--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seeded@7 is not pinned" in out and "violations=[]" in out


def test_a_violation_fails_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(chaos, "audit_run",
                        lambda result, submitted=None: ["doctored: law"])
    assert chaos_command(["--seed", "7"]) == 1
    assert "pinned violations drifted [] -> ['doctored: law']" in \
        capsys.readouterr().out
