"""Smoke test of the ledger: ``python -m pytest perf_ledger -q``.

Runs every workload in-process at smoke scale (inputs twenty times
smaller, under 20 s in all; the command line has no such scale, so a
smoke result never reaches a ledger file) and checks the shape of what
comes out — not its speed.  Outside tier-1 ``testpaths`` on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from perf_ledger.__main__ import import_repro

import_repro()

from perf_ledger import ledger, measure, spec  # noqa: E402
from perf_ledger.workloads import BY_NAME, SMOKE  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, trace: bool) -> measure.RunResult:
    # seconds=0: the protocol's minimum of three ops.
    return measure.run_workload(BY_NAME[workload], seed=0, seconds=0.0,
                                trace=trace, scale=SMOKE)


@pytest.fixture(scope="module")
def untraced() -> dict[str, measure.RunResult]:
    return {name: _run(name, trace=False) for name in spec.WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict[str, measure.RunResult]:
    return {name: _run(name, trace=True) for name in spec.WORKLOADS}


def test_benchmark_json_meets_the_contract():
    declared = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perf_ledger"]
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    names += list(spec.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for why in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    setup = spec.BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END) <= 0.25
    assert all(m.bound is None for m in spec.PER_LAYER)


def test_which_metrics_are_exact():
    exact = {name for name, metric in spec.BY_NAME.items() if metric.exact}
    assert {m.name for m in spec.END_TO_END} - exact == {
        "setup_s", "op_cal_ms_p50", "activations_per_cal_s",
        "queries_per_cal_s", "peak_rss_mb"}
    assert exact >= {"engine.steps", "engine.activations", "serve.shed",
                     "core.py_calls_per_op", "serve.p99_interactive_s",
                     "serve.in_slo_share_r77", "engine.steps_per_activation",
                     *(f"{module}.py_calls" for module in measure.MODULES)}
    assert not exact & {"core.samples", "engine.sim_ms", "compiler.share",
                        "obs.observed_over_plain", "engine.self_share"}


def test_every_end_to_end_metric_on_every_workload(untraced):
    for name, result in untraced.items():
        assert result.correct, (name, result.problems)
        assert list(result.metrics) == [m.name for m in spec.END_TO_END]
        for metric, value in result.metrics.items():
            assert value is not None and value > 0, (name, metric)
        line = result.driver_line()
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0


def test_exact_metrics_repeat_across_runs(untraced):
    for name, first in untraced.items():
        second = _run(name, trace=False)
        for metric in spec.END_TO_END:
            if metric.exact:
                assert (first.metrics[metric.name]
                        == second.metrics[metric.name]), (name, metric.name)


def test_every_per_layer_metric_on_every_workload(traced):
    for name, result in traced.items():
        assert result.correct, (name, result.problems)
        assert list(result.metrics) == [m.name for m in spec.PER_LAYER]
        # A metric is either measured or null with a reason.
        for metric, value in result.metrics.items():
            assert (value is None) == (metric in result.missing), metric
        for metric in ("engine.steps", "engine.activations",
                       "workload.execute_ms", "core.py_calls_per_op",
                       "prof.traced_over_untraced", "engine.py_calls"):
            assert result.metrics[metric] is not None, (name, metric)
        values = result.driver_line()["metrics"].values()
        assert all(isinstance(cell["value"], (int, float))
                   for cell in values)


def test_absent_profiler_degrades_to_null(monkeypatch):
    # A later tree without repro.prof: no section data, no crash.
    monkeypatch.setattr(measure, "profile", None)
    result = _run("pipelined_d200", trace=True)
    assert result.correct
    for metric in ("engine.steps", "engine.sim_ms", "prof.coverage",
                   "workload.admission_calls"):
        assert result.metrics[metric] is None
        assert metric in result.missing
    assert result.metrics["workload.execute_ms"] is not None


def test_set_requires_equal_simulated_facts(untraced, traced):
    def child(result: measure.RunResult) -> dict:
        return {**dataclasses.asdict(result), "correct": result.correct}

    children = [child(result)
                for result in (*untraced.values(), *traced.values())]
    workloads, problems = ledger.summarise(children)
    assert not problems
    digest = untraced["serving_edf_2x"].decision_digest
    assert digest and workloads["serving_edf_2x"]["decision_digest"] == digest
    assert workloads["sql_short"]["decision_digest"] is None
    # One run of the set decided otherwise: the set says so.
    odd = {**child(untraced["serving_edf_2x"]), "decision_digest": "0" * 64}
    _, problems = ledger.summarise([*children, odd])
    assert any("decision digest differs" in p for p in problems)


def test_compare_refuses_unlike_ledgers():
    like = {"schema": ledger.SCHEMA, "seed": 0, "rounds": ledger.ROUNDS,
            "run_seconds": spec.RUN_SECONDS}
    for key in like:
        with pytest.raises(ValueError, match=key):
            ledger.compare(like, {**like, key: like[key] + 1})


def test_judge_verdicts():
    host = spec.BY_NAME["op_cal_ms_p50"]
    exact = spec.BY_NAME["virtual_makespan_s"]

    def verdict(metric, before, after):
        return ledger.judge(metric, before, after)[1]

    assert verdict(host, [100, 101, 102], [103, 104, 105]) == ledger.SAME
    # Sets are held to SET_BOUND, not to the looser single-run bound.
    assert ledger.SET_BOUND < 0.13 < host.bound
    assert verdict(host, [100, 101, 102], [113, 114, 115]) == ledger.WORSE
    assert verdict(host, [100, 101, 102], [70, 71, 72]) == ledger.BETTER
    # A side noisier than the bound, overlapping the other: not "same".
    assert verdict(host, [100, 101, 102], [90, 105, 130]) == ledger.UNRESOLVED
    rate = spec.BY_NAME["queries_per_cal_s"]
    assert verdict(rate, [3.5, 3.6, 3.7], [3.4, 3.5, 3.6]) == ledger.SAME
    assert ledger.judge(rate, [3.5, 3.6, 3.7], [2.6, 2.7, 2.8]) == (
        pytest.approx(0.9 / 3.6), ledger.WORSE)
    assert verdict(rate, [3.5, 3.6, 4.5], [3.4, 3.5, 3.6]) == ledger.UNRESOLVED
    assert verdict(rate, [3.5, 3.6, 4.5], [2.0, 2.5, 3.0]) == ledger.WORSE
    assert verdict(exact, [20.5], [20.5]) == ledger.SAME
    assert verdict(exact, [20.5], [20.5000001]) == ledger.WORSE
    assert verdict(exact, [20.5], [None]) == ledger.UNRESOLVED
