"""Ledger files: a set of runs (``run``) and the judge (``compare``).

A *set* is ``ROUNDS`` untraced runs of every workload, round-robin,
then one traced run of each — every run a fresh single-threaded child
process (``python -m perf_ledger measure``, ``PYTHONHASHSEED=0``) that
measures for ``run_seconds`` of ``BENCHMARK.json``.  A metric's value
for the set is the median over its rounds; the rounds themselves, every
child's raw timings and the environment are kept in the file so every
run made is reportable.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perf_ledger import spec
from perf_ledger.spec import ROOT

SCHEMA = 2
#: Untraced runs of each workload in a set.  The issue sized a set at 3;
#: of two such sets recorded on this box, one spread 12 % between its own
#: rounds on ``setup_s`` of ``triggered_d1500_skew`` (so: ``unresolved``),
#: and the issue's rule for that is more rounds, not a wider bound.
ROUNDS = 5
#: The share by which a set's host metric may be worse than the other
#: set's before ``compare`` says ``worse``.  Tighter than the bounds of
#: ``BENCHMARK.json``: those gate single runs, a set is a median of runs.
SET_BOUND = 0.10
#: A child that runs longer than this is hung, not slow.
CHILD_TIMEOUT_S = 900


def _child(workload: str, seed: int, trace: int) -> dict:
    """One ``measure`` run in a fresh process; its detail record."""
    command = [sys.executable, "-m", "perf_ledger", "measure",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    result = json.loads(lines[-1])
    detail.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  child_wall_s=time.perf_counter() - started)
    return detail


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def summarise(children: list[dict]) -> tuple[dict, list[str]]:
    """Per-workload metric cells of a set's runs, and what is wrong with
    the set: an incorrect run, or a simulated fact that differs between
    runs of one seed."""
    workloads = {}
    problems = []
    for workload in spec.WORKLOADS:
        untraced = [c for c in children
                    if c["workload"] == workload and not c["trace"]]
        traced = [c for c in children
                  if c["workload"] == workload and c["trace"]]
        entry = {"end_to_end": {}, "per_layer": {}, "missing": {}}
        for metric in spec.END_TO_END:
            values = [c["metrics"][metric.name] for c in untraced]
            present = [v for v in values if v is not None]
            if metric.exact and len(set(present)) > 1:
                problems.append(f"{workload}: exact metric {metric.name} "
                                f"differs between rounds: {present}")
            entry["end_to_end"][metric.name] = {
                "value": statistics.median(present) if present else None,
                "unit": metric.unit, "rounds": values}
        for metric in spec.PER_LAYER:
            entry["per_layer"][metric.name] = {
                "value": traced[0]["metrics"][metric.name],
                "unit": metric.unit}
        digests = {child["decision_digest"] for child in untraced + traced}
        if len(digests) > 1:
            problems.append(f"{workload}: decision digest differs between "
                            f"runs: {sorted(map(str, digests))}")
        entry["decision_digest"] = digests.pop()
        for child in untraced + traced:
            entry["missing"].update(child["missing"])
            problems += [f"{workload}: {p}" for p in child["problems"]]
            if not child["correct"]:
                problems.append(f"{workload}: a run was not correct "
                                f"({child['failed']}/{child['attempted']} "
                                f"ops failed)")
        workloads[workload] = entry
    return workloads, problems


def run_set(seed: int, out: Path) -> int:
    """Run one set, print every metric, write the ledger to *out*."""
    children = []
    for round_index in range(ROUNDS):
        for workload in spec.WORKLOADS:
            print(f"round {round_index + 1}/{ROUNDS}  {workload}",
                  flush=True)
            children.append(_child(workload, seed, trace=0))
    for workload in spec.WORKLOADS:
        print(f"traced pass  {workload}", flush=True)
        children.append(_child(workload, seed, trace=1))
    workloads, problems = summarise(children)

    ledger = {
        "schema": SCHEMA,
        "claim": None,
        "seed": seed,
        "run_seconds": spec.RUN_SECONDS,
        "rounds": ROUNDS,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()),
        },
        "problems": problems,
        "workloads": workloads,
        "children": [{key: child[key] for key in (
            "workload", "trace", "correct", "attempted", "failed",
            "child_wall_s", "timings")} for child in children],
    }
    out.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    for workload, entry in workloads.items():
        print(f"\n== {workload}")
        for group in ("end_to_end", "per_layer"):
            for name, cell in entry[group].items():
                print(spec.render(name, cell["value"]))
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"\nwrote {out}")
    return 1 if problems else 0


# -- compare -----------------------------------------------------------------

SAME, BETTER, WORSE, UNRESOLVED = "same", "better", "worse", "unresolved"
#: Two sets are comparable only where these agree: simulated statistics
#: are functions of the seed, host medians of how much was measured.
LIKE_FOR_LIKE = ("schema", "seed", "rounds", "run_seconds")


def _spread(rounds: list[float]) -> float:
    """Distance between the quartiles of a side's rounds as a share of
    their median: the driver's measure of run-to-run spread."""
    middle = statistics.median(rounds)
    if len(rounds) < 2 or not middle:
        return 0.0
    low, _, high = statistics.quantiles(rounds, n=4)
    return (high - low) / abs(middle)


def judge(metric: spec.Metric, before: list,
          after: list) -> tuple[float | None, str]:
    """(relative change towards worse, verdict) of one metric on one
    workload, from each side's per-round values.

    An exact metric must be equal.  A host metric is ``worse`` or
    ``better`` when the medians differ by more than ``SET_BOUND``;
    where a side's own rounds spread wider than that (``_spread``), the
    difference is only believed if every round of one side beats every
    round of the other — otherwise the pair is ``unresolved``, not
    ``same``.
    """
    before = [v for v in before if v is not None]
    after = [v for v in after if v is not None]
    if not before or not after:
        return None, (SAME if not before and not after else UNRESOLVED)
    noisy = (not metric.exact
             and max(_spread(before), _spread(after)) > SET_BOUND)
    if metric.better == "higher":
        # Judge costs: negated, higher-is-better reads lower-is-better.
        before, after = [-v for v in before], [-v for v in after]
    a, b = statistics.median(before), statistics.median(after)
    worse_by = (b - a) / abs(a) if a else b - a
    if metric.exact:
        return worse_by, SAME if a == b else (WORSE if b > a else BETTER)
    if noisy:
        if min(after) > max(before):
            return worse_by, WORSE
        if max(after) < min(before):
            return worse_by, BETTER
        return worse_by, UNRESOLVED
    if worse_by > SET_BOUND:
        return worse_by, WORSE
    return worse_by, BETTER if worse_by < -SET_BOUND else SAME


def compare(before: dict, after: dict) -> tuple[list[tuple], int]:
    """Rows (workload, metric, before, after, change, bound, verdict)
    and the exit code: 1 on any ``worse``."""
    for key in LIKE_FOR_LIKE:
        if before.get(key) != after.get(key):
            raise ValueError(
                f"the ledgers are not comparable: {key} is "
                f"{before.get(key)} before and {after.get(key)} after")
    rows = []
    for workload in spec.WORKLOADS:
        a, b = before["workloads"][workload], after["workloads"][workload]
        for metric in spec.END_TO_END:
            a_cell = a["end_to_end"][metric.name]
            b_cell = b["end_to_end"][metric.name]
            change, verdict = judge(metric, a_cell["rounds"],
                                    b_cell["rounds"])
            rows.append((workload, metric.name, a_cell["value"],
                         b_cell["value"], change,
                         0.0 if metric.exact else SET_BOUND, verdict))
        for metric in spec.PER_LAYER:
            a_value = a["per_layer"][metric.name]["value"]
            b_value = b["per_layer"][metric.name]["value"]
            if a_value is None and b_value is None:
                continue
            if metric.exact:
                change, verdict = judge(metric, [a_value], [b_value])
                rows.append((workload, metric.name, a_value, b_value,
                             change, 0.0, verdict))
            else:
                # One traced run a side: shown, not judged.
                change = (None if not a_value or b_value is None
                          else (b_value - a_value) / abs(a_value))
                rows.append((workload, metric.name, a_value, b_value,
                             change, None, "-"))
    return rows, int(any(row[-1] == WORSE for row in rows))


def compare_files(before: Path, after: Path) -> int:
    try:
        rows, code = compare(json.loads(before.read_text()),
                             json.loads(after.read_text()))
    except ValueError as error:
        print(f"perf_ledger compare: {error}", file=sys.stderr)
        return 2

    def shown(value, pattern="{:.6g}"):
        return "-" if value is None else pattern.format(value)

    print(f"{'workload':<25} {'metric':<32} {'before':>12} {'after':>12} "
          f"{'worse by':>9} {'bound':>7}  verdict")
    for workload, name, a, b, change, bound, verdict in rows:
        print(f"{workload:<25} {name:<32} {shown(a):>12} {shown(b):>12} "
              f"{shown(change, '{:+.2%}'):>9} {shown(bound, '{:.2g}'):>7}  "
              f"{verdict}")
    counts = {verdict: sum(row[-1] == verdict for row in rows)
              for verdict in (SAME, BETTER, WORSE, UNRESOLVED)}
    print(", ".join(f"{count} {verdict}"
                    for verdict, count in counts.items()))
    return code
