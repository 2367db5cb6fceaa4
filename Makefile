# Developer entry points.  Everything assumes the source layout install
# (PYTHONPATH=src), no packages beyond the dev extras.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test bench perf trace-demo diagnose-demo \
	compare-demo concurrent-demo shared-demo report-demo chaos chaos-demo \
	monitor-demo profile-demo adaptive-demo serve-demo ledger-smoke

## Tier-1: the fast deterministic test suite (what CI gates on); its
## ~30 s budget and ten slowest tests show in every log.
test:
	$(PYTHON) -m pytest -x -q --durations=10

## The figures table: every figure of the paper (and the extension
## sweeps, taxonomy, multi-user batch and ablations) at the paper's
## scale against exact pins, with the paper's claims as relations;
## about a minute, exit 1 on any violation.  `--record` rewrites the
## figure rows' pins after an intended virtual-time change.
bench:
	$(PYTHON) -m repro figures

## The twin table: within-run wall pairs (off is free / on is cheap)
## plus exact virtual-time pins (src/repro/bench/twins_pins.json).
## Seconds across commits are `python -m perf_ledger compare`'s job.
perf:
	$(PYTHON) -m repro.bench.twins

## Chaos tests: the chaos table, one row per test (pytest -m chaos).
chaos:
	$(PYTHON) -m pytest tests -m chaos -q

## Chaos demo: the same table printed by the CLI — seeded faults,
## cancellation, folding, slowdown grids, serving under fire — every
## run under the invariant audit, gated against the pins (exit 1 on
## any violation).  `python -m repro chaos --seed N` fuzzes one seed.
chaos-demo:
	$(PYTHON) -m repro chaos

## Concurrent-workload demo: four queries admitted into one shared
## simulation, with the admission/grant/finish timeline printed.
concurrent-demo:
	$(PYTHON) -m repro run --concurrent 4

## Shared-work demo: eight queries (each shape twice) with identical
## subplans folded onto shared operators; prints the makespan gain of
## folding over private concurrent execution.
shared-demo:
	$(PYTHON) -m repro run --concurrent 8 --shared

## Workload telemetry demo: the shared MPL-4 workload with the full
## WorkloadReport (tail latencies, admission, grants, pools, folds)
## rendered from the virtual-time metrics registry and query spans.
report-demo:
	$(PYTHON) -m repro run --concurrent 4 --shared --report

## Live-monitoring demo: the MPL-4 workload with the default SLO /
## straggler / admission / memory / retry-storm monitor rules armed;
## prints the structured alert table fired at virtual-time control
## points.
monitor-demo:
	$(PYTHON) -m repro run --concurrent 4 --monitors

## Self-profiler demo: the same workload under the engine's wall-clock
## profiler; prints the per-subsystem attribution table and gates the
## attributed share at 90%.
profile-demo:
	$(PYTHON) -m repro run --concurrent 4 --profile --profile-check 0.9

## Adaptive-scheduling demo: the MPL-4 workload under
## SchedulingPolicy(policy="adaptive") — wave-boundary grant re-splits
## and Random->LPT switches, with the decision log printed.  (The gate
## — adaptive strictly beats static on every slowed cell, bit-identical
## on the uniform one — is the chaos table's adaptive_sweep row.)
adaptive-demo:
	$(PYTHON) -m repro run --concurrent 4 --policy adaptive

## Serving demo: seeded open-loop arrivals at 2x the measured
## saturation throughput through the overload-protection layer (EDF +
## bounded queue + load shedding); --check exits 1 unless conservation
## holds, shedding engaged, and goodput stays >= 80% of saturation.
serve-demo:
	$(PYTHON) -m repro serve --count 300 --check

## Perf-ledger smoke: the benchmark's own tests (every workload runs
## one checked op, the result line and `compare` verdicts are
## well-formed).  Outside tier-1 (testpaths = tests); ~20 s.
ledger-smoke:
	$(PYTHON) -m pytest perf_ledger -q

## Observed demo query: scheduler explain + Chrome trace (Perfetto) +
## JSONL event log + metrics snapshot into benchmarks/results/.
trace-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro run --explain \
		--trace-out benchmarks/results/trace_demo.json \
		--events-out benchmarks/results/trace_demo.jsonl \
		--metrics-out benchmarks/results/trace_demo.txt

## Diagnostics demo: critical path + imbalance doctor on the skewed
## AssocJoin, recorded into the run registry.
diagnose-demo:
	$(PYTHON) -m repro diagnose --record --run-id diagnose-demo

## A/B demo: record Random vs LPT on the skewed AssocJoin, then
## compare the two registry records.
compare-demo:
	$(PYTHON) -m repro diagnose --strategy random \
		--record --run-id demo-random > /dev/null
	$(PYTHON) -m repro diagnose --strategy lpt \
		--record --run-id demo-lpt > /dev/null
	$(PYTHON) -m repro compare demo-random demo-lpt
