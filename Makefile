# Developer entry points.  Everything assumes the source layout install
# (PYTHONPATH=src), no packages beyond the dev extras.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

# The targets do work or are what CI calls.  A demonstration is one
# `python -m repro ...` line, spelled out where the docs name it
# (README "Quick start", docs/tutorial.md); the CLI holds no gate.
.PHONY: test bench perf chaos ledger-smoke

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
## `python -m repro chaos` prints the same table, gated the same way;
## `python -m repro chaos --seed N` fuzzes the seeded row.
chaos:
	$(PYTHON) -m pytest tests -m chaos -q

## Perf-ledger smoke: the benchmark's own tests (every workload runs
## one checked op, the result line and `compare` verdicts are
## well-formed).  Outside tier-1 (testpaths = tests); ~20 s.
ledger-smoke:
	$(PYTHON) -m pytest perf_ledger -q
