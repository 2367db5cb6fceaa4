"""perf_ledger: the repo's benchmark — five workloads over the DBS3
simulator, exact simulated metrics beside calibrated host time.

See ``README.md`` in this directory; ``python -m perf_ledger --help``.
"""
