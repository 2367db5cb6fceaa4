"""Command line of the ledger.

``measure`` is one run of one workload — the command ``BENCHMARK.json``
names, to which the driver appends ``--workload --seed --seconds
--trace``.  ``run`` makes a set of such runs in fresh child processes
and writes a ledger file; ``compare`` judges two ledger files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from perf_ledger import spec
from perf_ledger.spec import ROOT


def import_repro() -> float:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH)
    and return the wall seconds its import took."""
    source = ROOT / "src"
    if source.is_dir() and str(source) not in sys.path:
        sys.path.insert(0, str(source))
    started = time.perf_counter()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perf_ledger: cannot import the program under test "
              f"({error}); expected it under {source}", file=sys.stderr)
        raise SystemExit(2) from None
    return time.perf_counter() - started


def _measure(args: argparse.Namespace) -> int:
    import_s = import_repro()
    from perf_ledger.measure import run_workload
    from perf_ledger.workloads import BY_NAME

    result = run_workload(BY_NAME[args.workload], args.seed, args.seconds,
                          bool(args.trace), import_s=import_s)
    print(f"# {result.workload} seed={result.seed} "
          f"trace={int(result.trace)}: closed loop, one client; on "
          f"serving_edf_2x the open loop is in virtual time (latency is "
          f"counted from the arrival instant, generator lateness 0 by "
          f"construction)")
    for name, value in result.metrics.items():
        print(spec.render(name, value))
    for problem in result.problems:
        print(f"PROBLEM {problem}")
    print("detail " + json.dumps({
        "workload": result.workload, "seed": result.seed,
        "trace": result.trace, "metrics": result.metrics,
        "missing": result.missing, "problems": result.problems,
        "decision_digest": result.decision_digest,
        "timings": result.timings}))
    print(json.dumps(result.driver_line()))
    return 0 if result.correct else 1


def _run(args: argparse.Namespace) -> int:
    from perf_ledger.ledger import run_set
    return run_set(args.seed, Path(args.out))


def _compare(args: argparse.Namespace) -> int:
    from perf_ledger.ledger import compare_files
    return compare_files(Path(args.before), Path(args.after))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf_ledger",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one run of one workload")
    measure.add_argument("--workload", required=True,
                         choices=spec.WORKLOADS)
    measure.add_argument("--seed", type=int, default=0)
    measure.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                         help="measuring time (default: run_seconds of "
                              "BENCHMARK.json)")
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(handler=_measure)

    run = commands.add_parser("run", help="a set of runs -> ledger file")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="ledger file to write")
    run.set_defaults(handler=_run)

    compare = commands.add_parser("compare", help="judge two ledger files")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
