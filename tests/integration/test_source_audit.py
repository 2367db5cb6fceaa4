"""Audits of ``src/repro``'s source, by AST.

* **Identity keys.**  A mapping or set keyed on ``id(x)`` is sound only
  while something keeps ``x`` alive: once ``x`` is collected its id can
  be handed to a new object, and the stale entry answers for it.  That
  went wrong twice (the workload run's never-pruned owner maps, and a
  ``JoinSpec`` memo keyed on a dropped cost model).  Every ``id(...)``
  call in the package is such a key or part of one, so every call must
  sit in :data:`ID_KEYS`, which names, per enclosing function, what
  keeps the referent alive while the key is held.
* **One client.**  ``Simulator(`` is constructed by exactly one module,
  the workload engine: a second wave loop cannot return quietly.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``(module, enclosing function) -> keeper``: every function of the
#: package that calls ``id(...)``, and what keeps each referent alive
#: for as long as its key is held.
ID_KEYS = {
    ("workload/engine.py", "_WorkloadRun.__init__"):
        "_shapes: the run's own jobs hold every (plan, schedule) pair",
    ("workload/engine.py", "_WorkloadRun._start_wave"):
        "_job_of / _waiters_of: the job holds its runtimes, the "
        "SharedOperator its runtime, until _finish drops the entries; "
        "seen: job.folds holds every SharedOperator",
    ("workload/engine.py", "_WorkloadRun._on_operation_complete"):
        "_job_of / _waiters_of: the completing runtime is the argument",
    ("workload/engine.py", "_WorkloadRun._on_query_abort"):
        "_job_of / FoldRegistry._by_runtime: the failing runtime is the "
        "argument",
    ("workload/engine.py", "_WorkloadRun._release_shared"):
        "_waiters_of: the SharedOperator holds its runtime; "
        "seen: job.folds holds every SharedOperator",
    ("workload/engine.py", "_WorkloadRun._finish"):
        "_job_of: job.runtimes holds the runtime until after the pop",
    ("workload/engine.py", "_QueryJob.effective_complexity"):
        "seen: job.folds holds every SharedOperator",
    ("workload/sharing.py", "FoldRegistry.register"):
        "_by_runtime: the SharedOperator value holds its runtime",
    ("workload/sharing.py", "projected_footprint"):
        "seen: the folds argument holds every SharedOperator",
    ("workload/consumers.py", "_Telemetry.on_fold"):
        "{id(s): s}: the dict's values are the referents",
    ("serve/policies.py", "_HeapPolicy.push"):
        "_live: the dict's values are the referents",
    ("serve/policies.py", "_HeapPolicy.pop"):
        "_live: the dict's values; _dead: the heap entry still holds "
        "the job until _skim pops it",
    ("serve/policies.py", "_HeapPolicy._skim"):
        "_dead: the heap entry being skimmed holds the job",
    ("serve/policies.py", "PriorityPolicy.victim"):
        "_live: the shed heap's entry holds the job",
    ("serve/policies.py", "EdfPolicy.victim"):
        "_live: the shed heap's entry holds the job",
    ("faults/injector.py", "FaultInjector.attempt"):
        "_attempts: the ledger value pins the activation",
    ("faults/injector.py", "FaultInjector._announce"):
        "_announced: the injector's FaultPlan holds every spec",
    ("lera/fingerprint.py", "_fragment_key"):
        "fingerprints: the plan's specs hold their fragments, and a "
        "FoldRegistry entry holds its host runtime's plan node",
}


@functools.lru_cache(maxsize=None)
def _package() -> dict[str, str]:
    """Module path (relative to ``src/repro``) -> source text."""
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def id_key_sites(sources: dict[str, str]) -> dict[tuple[str, str], list[int]]:
    """``(module, enclosing function)`` -> lines of its ``id(...)`` calls."""
    sites: dict[tuple[str, str], list[int]] = {}

    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(module, child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "id"):
                site = (module, ".".join(scope) or "<module>")
                sites.setdefault(site, []).append(child.lineno)
            walk(module, child, scope)

    for module, text in sources.items():
        walk(module, ast.parse(text), ())
    return sites


def id_key_violations(sources: dict[str, str]) -> list[str]:
    """Identity keys with no named keeper, then keepers with no key."""
    sites = id_key_sites(sources)
    unkept = [f"{module}:{lines[0]}: id(...) in {scope} names no keeper "
              f"in ID_KEYS" for (module, scope), lines in sites.items()
              if (module, scope) not in ID_KEYS]
    stale = [f"ID_KEYS entry {site} keys nothing any more"
             for site in ID_KEYS if site not in sites]
    return unkept + stale


def simulator_builders(sources: dict[str, str]) -> set[str]:
    """Modules that construct a ``Simulator``."""
    builders = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "Simulator":
                builders.add(module)
    return builders


def test_every_identity_key_names_its_keeper():
    assert id_key_violations(_package()) == []


def test_the_simulator_has_one_client():
    assert simulator_builders(_package()) == {"workload/engine.py"}


def test_a_doctored_identity_key_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "def remember(cache, spec):\n"
        "    cache[id(spec)] = len(cache)\n")}
    assert id_key_violations(doctored) == [
        "bench/doctored.py:2: id(...) in remember names no keeper in ID_KEYS"]


def test_a_keeper_whose_key_went_away_is_caught():
    sources = dict(_package())
    sources["lera/fingerprint.py"] = sources["lera/fingerprint.py"].replace(
        "id(fragment)", "fragment.name")
    assert id_key_violations(sources) == [
        "ID_KEYS entry ('lera/fingerprint.py', '_fragment_key') keys "
        "nothing any more"]


def test_a_second_client_is_caught():
    doctored = {**_package(), "engine/doctored.py": (
        "from repro.engine import simulator\n"
        "def run(machine):\n"
        "    return simulator.Simulator(machine, 0, print, print)\n")}
    assert simulator_builders(doctored) == {"workload/engine.py",
                                            "engine/doctored.py"}
