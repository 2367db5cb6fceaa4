"""Audits of ``src/repro``'s source, by AST.

* **Identity keys.**  A mapping or set keyed on ``id(x)`` is sound only
  while something keeps ``x`` alive: once ``x`` is collected its id can
  be handed to a new object, and the stale entry answers for it.  That
  went wrong three times (the workload run's never-pruned owner maps, a
  ``JoinSpec`` memo keyed on a dropped cost model, and a fold registry
  that kept every host runtime).  So an object is its own key, or the
  reference sits on the object it describes; the ``id(...)`` calls
  left are for objects that cannot be keys, and every call must sit in
  :data:`ID_KEYS`, which names, per enclosing function, why and what
  keeps the referent alive while the key is held.
* **One client.**  ``Simulator(`` is constructed by exactly one module,
  the workload engine: a second wave loop cannot return quietly.  Its
  constructor has no defaulted parameter, so a feature (a fault plan,
  a profiler) cannot come back as an optional fork of the event loop.
* **No dead definitions.**  Every function and class defined in the
  package is referenced somewhere other than its definition: in the
  package, its tests, the examples, the benchmark or the docs.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Where a definition of the package may be referenced from.
REFERENCE_DIRS = ("src", "tests", "examples", "perf_ledger", "benchmarks",
                  "docs")
REFERENCE_SUFFIXES = (".py", ".md", ".json", ".toml")

#: ``(module, enclosing function) -> reason``: every function of the
#: package that calls ``id(...)``, why that object cannot be its own
#: key, and what keeps it alive for as long as its key is held.
#: Everything else is keyed by reference: ``runtime.job``,
#: ``runtime.shared``, ``shared.waiters``, the heap policies' job sets.
ID_KEYS = {
    ("workload/engine.py", "_WorkloadRun.__init__"):
        "_shapes: a QuerySchedule holds a dict and is unhashable; the "
        "run's own jobs hold every (plan, schedule) pair",
    ("faults/injector.py", "FaultInjector.attempt"):
        "_attempts: an Activation is a NamedTuple that hashes by value, "
        "and equal activations must not share a retry count; the ledger "
        "value pins the activation",
    ("faults/injector.py", "FaultInjector._announce"):
        "_announced: a frozen DiskFault hashes by value, and equal specs "
        "must each announce; the injector's FaultPlan holds every spec",
    ("lera/fingerprint.py", "_fragment_key"):
        "fingerprints: a fingerprint is plain data (tuples of str and "
        "int) compared as a value; the plan's specs hold their "
        "fragments, and a FoldRegistry entry holds its host runtime's "
        "plan node",
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


def defaulted_parameters(sources: dict[str, str], module: str,
                        cls: str) -> list[str]:
    """Parameters of ``cls.__init__`` in *module* that have a default."""
    for node in ast.walk(ast.parse(sources[module])):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            init = next(item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__init__")
            args = init.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            return [arg.arg for arg in defaulted]
    raise AssertionError(f"no class {cls} in {module}")


@functools.lru_cache(maxsize=None)
def _outside_references() -> Counter:
    """Identifier tokens of every text file under :data:`REFERENCE_DIRS`
    outside the package, this audit excepted: naming a definition
    here must not keep it alive."""
    words = Counter()
    for directory in REFERENCE_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if (path.suffix in REFERENCE_SUFFIXES and path.is_file()
                    and SRC not in path.parents
                    and path != Path(__file__).resolve()):
                words.update(_tokens(path.read_text()))
    return words


def _tokens(text: str) -> list[str]:
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


def unreferenced(sources: dict[str, str], outside: Counter) -> list[str]:
    """Functions and classes defined in *sources* whose name occurs in
    the package (*sources*) and *outside* it no more often than it is
    defined.  Dunder methods are called by the language."""
    words = Counter(outside)
    definitions: dict[str, list[str]] = {}
    for module, text in sources.items():
        words.update(_tokens(text))
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                definitions.setdefault(node.name, []).append(
                    f"{module}:{node.lineno}")
    return [f"{site}: {name} is defined but never referenced"
            for name, sites in sorted(definitions.items())
            if words[name] <= len(sites) for site in sites]


def test_every_identity_key_names_its_keeper():
    assert id_key_violations(_package()) == []


def test_the_simulator_has_one_client():
    assert simulator_builders(_package()) == {"workload/engine.py"}


def test_the_simulator_constructor_has_no_default():
    assert defaulted_parameters(_package(), "engine/simulator.py",
                                "Simulator") == []


def test_a_defaulted_simulator_parameter_is_caught():
    sources = dict(_package())
    sources["engine/simulator.py"] = sources["engine/simulator.py"].replace(
        "ExecutionFaultError, float], None]\n",
        "ExecutionFaultError, float], None] = print\n")
    assert defaulted_parameters(sources, "engine/simulator.py",
                                "Simulator") == ["on_query_abort"]


def test_every_definition_is_referenced():
    assert unreferenced(_package(), _outside_references()) == []


def test_an_unreferenced_definition_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "def forgotten_helper(rows):\n"
        "    return sorted(rows)\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:1: forgotten_helper is defined but never "
        "referenced"]


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
