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
* **Every definition has a caller outside the tests.**  Every
  function, class and module-level ``UPPER_CASE`` constant defined in
  the package is referenced somewhere other than its definition
  (DESIGN.md §7): in the package, ``perf_ledger``, ``benchmarks`` or
  the examples tier-1 runs.  The tests and the docs do not count, nor
  does a package ``__init__`` passing a name on (its import and its
  ``__all__`` entry).  The definitions that stay without a caller sit
  in :data:`DEFINITIONS_WITHOUT_CALLER`, each with its reason and the
  test that runs it; a listed definition that gains a caller must
  leave.
* **Every option has a caller.**  A field of an option block (the
  fault plan's five dataclasses included) exists only if some caller
  outside the tests sets it (DESIGN.md §7): it is
  passed as a keyword somewhere in ``src``, ``perf_ledger`` or
  ``benchmarks``, or positionally to the block's constructor there.
  The fields that stay without one sit in
  :data:`OPTIONS_WITHOUT_CALLER`, each with its reason and the test
  that varies it; a listed field that gains a caller must leave.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

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
    ("lera/fingerprint.py", "_fragment_key"):
        "fingerprints: a fingerprint is plain data (tuples of str and "
        "int) compared as a value; the plan's specs hold their "
        "fragments, and a FoldRegistry entry holds its host runtime's "
        "plan node",
}


#: Option blocks under the census: module (relative to ``src/repro``)
#: -> the frozen dataclasses defined there.
OPTION_BLOCKS = {
    "engine/executor.py": ("ObservabilityOptions", "ExecutionOptions",
                           "OperationSchedule"),
    "workload/options.py": ("WorkloadOptions",),
    "serve/policies.py": ("ServingPolicy",),
    "faults/plan.py": ("FaultPlan", "SlowdownWindow", "StallWindow",
                       "MemoryPressure", "ActivationFaults"),
}

#: Where a caller that sets an option may live: the tests do not count.
CALLER_DIRS = ("src", "perf_ledger", "benchmarks")

#: Where a definition of the package may be called from: the callers,
#: and the examples tier-1 runs.  The tests and the docs do not count.
REFERENCE_DIRS = CALLER_DIRS + ("examples",)

#: ``"Block.field" -> (reason, behaviour test)``: every option field no
#: caller outside the tests sets, why it stays, and the test that runs
#: its non-default value.
OPTIONS_WITHOUT_CALLER = {
    "WorkloadOptions.memory_limit_bytes": (
        "the admission memory gate: a bounded budget staggers "
        "admission, rejects a query that can never fit "
        "(REJECT_MEMORY) and feeds MemoryPressureMonitor; every "
        "benchmark and figure runs unbounded",
        "tests/workload/test_engine.py::TestArrivalsAndAdmission"
        "::test_memory_gate_staggers_admission"),
}

#: ``"module:name" -> (reason, behaviour test)``: every definition no
#: caller outside the tests references, why it stays, and the test
#: that runs it.
DEFINITIONS_WITHOUT_CALLER = {
    "workload/admission.py:runtime_footprint": (
        "the after-build oracle: the footprint admission prices a job "
        "with before building it (node_footprints) must equal what the "
        "built runtimes read",
        "tests/workload/test_engine.py::TestShapeEquality"
        "::test_run_free_numbers_equal_the_built_ones"),
    "core/database.py:drop_table": (
        "the only way to replace a table under the same name; the "
        "statement memo's recreate check (and its fuzz's recreate move) "
        "is what proves a replaced table invalidates its memo",
        "tests/core/test_statement_memo.py::TestStaleness"
        "::test_drop_and_recreate_under_the_same_name"),
}


@functools.lru_cache(maxsize=None)
def _package() -> dict[str, str]:
    """Module path (relative to ``src/repro``) -> source text."""
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _callers() -> dict[str, str]:
    """Path (relative to the repo) -> source text, for every module
    under :data:`CALLER_DIRS`."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for directory in CALLER_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))}


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
def _modules() -> dict[str, str]:
    """Path (relative to the repo) -> source text, for every module
    outside the package under :data:`REFERENCE_DIRS` and the tests
    (:func:`outside_references` decides which of them count)."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for directory in REFERENCE_DIRS + ("tests",)
            for path in sorted((ROOT / directory).rglob("*.py"))
            if SRC not in path.parents}


def outside_references(modules: dict[str, str]) -> Counter:
    """Identifier tokens of the *modules* (:func:`_modules`' shape) that
    lie under :data:`REFERENCE_DIRS`."""
    return Counter(token for path, text in modules.items()
                   if path.split("/")[0] in REFERENCE_DIRS
                   for token in _tokens(text))


@functools.lru_cache(maxsize=None)
def _outside_references() -> Counter:
    return outside_references(_modules())


def _tokens(text: str) -> list[str]:
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


def _definitions(tree: ast.Module):
    """``(name, line)`` of every function and class in *tree* (dunder
    methods are called by the language) and of every module-level
    ``UPPER_CASE`` assignment."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node.name, node.lineno
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            if (isinstance(target, ast.Name)
                    and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)):
                yield target.id, node.lineno


def _re_exports(tree: ast.Module):
    """Names a package ``__init__`` imports or lists in ``__all__``:
    passing a name on is not a use of it."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__all__"
                      for target in node.targets)):
            yield from (element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))


def unreferenced(sources: dict[str, str], outside: Counter) -> list[str]:
    """Definitions in *sources* (:func:`_definitions`) whose name occurs
    in the package (*sources*, re-exports not counted) and *outside* it
    no more often than it is defined, and no reason covers; then listed
    definitions that have a caller (or no longer exist)."""
    words = Counter(outside)
    definitions: dict[str, list[tuple[str, int]]] = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        words.update(_tokens(text))
        if module.endswith("__init__.py"):
            words.subtract(_re_exports(tree))
        for name, line in _definitions(tree):
            definitions.setdefault(name, []).append((module, line))
    uncalled = [(f"{module}:{name}",
                 f"{module}:{line}: {name} is defined but never referenced")
                for name, sites in sorted(definitions.items())
                if words[name] <= len(sites) for module, line in sites]
    declared = {f"{module}:{name}" for name, sites in definitions.items()
                for module, _line in sites}
    uncalled_sites = {site for site, _message in uncalled}
    unlisted = [message for site, message in uncalled
                if site not in DEFINITIONS_WITHOUT_CALLER]
    stale = [f"DEFINITIONS_WITHOUT_CALLER entry {site} "
             + ("has a caller now" if site in declared
                else "names no definition")
             for site in DEFINITIONS_WITHOUT_CALLER
             if site not in uncalled_sites]
    return unlisted + stale


def option_fields(sources: dict[str, str]) -> dict[str, list[str]]:
    """Option block -> its fields, in declaration order."""
    fields = {}
    for module, names in OPTION_BLOCKS.items():
        for node in ast.parse(sources[module]).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                fields[node.name] = [
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    return fields


def set_options(callers: dict[str, str],
                fields: dict[str, list[str]]) -> set[str]:
    """``"Block.field"`` names that *callers* set: a keyword of the
    field's name in any call, or a positional argument of the block's
    constructor."""
    owners: dict[str, list[str]] = {}
    for block, names in fields.items():
        for name in names:
            owners.setdefault(name, []).append(block)
    found = set()
    for text in callers.values():
        for callee, positional, keywords in _calls(text):
            found.update(f"{block}.{keyword}" for keyword in keywords
                         for block in owners.get(keyword, ()))
            if callee in fields:
                found.update(f"{callee}.{name}" for name
                             in fields[callee][:positional])
    return found


@functools.lru_cache(maxsize=None)
def _calls(text: str) -> tuple[tuple[str | None, int, tuple[str, ...]], ...]:
    """Every call in *text*: the callee's name, its plain positional
    argument count and its keyword names (``**`` spreads skipped)."""
    calls = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            calls.append((
                getattr(func, "id", None) or getattr(func, "attr", None),
                sum(not isinstance(arg, ast.Starred) for arg in node.args),
                tuple(keyword.arg for keyword in node.keywords
                      if keyword.arg is not None)))
    return tuple(calls)


def census_violations(fields: dict[str, list[str]],
                      found: set[str]) -> list[str]:
    """Fields nobody sets and no reason covers, then listed fields
    that have a caller (or no longer exist)."""
    declared = [f"{block}.{name}" for block, names in fields.items()
                for name in names]
    unset = [f"{name} has no caller outside the tests and no reason in "
             f"OPTIONS_WITHOUT_CALLER" for name in declared
             if name not in found and name not in OPTIONS_WITHOUT_CALLER]
    stale = [f"OPTIONS_WITHOUT_CALLER entry {name} "
             + ("has a caller now" if name in found else "names no field")
             for name in OPTIONS_WITHOUT_CALLER
             if name in found or name not in declared]
    return unset + stale


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


def test_a_definition_only_a_test_calls_is_caught():
    doctored = {**_package(), "storage/doctored.py": (
        "def tested_helper(rows):\n"
        "    return sorted(rows)\n")}
    modules = {**_modules(), "tests/storage/test_doctored.py": (
        "from repro.storage.doctored import tested_helper\n"
        "def test_sorts():\n"
        "    assert tested_helper([2, 1]) == [1, 2]\n")}
    assert unreferenced(doctored, outside_references(modules)) == [
        "storage/doctored.py:1: tested_helper is defined but never "
        "referenced"]


def test_a_definition_only_a_package_re_exports_is_caught():
    sources = dict(_package())
    sources["storage/doctored.py"] = (
        "def exported_helper(rows):\n"
        "    return sorted(rows)\n")
    sources["storage/__init__.py"] = sources["storage/__init__.py"].replace(
        "__all__ = [\n",
        "from repro.storage.doctored import exported_helper\n\n"
        "__all__ = [\n    \"exported_helper\",\n")
    assert unreferenced(sources, _outside_references()) == [
        "storage/doctored.py:1: exported_helper is defined but never "
        "referenced"]


def test_a_listed_definition_that_gained_a_caller_is_reported_stale():
    caller = "footprint = runtime_footprint(job.runtimes)\n"
    outside = _outside_references() + Counter(_tokens(caller))
    assert unreferenced(_package(), outside) == [
        "DEFINITIONS_WITHOUT_CALLER entry "
        "workload/admission.py:runtime_footprint has a caller now"]


def test_an_unreferenced_definition_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "def forgotten_helper(rows):\n"
        "    return sorted(rows)\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:1: forgotten_helper is defined but never "
        "referenced"]


def test_an_unreferenced_constant_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "FORGOTTEN_LIMIT = 64\n"
        "_ROW_LIMIT: int = 8\n"
        "limits = [_ROW_LIMIT]\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:1: FORGOTTEN_LIMIT is defined but never "
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


def test_every_option_has_a_caller_or_a_reason():
    fields = option_fields(_package())
    assert sorted(fields) == sorted(name for names in OPTION_BLOCKS.values()
                                    for name in names)
    assert census_violations(fields, set_options(_callers(), fields)) == []


def without_behaviour_test(table: dict[str, tuple[str, str]]) -> list[str]:
    """Entries of *table* with no reason, or whose behaviour test
    (``path::Class::test``) does not exist."""
    missing = []
    for name, (reason, test) in table.items():
        path, *scope = test.split("::")
        text = (ROOT / path).read_text() if (ROOT / path).is_file() else ""
        if not (reason and all(re.search(rf"^\s*(class|def) {part}\b",
                                         text, flags=re.MULTILINE)
                               for part in scope)):
            missing.append(f"{name}: no {test}")
    return missing


def test_every_option_without_a_caller_has_a_behaviour_test():
    assert without_behaviour_test(OPTIONS_WITHOUT_CALLER) == []


def test_every_definition_without_a_caller_has_a_behaviour_test():
    assert without_behaviour_test(DEFINITIONS_WITHOUT_CALLER) == []


def test_a_behaviour_test_that_went_away_is_caught():
    table = {"core/database.py:drop_table": (
        "replaces a table", "tests/core/test_statement_memo.py::TestStaleness"
                            "::test_drop_and_forget")}
    assert without_behaviour_test(table) == [
        "core/database.py:drop_table: no tests/core/test_statement_memo.py"
        "::TestStaleness::test_drop_and_forget"]


def test_a_field_nobody_sets_is_caught():
    sources = dict(_package())
    sources["serve/policies.py"] = sources["serve/policies.py"].replace(
        "    queue_limit: int | None = None\n",
        "    queue_limit: int | None = None\n"
        "    brownout: bool = False\n")
    fields = option_fields(sources)
    assert census_violations(fields, set_options(_callers(), fields)) == [
        "ServingPolicy.brownout has no caller outside the tests and no "
        "reason in OPTIONS_WITHOUT_CALLER"]


def test_a_listed_field_that_gained_a_caller_is_reported_stale():
    fields = option_fields(_package())
    for call in ("WorkloadOptions(memory_limit_bytes=1 << 20)",
                 "WorkloadOptions(8, 1 << 20)"):
        doctored = {**_callers(), "perf_ledger/doctored.py": (
            "from repro import WorkloadOptions\n"
            f"options = {call}\n")}
        assert census_violations(fields, set_options(doctored, fields)) == [
            "OPTIONS_WITHOUT_CALLER entry WorkloadOptions.memory_limit_bytes "
            "has a caller now"], call
