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
  the examples tier-1 runs.  A reference is code (a name read, an
  attribute, a keyword, an import, an identifier string), not a word
  of a comment or docstring; a method's reference is narrower, an
  attribute read or an identifier string that is a dict key or a
  ``getattr``-family argument, so a local variable or keyword of the
  same name does not keep it.  The tests and the docs do not count, nor
  does a package ``__init__`` passing a name on (its import and its
  ``__all__`` entry).  The definitions that stay without a caller sit
  in :data:`DEFINITIONS_WITHOUT_CALLER`, each with its reason and the
  test that runs it; a listed definition that gains a caller must
  leave.
* **Every import is read.**  A name an ``import`` binds in a package
  module is read by that module: a name loaded, a string annotation
  naming it, or an ``__all__`` entry passing it on.  No table: an
  import nobody reads is deleted.
* **Every option has a caller.**  A field of an option block (the
  fault plan's five dataclasses included) exists only if some caller
  outside the tests sets it (DESIGN.md §7): it is
  passed as a keyword somewhere in ``src``, ``perf_ledger`` or
  ``benchmarks``, or positionally to the block's constructor there.
  The fields that stay without one sit in
  :data:`OPTIONS_WITHOUT_CALLER`, each with its reason and the test
  that varies it; a listed field that gains a caller must leave.
* **Every parameter has a caller.**  A defaulted parameter of a
  ``def`` in the package is passed by some call under
  :data:`REFERENCE_DIRS` (callee matched by name; a keyword, its
  position, a ``*`` / ``**`` spread, or ``functools.partial``), or it
  is the constant it always was.  A bound method handed on as a value
  (subscribed, or stored as a callback) is called wherever the value it
  was stored as is: a call of the attribute it went into, or of a loop
  variable over that attribute (:func:`callback_calls`).  The ones that stay without a caller
  sit in :data:`PARAMETERS_WITHOUT_CALLER`, each with one of
  :data:`PARAMETER_REASONS` and the test that passes it; a listed
  parameter that gains a caller must leave.
* **Every value has a setter.**  A value of a domain an option or plan
  field validates against (:data:`VALUE_DOMAINS`) exists only if it is
  the field's default or a module under :data:`REFERENCE_DIRS` other
  than its own binds it: passes its constant to a call, defaults a
  parameter to it, iterates over it or assigns it, or binds the literal
  string to one of the names the table gives for its field.  A literal
  bound to another name (``kind="hash"`` is an index kind) does not
  count, nor does a comparison, an import or passing the whole domain
  on (``choices=POLICIES`` lets a user pick a value nobody picked).
  The values that stay without one sit in
  :data:`VALUES_WITHOUT_CALLER`, each with its reason and the test that
  runs it; a listed value that gains a setter must leave.
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
OPTIONS_WITHOUT_CALLER: dict[str, tuple[str, str]] = {}

#: ``"module:name" -> (reason, behaviour test)``: every definition no
#: caller outside the tests references, why it stays, and the test
#: that runs it.
DEFINITIONS_WITHOUT_CALLER = {
    "core/database.py:drop_table": (
        "the only way to replace a table under the same name; the "
        "statement memo's recreate check (and its fuzz's recreate move) "
        "is what proves a replaced table invalidates its memo",
        "tests/core/test_statement_memo.py::TestStaleness"
        "::test_drop_and_recreate_under_the_same_name"),
    "analysis/predictor.py:contains": (
        "the band check of the analytic predictor: whether a simulated "
        "response lies inside the paper's bounds, the relation ROADMAP "
        "item 7's skew grid is to state per cell",
        "tests/analysis/test_predictor.py::TestAgainstSimulation"
        "::test_ideal_join_inside_band"),
}


#: The three reasons a defaulted parameter may stay without a caller
#: outside the tests; every :data:`PARAMETERS_WITHOUT_CALLER` reason
#: starts with one.  That a test passes a non-default value is not one.
PARAMETER_REASONS = (
    "(a) test seam:",       # a CLI argv, or a scale or seed tier-1 needs
    "(b) forward:",         # of a field a caller outside the tests sets
    "(c) only way:",        # the only way to reach a feature
)

#: ``"module:function(parameter)" -> (reason, behaviour test)``: every
#: defaulted parameter no call outside the tests passes, why it stays
#: (one of :data:`PARAMETER_REASONS`), and the test that passes it.
PARAMETERS_WITHOUT_CALLER = {
    "__main__.py:main(argv)": (
        "(a) test seam: the CLI's argument vector; the console runs "
        "main() on sys.argv, the tests drive each subcommand in-process",
        "tests/integration/test_reporting.py::TestDemoDriver"
        "::test_demo_runs"),
    "core/database.py:DBS3.explain(extended)": (
        "(c) only way: Figure 1's extended view (one line per operator "
        "instance, lera/render.py) is reached only through explain",
        "tests/core/test_database.py::TestExplainAndPlanExecution"
        "::test_explain_extended_lists_every_instance"),
    "workload/session.py:Session.submit(timeout)": (
        "(b) forward: QuerySubmission.timeout, which "
        "serve.harness.build_submissions sets",
        "tests/workload/test_cancellation.py::TestTimeouts"
        "::test_timeout_mid_run"),
    "workload/session.py:Session.submit(priority)": (
        "(b) forward: QuerySubmission.priority, which "
        "serve.harness.build_submissions sets",
        "tests/workload/test_serving.py::TestSessionSubmit"
        "::test_priority_and_tenant_reach_the_submission"),
    "workload/session.py:Session.submit(tenant)": (
        "(b) forward: QuerySubmission.tenant, which "
        "serve.harness.build_submissions sets",
        "tests/workload/test_serving.py::TestSessionSubmit"
        "::test_priority_and_tenant_reach_the_submission"),
}


#: ``"module:DOMAIN" -> (fields, names)``: each tuple of values a field
#: of an option block or a plan spec (or a factory's name argument) is
#: validated against, the fields, and the names a literal value binds to
#: when it sets them (a keyword, a parameter, a loop variable or an
#: assignment target).
VALUE_DOMAINS = {
    "engine/strategies.py:STRATEGIES": (
        ("OperationSchedule.strategy",), ("strategy",)),
    "engine/executor.py:PLACEMENTS": (
        ("ExecutionOptions.placement",), ("placement",)),
    "serve/policies.py:POLICIES": (("ServingPolicy.policy",), ("policy",)),
    "workload/options.py:POLICIES": (
        ("WorkloadOptions.scheduling",), ("scheduling", "policy")),
    "lera/operators.py:JOIN_ALGORITHMS": (
        ("JoinSpec.algorithm", "PipelinedJoinSpec.algorithm"),
        ("algorithm",)),
    "serve/arrivals.py:ARRIVAL_PROCESSES": ((), ("arrival", "name")),
}

#: ``"module:CONSTANT" -> (reason, behaviour test)``: every domain value
#: nothing outside the tests sets, why it stays, and the test that runs
#: it.
VALUES_WITHOUT_CALLER: dict[str, tuple[str, str]] = {}


@functools.lru_cache(maxsize=None)
def _tree(text: str) -> ast.Module:
    """*text* parsed once: every census walks the same tree (and none
    changes it)."""
    return ast.parse(text)


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
    for module, text in sources.items():
        for scope, line in _id_calls(text):
            sites.setdefault((module, scope), []).append(line)
    return sites


@functools.lru_cache(maxsize=None)
def _id_calls(text: str) -> tuple[tuple[str, int], ...]:
    """``(enclosing function, line)`` of every ``id(...)`` call in
    *text*."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "id"):
                found.append((".".join(scope) or "<module>", child.lineno))
            walk(child, scope)

    walk(_tree(text), ())
    return tuple(found)


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
    return {module for module, text in sources.items()
            if any(callee == "Simulator" for callee, *_ in _calls(text))}


def defaulted(sources: dict[str, str]
              ) -> dict[str, tuple[str, int, str, int | None]]:
    """``"module:function(parameter)"`` -> ``(callee, line, parameter,
    position)`` for every defaulted parameter of a ``def`` in
    *sources*.  A method is ``Class.method``; ``__init__`` is the
    class, which is also the name a call of it uses (*callee*).
    *position* is the parameter's index among the positional arguments
    a call passes (``self`` / ``cls`` not counted), ``None`` for a
    keyword-only one."""
    return {key: entry for module, text in sources.items()
            for key, entry in _defaulted(module, text)}


@functools.lru_cache(maxsize=None)
def _defaulted(module: str, text: str) -> tuple[tuple[str, tuple], ...]:
    """:func:`defaulted`'s entries for one module."""
    found = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, cls)
                continue
            if cls and child.name == "__init__":
                callee = function = cls
            else:
                callee = child.name
                function = f"{cls}.{callee}" if cls else callee
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(getattr(decorator, "id", None) == "staticmethod"
                         for decorator in child.decorator_list)
            bound = 1 if cls and not static else 0
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, index - bound)
                      for index, arg in enumerate(positional) if index >= first]
            params += [(arg.arg, None) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            found.extend((f"{module}:{function}({name})",
                          (callee, child.lineno, name, position))
                         for name, position in params)
            walk(child, None)

    walk(_tree(text), None)
    return tuple(found)


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


#: Calls whose second argument names an attribute.
GETATTR_FAMILY = ("getattr", "setattr", "hasattr", "delattr")


@functools.lru_cache(maxsize=None)
def _tokens(text: str) -> tuple[str, ...]:
    """The names *text*'s code uses: a read name or attribute, a
    keyword, an imported name, and a string that is an identifier
    (``getattr``'s argument, a forward annotation, an ``__all__``
    entry).  A definition's own name, an assignment's target and the
    words of comments and docstrings are not uses.

    The uses that can reach a method also come as ``.name``: an
    attribute read, and an identifier string that is a dict key or
    the attribute argument of :data:`GETATTR_FAMILY` (a table of
    methods to wrap, a ``getattr``).  A bare name, a keyword or any
    other string is some other thing that shares the method's name."""
    tree = _tree(text)
    prose = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Expr)
             and isinstance(node.value, ast.Constant)}
    attribute_strings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            attribute_strings.update(node.keys)
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and _name(node.func) in GETATTR_FAMILY):
            attribute_strings.add(node.args[1])
    found = []
    for node in ast.walk(tree):
        if node in prose:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            found += [node.attr, f".{node.attr}"]
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.append(node.arg)
        elif isinstance(node, ast.alias):
            found.append(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.append(node.value)
            if node in attribute_strings:
                found.append(f".{node.value}")
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _definitions(text: str) -> tuple[tuple[str, int, bool], ...]:
    """``(name, line, method)`` of every function and class in *text*
    (dunder methods are called by the language) and of every
    module-level ``UPPER_CASE`` assignment; *method* is true for a
    function defined directly in a class body."""
    tree = _tree(text)
    methods = {child for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for child in node.body
               if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = [(node.name, node.lineno, node in methods)
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
             and not (node.name.startswith("__")
                      and node.name.endswith("__"))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        found += [(target.id, node.lineno, False) for target in targets
                  if isinstance(target, ast.Name)
                  and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)]
    return tuple(found)


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
        words.update(_tokens(text))
        if module.endswith("__init__.py"):
            words.subtract(_re_exports(_tree(text)))
        for name, line, method in _definitions(text):
            definitions.setdefault(name, []).append((module, line, method))
    uncalled = [(f"{module}:{name}",
                 f"{module}:{line}: {name} is defined but never referenced")
                for name, sites in sorted(definitions.items())
                for module, line, method in sites
                if words[f".{name}" if method else name] <= 0]
    declared = {f"{module}:{name}" for name, sites in definitions.items()
                for module, _line, _method in sites}
    uncalled_sites = {site for site, _message in uncalled}
    unlisted = [message for site, message in uncalled
                if site not in DEFINITIONS_WITHOUT_CALLER]
    stale = [f"DEFINITIONS_WITHOUT_CALLER entry {site} "
             + ("has a caller now" if site in declared
                else "names no definition")
             for site in DEFINITIONS_WITHOUT_CALLER
             if site not in uncalled_sites]
    return unlisted + stale


def _annotation_names(tree: ast.Module):
    """Names the string annotations of *tree* read (a forward
    reference, or a ``TYPE_CHECKING`` import named in quotes)."""
    for node in ast.walk(tree):
        annotation = (node.annotation
                      if isinstance(node, (ast.arg, ast.AnnAssign))
                      else getattr(node, "returns", None))
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield from (name.id for name in ast.walk(
                    ast.parse(part.value, mode="eval"))
                    if isinstance(name, ast.Name))


def unread_imports(sources: dict[str, str]) -> list[str]:
    """Every name an import in *sources* binds that its module never
    reads (:func:`_annotation_names` and ``__all__`` entries count)."""
    found = []
    for module, text in sources.items():
        tree = _tree(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read.update(_annotation_names(tree))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__"
                            for target in node.targets)):
                read.update(element.value for element in ast.walk(node.value)
                            if isinstance(element, ast.Constant))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    found.append(f"{module}:{node.lineno}: {bound} is "
                                 f"imported but never read")
    return found


def option_fields(sources: dict[str, str]) -> dict[str, list[str]]:
    """Option block -> its fields, in declaration order."""
    fields = {}
    for module, names in OPTION_BLOCKS.items():
        for node in _tree(sources[module]).body:
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
        for callee, positional, keywords, _spread in _calls(text):
            found.update(f"{block}.{keyword}" for keyword in keywords
                         for block in owners.get(keyword, ()))
            if callee in fields:
                found.update(f"{callee}.{name}" for name
                             in fields[callee][:positional])
    return found


@functools.lru_cache(maxsize=None)
def _calls(text: str) -> tuple[tuple[str | None, int, tuple[str, ...], bool],
                               ...]:
    """Every call in *text*: the callee's name, its plain positional
    argument count, its keyword names and whether it spreads ``*`` or
    ``**``.  ``functools.partial(f, ...)`` is a call of ``f`` with the
    remaining arguments."""
    calls = []
    for node in ast.walk(_tree(text)):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            calls.append((
                _name(func),
                sum(not isinstance(arg, ast.Starred) for arg in args),
                tuple(keyword.arg for keyword in node.keywords
                      if keyword.arg is not None),
                any(isinstance(arg, ast.Starred) for arg in args)
                or any(keyword.arg is None for keyword in node.keywords)))
    return tuple(calls)


def _name(func: ast.expr) -> str | None:
    return getattr(func, "id", None) or getattr(func, "attr", None)


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


def reference_texts(sources: dict[str, str],
                    modules: dict[str, str]) -> dict[str, str]:
    """Path (relative to the repo) -> source text of the package
    *sources* and the *modules* (:func:`_modules`' shape) under
    :data:`REFERENCE_DIRS`: where a caller may pass a parameter or set
    a value."""
    return {f"src/repro/{module}": text for module, text in sources.items()
            } | {path: text for path, text in modules.items()
                 if path.split("/")[0] in REFERENCE_DIRS}


@functools.lru_cache(maxsize=None)
def _partial_aliases(text: str) -> tuple[tuple[str, str, int], ...]:
    """``(alias, callee, positional)`` of every module-level ``alias =
    functools.partial(callee, ...)`` in *text*: a call of the alias
    is a call of the callee after that many positional arguments."""
    aliases = []
    for node in _tree(text).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _name(node.value.func) == "partial" and node.value.args):
            aliases.append((node.targets[0].id, _name(node.value.args[0]),
                            len(node.value.args) - 1))
    return tuple(aliases)


def _root_attribute(node: ast.expr) -> str | None:
    """The attribute a call chain or subscript starts from:
    ``_listeners`` of ``self._listeners.setdefault(k, []).append``."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            return node.attr
        node = node.func if isinstance(node, ast.Call) else node.value
    return None


@functools.lru_cache(maxsize=None)
def _handoffs(text: str) -> tuple[tuple[str, str | None, int | str], ...]:
    """``(method, callee, slot)`` for every ``obj.method`` *text* hands
    on as a value: the argument at *slot* (a position or a keyword) of a
    call of *callee*, or (*callee* ``None``) assigned to the attribute
    named *slot*."""
    found = []
    for node in ast.walk(_tree(text)):
        if isinstance(node, ast.Call) and _name(node.func) != "partial":
            callee = _name(node.func)
            found += [(arg.attr, callee, position)
                      for position, arg in enumerate(node.args)
                      if isinstance(arg, ast.Attribute)]
            found += [(keyword.value.attr, callee, keyword.arg)
                      for keyword in node.keywords
                      if keyword.arg and isinstance(keyword.value,
                                                    ast.Attribute)]
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Attribute)):
            found += [(node.value.attr, None, target.attr)
                      for target in node.targets
                      if isinstance(target, ast.Attribute)]
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _stores(text: str) -> tuple[tuple[str, int | str, str], ...]:
    """``(callee, slot, attribute)``: a ``def`` of *text* (``__init__``
    under its class name) keeps its parameter at *slot* (its position
    among the arguments a call passes, and its name) in *attribute*,
    assigned (``self.attribute = p``) or added to a container the
    attribute holds (``self.attribute....append(p)`` / ``.add(p)``)."""
    found = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                walk(child, cls)
                continue
            callee = cls if cls and child.name == "__init__" else child.name
            positional = child.args.posonlyargs + child.args.args
            bound = 1 if cls else 0
            slots = {arg.arg: index - bound
                     for index, arg in enumerate(positional)}
            slots.update((arg.arg, None) for arg in child.args.kwonlyargs)
            for node_ in ast.walk(child):
                if (isinstance(node_, ast.Assign)
                        and isinstance(node_.value, ast.Name)):
                    pairs = [(node_.value.id, target.attr)
                             for target in node_.targets
                             if isinstance(target, ast.Attribute)]
                elif (isinstance(node_, ast.Call)
                      and _name(node_.func) in ("append", "add")
                      and len(node_.args) == 1
                      and isinstance(node_.args[0], ast.Name)):
                    pairs = [(node_.args[0].id,
                              _root_attribute(node_.func.value))]
                else:
                    continue
                for parameter, attribute in pairs:
                    if parameter in slots and attribute:
                        found.append((callee, parameter, attribute))
                        if slots[parameter] is not None:
                            found.append((callee, slots[parameter],
                                          attribute))
            walk(child, None)

    walk(_tree(text), None)
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _loop_calls(text: str) -> tuple[tuple[str, int, tuple[str, ...], bool],
                                    ...]:
    """``(attribute, positional, keywords, spread)`` for every call of a
    loop variable over an expression reading *attribute*: ``for hook
    in self._hooks.get(k, ()): hook(now)`` calls what ``_hooks``
    holds."""
    found = []
    for node in ast.walk(_tree(text)):
        if not (isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)):
            continue
        attributes = {part.attr for part in ast.walk(node.iter)
                      if isinstance(part, ast.Attribute)}
        for statement in node.body:
            for call in ast.walk(statement):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == node.target.id):
                    shape = (
                        sum(not isinstance(arg, ast.Starred)
                            for arg in call.args),
                        tuple(keyword.arg for keyword in call.keywords
                              if keyword.arg is not None),
                        any(isinstance(arg, ast.Starred) for arg in call.args)
                        or any(keyword.arg is None
                               for keyword in call.keywords))
                    found += [(attribute, *shape) for attribute in attributes]
    return tuple(found)


def callback_calls(sources: dict[str, str], texts: tuple[str, ...],
                   calls: dict) -> dict[str, list]:
    """The calls a bound method handed on as a value receives, by its
    name: where *texts* pass ``obj.method`` to a ``def`` of *sources*
    that keeps that parameter in an attribute (:func:`_stores`), or
    assign it to an attribute, every call of the attribute (in *calls*,
    by name) and of a loop variable over it (:func:`_loop_calls`)."""
    kept: dict[tuple[str, int | str], set[str]] = {}
    for text in sources.values():
        for callee, slot, attribute in _stores(text):
            kept.setdefault((callee, slot), set()).add(attribute)
    through_loops: dict[str, list] = {}
    for text in texts:
        for attribute, *shape in _loop_calls(text):
            through_loops.setdefault(attribute, []).append(tuple(shape))
    received: dict[str, list] = {}
    for text in texts:
        for method, callee, slot in _handoffs(text):
            attributes = ({slot} if callee is None
                          else kept.get((callee, slot), ()))
            for attribute in attributes:
                received.setdefault(method, []).extend(
                    [*calls.get(attribute, ()),
                     *through_loops.get(attribute, ())])
    return received


def uncalled_parameters(sources: dict[str, str],
                        texts: dict[str, str]) -> list[str]:
    """Defaulted parameters of *sources* (:func:`defaulted`) that no
    call in *texts* passes and no reason covers; then listed
    parameters that have a caller (or no longer exist).

    A call passes a parameter when its callee has the function's name
    (or is a stored value the function was handed on as:
    :func:`callback_calls`) and it names the parameter as a keyword,
    reaches its position, or spreads ``*`` / ``**``."""
    texts = tuple(texts.values())
    aliases = {alias: (callee, offset) for text in texts
               for alias, callee, offset in _partial_aliases(text)}
    calls: dict[str | None, list[tuple[int, tuple[str, ...], bool]]] = {}
    for text in texts:
        for callee, positional, keywords, spread in _calls(text):
            calls.setdefault(callee, []).append((positional, keywords, spread))
            if callee in aliases:
                target, offset = aliases[callee]
                calls.setdefault(target, []).append(
                    (positional + offset, keywords, spread))
    for method, received in callback_calls(sources, texts, calls).items():
        calls.setdefault(method, []).extend(received)
    params = defaulted(sources)
    passed = {key for key, (callee, _line, name, position) in params.items()
              if any(spread or name in keywords
                     or (position is not None and position < positional)
                     for positional, keywords, spread
                     in calls.get(callee, ()))}
    unlisted = [f"{key.split(':')[0]}:{line}: {key.split(':', 1)[1]} has no "
                f"caller outside the tests and no reason in "
                f"PARAMETERS_WITHOUT_CALLER"
                for key, (_callee, line, _name, _position) in params.items()
                if key not in passed and key not in PARAMETERS_WITHOUT_CALLER]
    stale = [f"PARAMETERS_WITHOUT_CALLER entry {key} "
             + ("has a caller now" if key in passed else "names no parameter")
             for key in PARAMETERS_WITHOUT_CALLER
             if key in passed or key not in params]
    return unlisted + stale


def domain_values(sources: dict[str, str]
                  ) -> dict[str, dict[str, tuple[str, int]]]:
    """``"module:DOMAIN"`` -> ``{constant: (value, line)}`` of each
    :data:`VALUE_DOMAINS` tuple, in the tuple's order."""
    domains = {}
    for key in VALUE_DOMAINS:
        module, domain = key.split(":")
        body = _tree(sources[module]).body
        strings = {target.id: (node.value.value, node.lineno)
                   for node in body if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Constant)
                   for target in node.targets
                   if isinstance(target, ast.Name)}
        for node in body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == domain
                            for target in node.targets)):
                domains[key] = {element.id: strings[element.id]
                                for element in node.value.elts}
    return domains


@functools.lru_cache(maxsize=None)
def _signatures(text: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """``(callee, parameters)`` of every ``def`` in *text*: the names a
    call's positional arguments bind to (``self`` / ``cls`` dropped;
    ``__init__`` under its class name)."""
    found = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, cls)
                continue
            names = [arg.arg for arg in child.args.posonlyargs
                     + child.args.args]
            if cls and not any(getattr(decorator, "id", None)
                               == "staticmethod"
                               for decorator in child.decorator_list):
                names = names[1:]
            found.append((cls if cls and child.name == "__init__"
                          else child.name, tuple(names)))
            walk(child, None)

    walk(_tree(text), None)
    return tuple(found)


def _binding(child: ast.AST, parent: ast.AST):
    """What *child* binds to inside *parent*: ``(name, callee,
    position)`` (a keyword, a defaulted parameter, a loop variable or
    an assignment target by *name*; a positional argument by *callee*
    and *position*), or ``None`` (a comparison, a subscript, ...)."""
    if isinstance(parent, ast.keyword):
        return parent.arg, None, None
    if isinstance(parent, ast.Call) and child in parent.args:
        func, args = parent.func, parent.args
        if _name(func) == "partial":
            if child is args[0]:
                return None
            func, args = args[0], args[1:]
        return None, _name(func), args.index(child)
    if isinstance(parent, ast.arguments):
        if child in parent.kw_defaults:
            return (parent.kwonlyargs[parent.kw_defaults.index(child)].arg,
                    None, None)
        positional = parent.posonlyargs + parent.args
        first = len(positional) - len(parent.defaults)
        return positional[first + parent.defaults.index(child)].arg, None, None
    if isinstance(parent, (ast.For, ast.comprehension)) and child is parent.iter:
        return getattr(parent.target, "id", None), None, None
    if isinstance(parent, ast.Assign) and child is parent.value:
        target = parent.targets[0]
        return (getattr(target, "id", None) or getattr(target, "attr", None),
                None, None)
    return None


@functools.lru_cache(maxsize=None)
def _bound_values(text: str) -> tuple[tuple[str, str, tuple], ...]:
    """``(kind, value, binding)`` for every ``UPPER_CASE`` reference
    (*kind* ``"constant"``, *value* its name) and string literal
    (``"literal"``) *text* binds, alone or inside a tuple, list or set
    (*binding* as :func:`_binding` answers)."""
    tree = _tree(text)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in parents:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            kind, value = "literal", node.value
        elif isinstance(node, (ast.Name, ast.Attribute)):
            kind, value = "constant", _name(node)
            if not re.fullmatch(r"[A-Z][A-Z0-9_]*", value):
                continue
        else:
            continue
        child, parent = node, parents[node]
        while isinstance(parent, (ast.Tuple, ast.List, ast.Set)):
            child, parent = parent, parents[parent]
        binding = _binding(child, parent)
        if binding is not None:
            found.append((kind, value, binding))
    return tuple(found)


def set_values(sources: dict[str, str], texts: dict[str, str]) -> set[str]:
    """``"module:CONSTANT"`` of every domain value that is its field's
    default in *sources* or that *texts* (:func:`reference_texts`) bind
    outside its defining module: its constant anywhere a value binds,
    its literal only to one of its field's names."""
    domains = domain_values(sources)
    by_constant, by_literal = {}, {}
    for key, values in domains.items():
        module = key.split(":")[0]
        for constant, (value, _line) in values.items():
            site = f"{module}:{constant}"
            by_constant[constant] = site
            by_literal.setdefault(value, []).append(
                (site, set(VALUE_DOMAINS[key][1])))
    fields = {field: key for key, (names, _) in VALUE_DOMAINS.items()
              for field in names}
    found = set()
    for module, text in sources.items():
        for node in _tree(text).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    continue
                key = fields.get(f"{node.name}.{item.target.id}")
                if key is None or item.value is None:
                    continue
                default = item.value
                found.update(
                    f"{key.split(':')[0]}:{constant}"
                    for constant, (value, _line) in domains[key].items()
                    if _name(default) == constant
                    or getattr(default, "value", None) == value)
    signatures: dict[str, list[tuple[str, ...]]] = {}
    for text in texts.values():
        for callee, names in _signatures(text):
            signatures.setdefault(callee, []).append(names)
    for path, text in texts.items():
        for kind, value, (name, callee, position) in _bound_values(text):
            if kind == "constant":
                site = by_constant.get(value)
                if site and path != f"src/repro/{site.split(':')[0]}":
                    found.add(site)
                continue
            names = ({name} if callee is None else
                     {params[position] for params in signatures.get(callee, ())
                      if position < len(params)})
            found.update(site for site, bound in by_literal.get(value, ())
                         if names & bound
                         and path != f"src/repro/{site.split(':')[0]}")
    return found


def value_violations(sources: dict[str, str],
                     texts: dict[str, str]) -> list[str]:
    """Domain values nothing sets (:func:`set_values`) and no reason
    covers; then listed values that have a setter (or no longer
    exist)."""
    found = set_values(sources, texts)
    declared = {}
    for key, values in domain_values(sources).items():
        module, domain = key.split(":")
        for constant, (value, line) in values.items():
            declared[f"{module}:{constant}"] = (
                f"{module}:{line}: {constant} ({value!r}) of {domain} has no "
                f"setter outside the tests and no reason in "
                f"VALUES_WITHOUT_CALLER")
    unset = [message for site, message in declared.items()
             if site not in found and site not in VALUES_WITHOUT_CALLER]
    stale = [f"VALUES_WITHOUT_CALLER entry {site} "
             + ("has a setter now" if site in found else "names no value")
             for site in VALUES_WITHOUT_CALLER
             if site in found or site not in declared]
    return unset + stale


def test_every_identity_key_names_its_keeper():
    assert id_key_violations(_package()) == []


def test_the_simulator_has_one_client():
    assert simulator_builders(_package()) == {"workload/engine.py"}


def _simulator_defaults(sources: dict[str, str]) -> list[str]:
    return [key for key in defaulted(sources)
            if key.startswith("engine/simulator.py:Simulator(")]


def test_the_simulator_constructor_has_no_default():
    assert _simulator_defaults(_package()) == []


def test_a_defaulted_simulator_parameter_is_caught():
    sources = dict(_package())
    sources["engine/simulator.py"] = sources["engine/simulator.py"].replace(
        "ExecutionFaultError, float], None]\n",
        "ExecutionFaultError, float], None] = print\n")
    assert _simulator_defaults(sources) == [
        "engine/simulator.py:Simulator(on_query_abort)"]


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
    caller = "ok = model.contains(response)\n"
    outside = _outside_references() + Counter(_tokens(caller))
    assert unreferenced(_package(), outside) == [
        "DEFINITIONS_WITHOUT_CALLER entry "
        "analysis/predictor.py:contains has a caller now"]


def test_a_method_named_only_by_a_local_variable_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "class Tally:\n"
        "    def grand_total(self):\n"
        "        return 0\n"
        "def show(rows):\n"
        "    grand_total = sum(rows)\n"
        "    print(grand_total, {'count': grand_total},\n"
        "          dict(grand_total=grand_total), 'grand_total')\n"
        "shown = show([Tally()])\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:2: grand_total is defined but never referenced"]
    for use in ("tally.grand_total()", "getattr(tally, 'grand_total')()",
                "{'grand_total': 'sum'}"):
        called = {**doctored, "bench/doctored.py":
                  doctored["bench/doctored.py"] + f"x = {use}\n"}
        assert unreferenced(called, _outside_references()) == [], use


def test_an_unreferenced_definition_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "def forgotten_helper(rows):\n"
        "    return sorted(rows)\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:1: forgotten_helper is defined but never "
        "referenced"]


def test_a_definition_named_only_in_prose_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        '"""Rows go through described_helper before they print."""\n'
        "# described_helper sorts them.\n"
        "def described_helper(rows):\n"
        '    """described_helper"""\n'
        "    return sorted(rows)\n"
        "rows = sorted([2, 1])  # not described_helper([2, 1])\n")}
    assert unreferenced(doctored, _outside_references()) == [
        "bench/doctored.py:3: described_helper is defined but never "
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


def test_every_import_is_read():
    assert unread_imports(_package()) == []


def test_an_import_nobody_reads_is_caught():
    doctored = {**_package(), "bench/doctored.py": (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from dataclasses import dataclass, field\n"
        "from repro.errors import PlanError as Refused\n"
        "if TYPE_CHECKING:\n"
        "    from repro.lera.graph import LeraGraph\n"
        "def check(plan: 'LeraGraph | None') -> None:\n"
        "    'field, os and Refused are named in prose only.'\n"
        "    return dataclass\n")}
    assert unread_imports(doctored) == [
        "bench/doctored.py:2: os is imported but never read",
        "bench/doctored.py:4: field is imported but never read",
        "bench/doctored.py:5: Refused is imported but never read"]


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


def test_a_listed_field_that_gained_a_caller_is_reported_stale(monkeypatch):
    sources = dict(_package())
    sources["serve/policies.py"] = sources["serve/policies.py"].replace(
        "    queue_limit: int | None = None\n",
        "    queue_limit: int | None = None\n"
        "    brownout: bool = False\n")
    fields = option_fields(sources)
    monkeypatch.setitem(OPTIONS_WITHOUT_CALLER, "ServingPolicy.brownout",
                        ("sheds early", "tests/serve/test_policies.py"))
    assert census_violations(fields, set_options(_callers(), fields)) == []
    for call in ("ServingPolicy(brownout=True)",
                 "ServingPolicy('edf', 6, True)"):
        doctored = {**_callers(), "perf_ledger/doctored.py": (
            "from repro import ServingPolicy\n"
            f"policy = {call}\n")}
        assert census_violations(fields, set_options(doctored, fields)) == [
            "OPTIONS_WITHOUT_CALLER entry ServingPolicy.brownout "
            "has a caller now"], call


def test_every_parameter_has_a_caller_or_a_reason():
    assert uncalled_parameters(
        _package(), reference_texts(_package(), _modules())) == []


def test_every_parameter_without_a_caller_has_a_reason_and_a_test():
    assert [key for key, (reason, _test) in PARAMETERS_WITHOUT_CALLER.items()
            if not reason.startswith(PARAMETER_REASONS)] == []
    assert without_behaviour_test(PARAMETERS_WITHOUT_CALLER) == []


def test_a_parameter_only_a_test_passes_is_caught():
    doctored = {**_package(), "storage/doctored.py": (
        "def sort_rows(rows, reverse=False):\n"
        "    return sorted(rows, reverse=reverse)\n"
        "ROWS = sort_rows([2, 1])\n")}
    modules = {**_modules(), "tests/storage/test_doctored.py": (
        "from repro.storage.doctored import sort_rows\n"
        "def test_sorts_down():\n"
        "    assert sort_rows([1, 2], reverse=True) == [2, 1]\n")}
    assert uncalled_parameters(doctored,
                               reference_texts(doctored, modules)) == [
        "storage/doctored.py:1: sort_rows(reverse) has no caller outside "
        "the tests and no reason in PARAMETERS_WITHOUT_CALLER"]


def test_a_listed_parameter_that_gained_a_caller_is_reported_stale():
    for call in ("db.explain(SQL, extended=True)", "db.explain(SQL, 8, True)"):
        modules = {**_modules(), "perf_ledger/doctored.py": (
            f"def show(db):\n    print({call})\n")}
        assert uncalled_parameters(
            _package(), reference_texts(_package(), modules)) == [
            "PARAMETERS_WITHOUT_CALLER entry "
            "core/database.py:DBS3.explain(extended) has a caller now"], call


def test_a_parameter_passed_through_a_partial_counts_as_passed():
    helper = ("def sort_rows(rows, key=None, reverse=False):\n"
              "    return sorted(rows, key=key, reverse=reverse)\n")
    for caller in ("ROWS = functools.partial(sort_rows, key=abs, "
                   "reverse=True)([2, 1])\n",
                   "descending = functools.partial(sort_rows, [2, 1])\n"
                   "ROWS = descending(abs, True)\n"):
        doctored = {**_package(), "storage/doctored.py": (
            "import functools\n" + helper + caller)}
        assert uncalled_parameters(
            doctored, reference_texts(doctored, _modules())) == [], caller


#: A package module whose ``Printer.heard(loud)`` is passed only by a
#: callback dispatch, and whose ``Runner(on_done=...)`` keeps a callback
#: it calls with ``quiet``; *dispatch* is the subscribed hook's call.
CALLBACKS = (
    "class Bus:\n"
    "    def __init__(self):\n"
    "        self._hooks = {{}}\n"
    "    def listen(self, point, hook):\n"
    "        self._hooks.setdefault(point, []).append(hook)\n"
    "    def fire(self, point, now):\n"
    "        for hook in self._hooks.get(point, ()):\n"
    "            {dispatch}\n"
    "class Runner:\n"
    "    def __init__(self, on_done):\n"
    "        self.on_done = on_done\n"
    "    def finish(self):\n"
    "        self.on_done(1, quiet=True)\n"
    "class Printer:\n"
    "    def __init__(self, bus):\n"
    "        bus.listen('tick', self.heard)\n"
    "        self.runner = Runner(on_done=self.ran)\n"
    "    def heard(self, now, loud=False):\n"
    "        return loud\n"
    "    def ran(self, count, quiet=False):\n"
    "        return quiet\n"
    "PRINTER = Printer(Bus())\n")


def test_a_parameter_a_callback_dispatch_passes_counts_as_passed():
    doctored = {**_package(), "storage/doctored.py": CALLBACKS.format(
        dispatch="hook(now, loud=True)")}
    assert uncalled_parameters(
        doctored, reference_texts(doctored, _modules())) == []


def test_a_callback_dispatch_that_omits_the_parameter_is_caught():
    doctored = {**_package(), "storage/doctored.py": CALLBACKS.format(
        dispatch="hook(now)")}
    assert uncalled_parameters(
        doctored, reference_texts(doctored, _modules())) == [
        "storage/doctored.py:18: Printer.heard(loud) has no caller outside "
        "the tests and no reason in PARAMETERS_WITHOUT_CALLER"]


def test_every_value_has_a_setter_or_a_reason():
    assert value_violations(
        _package(), reference_texts(_package(), _modules())) == []


def test_every_value_without_a_setter_has_a_behaviour_test():
    assert without_behaviour_test(VALUES_WITHOUT_CALLER) == []


#: The placement domain with a third value, ``PLACEMENT_HOT``.
HOT = ("engine/executor.py", "PLACEMENTS = (PLACEMENT_WARM, PLACEMENT_COLD)",
       "PLACEMENT_HOT = \"hot\"\n"
       "PLACEMENTS = (PLACEMENT_WARM, PLACEMENT_COLD, PLACEMENT_HOT)")
HOT_UNSET = ["engine/executor.py:{line}: PLACEMENT_HOT ('hot') of PLACEMENTS "
             "has no setter outside the tests and no reason in "
             "VALUES_WITHOUT_CALLER"]


def _hot(*callers: str) -> tuple[list[str], list[str]]:
    """The value census with ``PLACEMENT_HOT`` added and *callers* as
    ``perf_ledger`` modules, and what it reports when nothing sets it."""
    module, old, new = HOT
    sources = dict(_package())
    sources[module] = sources[module].replace(old, new)
    modules = {**_modules(), **{f"perf_ledger/doctored{i}.py": caller
                                for i, caller in enumerate(callers)}}
    line = next(number for number, text in enumerate(
        sources[module].splitlines(), 1) if text.startswith("PLACEMENT_HOT"))
    return (value_violations(sources, reference_texts(sources, modules)),
            [message.format(line=line) for message in HOT_UNSET])


def test_a_value_only_compared_against_is_caught():
    found, unset = _hot(
        "from repro.engine.executor import PLACEMENT_HOT\n"
        "def hot(options):\n"
        "    return options.placement == PLACEMENT_HOT\n")
    assert found == unset


def test_a_value_passed_as_a_whole_domain_is_caught():
    found, unset = _hot(
        "from repro.engine.executor import PLACEMENTS\n"
        "def add(parser):\n"
        "    parser.add_argument('--placement', choices=PLACEMENTS)\n"
        "    for placement in PLACEMENTS:\n"
        "        print(placement)\n")
    assert found == unset


def test_a_constant_passed_or_iterated_counts():
    for caller in ("ExecutionOptions(placement=executor.PLACEMENT_HOT)",
                   "run(database, PLACEMENT_HOT)",
                   "[run(p) for p in (PLACEMENT_WARM, PLACEMENT_HOT)]",
                   "def run(database, where=PLACEMENT_HOT): pass"):
        assert _hot(caller + "\n")[0] == [], caller


def test_a_literal_counts_only_bound_to_its_fields_name():
    for caller in ("ExecutionOptions(placement='hot')",
                   "def cell(machine, placement): pass\ncell(1, 'hot')",
                   "for placement in ('warm', 'hot'):\n    print(placement)"):
        assert _hot(caller + "\n")[0] == [], caller
    for caller in ("build_index(rows, 0, kind='hot')",
                   "def cell(machine, kind): pass\ncell(1, 'hot')",
                   "print('hot')", "choices = ('warm', 'hot')"):
        found, unset = _hot(caller + "\n")
        assert found == unset, caller


def test_a_hash_join_beside_the_hash_index_would_be_caught():
    """``"hash"`` is an index ``kind`` the package passes and defaults:
    none of that sets a join algorithm."""
    sources = dict(_package())
    assert any(value == "hash" and name == "kind"
               for _kind, value, (name, _callee, _position)
               in _bound_values(sources["storage/indexes.py"]))
    sources["lera/operators.py"] = sources["lera/operators.py"].replace(
        "JOIN_ALGORITHMS = (JOIN_NESTED_LOOP, JOIN_TEMP_INDEX)",
        "JOIN_HASH = \"hash\"\n"
        "JOIN_ALGORITHMS = (JOIN_NESTED_LOOP, JOIN_TEMP_INDEX, JOIN_HASH)")
    found = value_violations(sources, reference_texts(sources, _modules()))
    assert [message.split(": ", 1)[1] for message in found] == [
        "JOIN_HASH ('hash') of JOIN_ALGORITHMS has no setter outside the "
        "tests and no reason in VALUES_WITHOUT_CALLER"]


def test_a_listed_value_that_gained_a_setter_is_reported_stale(monkeypatch):
    monkeypatch.setitem(VALUES_WITHOUT_CALLER, "engine/executor.py:"
                        "PLACEMENT_HOT", ("a third placement", "tests"))
    assert _hot()[0] == []
    assert _hot("ExecutionOptions(placement='hot')\n")[0] == [
        "VALUES_WITHOUT_CALLER entry engine/executor.py:PLACEMENT_HOT has a "
        "setter now"]
