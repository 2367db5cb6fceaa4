"""Every ``make <target>`` and ``python -m repro <subcommand>`` the docs
name exists: a target of the Makefile, a key of ``COMMANDS``; and every
option a ``python`` snippet of the docs passes is a field of its block."""

import ast
import dataclasses
import pathlib
import re

import pytest

import repro
from repro.__main__ import COMMANDS

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCUMENTS = sorted([
    ROOT / "README.md", *(ROOT / "docs").glob("*.md"),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md"])
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(),
                         flags=re.MULTILINE))


def named(text: str) -> tuple[set[str], set[str]]:
    """The make targets (in code spans, CI steps and ``= make x``
    comments — prose also says "make") and subcommands *text* names."""
    text = re.sub(r"\s+", " ", text)  # a name may wrap a line
    return (set(re.findall(r"(?:`|run: |= )make ([a-z][a-z-]*)", text)),
            set(re.findall(r"python -m repro ([a-z]+)\b", text)))


@pytest.mark.parametrize("document", DOCUMENTS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_named_commands_exist(document):
    made, ran = named(document.read_text())
    assert made <= TARGETS, f"no such make target: {sorted(made - TARGETS)}"
    assert ran <= set(COMMANDS), \
        f"no such subcommand: {sorted(ran - set(COMMANDS))}"


def test_the_check_sees_stale_names():
    """Guard the guard on the kind of line this check exists to catch."""
    assert TARGETS == {"test", "bench", "perf", "chaos", "ledger-smoke"}
    assert named("`make\ngone-demo` runs `python -m repro compare a b`; "
                 "to make skew, `python -m repro.bench.twins`\n"
                 "        run: make perf") == (
        {"gone-demo", "perf"}, {"compare"})


#: Documents whose ``python`` blocks are read (never run), and the
#: option blocks whose keywords those blocks must spell as fields.
SNIPPET_DOCUMENTS = sorted([ROOT / "README.md", ROOT / "DESIGN.md",
                            *(ROOT / "docs").glob("*.md")])
OPTION_BLOCKS = {name: {field.name for field
                        in dataclasses.fields(getattr(repro, name))}
                 for name in ("ObservabilityOptions", "ExecutionOptions",
                              "WorkloadOptions", "ServingPolicy")}


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text,
                      flags=re.MULTILINE | re.DOTALL)


def unknown_options(source: str) -> list[str]:
    """``Block(keyword=...)`` calls in *source* whose keyword is not a
    field of the option block (called by name or as an attribute)."""
    unknown = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        fields = OPTION_BLOCKS.get(name)
        if fields is None:
            continue
        unknown += [f"{name}({keyword.arg}=...)"
                    for keyword in node.keywords
                    if keyword.arg is not None and keyword.arg not in fields]
    return unknown


@pytest.mark.parametrize("document", SNIPPET_DOCUMENTS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_snippets_name_only_existing_options(document):
    unknown = [option for block in python_blocks(document.read_text())
               for option in unknown_options(block)]
    assert unknown == [], f"no such option field: {unknown}"


def test_the_snippet_check_sees_a_removed_knob():
    """Guard the guard: a snippet still spelling a knob that went."""
    doctored = ("Then trace it:\n\n```python\n"
                "from repro import ExecutionOptions, ObservabilityOptions\n"
                "options = ExecutionOptions(seed=1, observability="
                "ObservabilityOptions(trace=True, observe=True))\n"
                "```\n")
    blocks = python_blocks(doctored)
    assert len(blocks) == 1
    assert unknown_options(blocks[0]) == ["ObservabilityOptions(trace=...)"]
