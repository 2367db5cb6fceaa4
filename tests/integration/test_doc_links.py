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
    assert TARGETS == {"test", "bench", "perf", "chaos", "fuzz", "ledger-smoke"}
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


#: The documents a citation may name a section of, by the file name a
#: citation spells.
CITED = {"architecture.md": ROOT / "docs" / "architecture.md",
         "DESIGN.md": ROOT / "DESIGN.md"}
#: Where citations are read: the package, the tests (this file's doctored
#: citations aside), the README, DESIGN.md, docs/ and the verify skill.
CITING = sorted([*(ROOT / "src").rglob("*.py"),
                 *(path for path in (ROOT / "tests").rglob("*.py")
                   if path != pathlib.Path(__file__).resolve()),
                 ROOT / "README.md", ROOT / "DESIGN.md",
                 *(ROOT / "docs").glob("*.md"),
                 ROOT / ".claude" / "skills" / "verify" / "SKILL.md"])
#: A cited document, optionally a ``§N``, then optionally a quoted
#: heading: ``docs/architecture.md, "The absorbed herd"``,
#: ``DESIGN.md section "Cost-model calibration"``, ``DESIGN.md §7``.
#: Inside a cited document a bare ``§N`` (``§8, "Life of a job"``) is
#: its own section N; the paper's sections are spelled "Section 5.4".
CITATION = re.compile(
    r"(?:(?:docs/)?(architecture\.md|DESIGN\.md)\b[,\s]*\(?\s*|(?=§))"
    r"(?:(§)([\w.–-]*\w|)[,\s]*)?"
    r"(?:section\s+)?(\"[^\"]+\")?")


def headings(text: str) -> list[tuple[int | None, str]]:
    """``(number of the enclosing ## section, title)`` of each heading;
    a numbered title (``## 8. Workloads``) is listed without its number."""
    found, number, in_code = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_code = not in_code
        match = None if in_code else re.match(r"(#{2,6}) (.*)", line)
        if match is None:
            continue
        title = match.group(2).strip()
        numbered = re.match(r"(\d+)\. (.*)", title)
        if len(match.group(1)) == 2:
            number = int(numbered.group(1)) if numbered else None
        found.append((number, numbered.group(2) if numbered else title))
    return found


def unresolved(text: str, own: str | None,
               documents: dict[str, str]) -> list[str]:
    """Citations in *text* that name no heading.  *own* is the cited
    document *text* is, if any (its bare ``§N`` cite itself); *documents*
    maps a cited file name to its text."""
    text = re.sub(r"\s*\n\s*(?:#\s*)?", " ", text)  # wrapped lines, comments
    missing = []
    for match in CITATION.finditer(text):
        document, section, number, quoted = match.groups()
        if not (section or quoted) or not (document or own and section):
            continue
        document = document or own
        titles = headings(documents[document])
        if section and not number.isdigit():
            missing.append(f"{document} §{number}")
            continue
        in_section = [title for n, title in titles
                      if section is None or n == int(number)]
        cited = document + (f" §{number}" if section else "")
        if section and not in_section:
            missing.append(cited)
        elif quoted and quoted.strip('"') not in in_section:
            missing.append(f"{cited} {quoted}")
    return missing


def test_every_cited_section_resolves():
    documents = {name: path.read_text() for name, path in CITED.items()}
    missing = {}
    for path in CITING:
        own = next((name for name, cited in CITED.items() if cited == path),
                   None)
        found = unresolved(path.read_text(), own, documents)
        if found:
            missing[str(path.relative_to(ROOT))] = found
    assert missing == {}, f"citations naming no heading: {missing}"


def test_the_citation_check_sees_a_stale_section():
    """Guard the guard: each form of citation, once resolving and once
    naming a heading that went."""
    documents = {"architecture.md": "## 3. The engine\n\n### The quiet step\n",
                 "DESIGN.md": "## 7. Option blocks\n"}
    citing = ('(docs/architecture.md, "The quiet step") and DESIGN.md §7; '
              '(docs/architecture.md, "The\n    # herd") and DESIGN.md §8; '
              'architecture.md §3, "The quiet step" and §3, "Gone"')
    assert unresolved(citing, None, documents) == [
        'architecture.md "The herd"', "DESIGN.md §8"]
    assert unresolved(citing, "architecture.md", documents) == [
        'architecture.md "The herd"', "DESIGN.md §8",
        'architecture.md §3 "Gone"']
    assert unresolved("the paper's §5.4 and §9", "DESIGN.md", documents) \
        == ["DESIGN.md §5.4", "DESIGN.md §9"]


#: The architecture document explains each mechanism once: what it
#: does, its invariant, why it is exact, the test that holds it.  It
#: regrew with most changes (history, restated code, repeats) until it
#: was twice that; history belongs in CHANGES.md.
ARCHITECTURE_LINE_LIMIT = 800


def over_limit(text: str) -> bool:
    return len(text.splitlines()) >= ARCHITECTURE_LINE_LIMIT


def test_the_architecture_doc_stays_under_its_limit():
    assert not over_limit(CITED["architecture.md"].read_text()), (
        "docs/architecture.md reached its line limit: cut history, "
        "restated code and repeats before adding")


def test_the_limit_check_sees_a_regrown_doc():
    """Guard the guard: one line under the limit passes, the limit fails."""
    assert not over_limit("line\n" * (ARCHITECTURE_LINE_LIMIT - 1))
    assert over_limit("line\n" * ARCHITECTURE_LINE_LIMIT)
