"""Every ``make <target>`` and ``python -m repro <subcommand>`` the docs
name exists: a target of the Makefile, a key of ``COMMANDS``."""

import pathlib
import re

import pytest

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
