"""The prose and the CI cannot outlive a flag or a name.

Every ``python -m repro ...`` / ``repro ...`` command line in the CI
workflow and in the fenced code blocks of README.md, DESIGN.md and
``docs/*.md`` (``docs/perf-log/`` is history, not documentation) must be
accepted by the parser as written; every inline ```repro <command>
--flag``` mention must name a command and flags that exist; every
backticked ```repro.x.y``` dotted name must import or resolve.
"""

import argparse
import importlib
import itertools
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
PARSER = _build_parser()

_COMMAND = re.compile(
    r"^(?:run:|\$)?\s*(?:\w+=\S*\s+)*(?:python3? -m )?repro\s+(.*)$"
)


def _command_lines(script: str):
    """The ``repro`` argument vectors of a shell script, continuations joined."""
    for line in script.replace("\\\n", " ").splitlines():
        match = _COMMAND.match(line.strip())
        if match:
            yield shlex.split(match.group(1), comments=True)


def _matrix_points(job: str):
    """One substitution per ``include`` entry over the first of each list.

    Read off the job's text (CI installs pytest only, so no YAML parser):
    ``key: [a, b]`` axes and ``- { key: value, ... }`` include entries.
    """
    first = {
        key: values.split(",")[0].strip().strip('"')
        for key, values in re.findall(r"^ +([\w-]+): \[([^\]]*)\]$", job, re.M)
    }
    includes = [
        {
            key: value.strip().strip('"')
            for key, value in re.findall(r'([\w-]+):\s*("[^"]*"|[^,}]+)', entry)
        }
        for entry in re.findall(r"^ +- \{(.*?)\}", job, re.M | re.S)
    ]
    return [{**first, **entry} for entry in includes or [{}]]


def _ci_commands():
    jobs = WORKFLOW.read_text(encoding="utf-8").split("\njobs:\n")[1]
    for name, job in re.findall(r"^  ([\w-]+):\n(.*?)(?=^  [\w-]+:\n|\Z)", jobs, re.M | re.S):
        for point in _matrix_points(job):
            script = re.sub(
                r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}",
                lambda m: point[m.group(1)],
                job,
            )
            for argv in _command_lines(script):
                yield pytest.param(argv, id=f"ci:{name}:{' '.join(argv)[:60]}")


def _doc_commands():
    for path in DOCS:
        blocks = re.findall(r"```[^\n]*\n(.*?)```", path.read_text("utf-8"), re.S)
        for argv in itertools.chain.from_iterable(map(_command_lines, blocks)):
            yield pytest.param(argv, id=f"{path.name}:{' '.join(argv)[:60]}")


def _inline_mentions():
    for path in DOCS:
        prose = re.sub(r"```.*?```", "", path.read_text("utf-8"), flags=re.S)
        for span in re.findall(r"`((?:python -m )?repro\s[^`]*)`", prose):
            argv = next(_command_lines(" ".join(span.split())), None)
            if argv:
                yield pytest.param(argv, id=f"{path.name}:{span[:60]}")


@pytest.mark.parametrize("argv", [*_ci_commands(), *_doc_commands()])
def test_written_command_line_parses(argv):
    try:
        PARSER.parse_args(argv)
    except SystemExit:
        pytest.fail(f"the parser rejects: repro {' '.join(argv)}")


@pytest.mark.parametrize("argv", list(_inline_mentions()))
def test_inline_mention_names_real_flags(argv):
    parser = PARSER
    for word in argv:
        subcommands = next(
            (a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)), None,
        )
        if subcommands is None or word.startswith("-"):
            break
        assert word in subcommands.choices, f"no command {word!r}"
        parser = subcommands.choices[word]
    known = {s for a in parser._actions for s in a.option_strings}
    for flag in (w for w in argv if w.startswith("--")):
        assert flag in known, f"{parser.prog} has no {flag}"


def _dotted_names():
    for path in DOCS:
        names = re.findall(r"`(repro(?:\.\w+)+)", path.read_text("utf-8"))
        for name in sorted(set(names)):
            yield pytest.param(name, id=f"{path.name}:{name}")


@pytest.mark.parametrize("name", list(_dotted_names()))
def test_dotted_name_resolves(name):
    """The longest importable prefix, then attributes for the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attribute in parts[cut:]:
            assert hasattr(target, attribute), f"{name}: no {attribute!r}"
            target = getattr(target, attribute)
        return


def test_the_extractors_find_the_commands():
    """A regex that silently matches nothing would pass everything."""
    assert len(list(_ci_commands())) >= 20
    assert len(list(_doc_commands())) >= 40
    assert len(list(_inline_mentions())) >= 15
    assert len(list(_dotted_names())) >= 60
