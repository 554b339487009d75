"""The CLI's parse surface, pinned: every (sub)command's options.

For each command the snapshot holds every argument's option strings,
``dest``, ``type``, ``default``, ``choices``, action, ``nargs`` and
``required`` — what a script calling ``repro`` can observe.  Help text
and metavars are deliberately not pinned: one help string per knob is
the point of declaring the knobs once.

Regenerate after adding or changing a flag on purpose::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import _build_parser

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _argument(action: argparse.Action) -> dict:
    return {
        "strings": list(action.option_strings),
        "dest": action.dest,
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": (
            None if action.choices is None else list(action.choices)
        ),
        "action": type(action).__name__,
        "nargs": action.nargs,
        "required": action.required,
    }


def surface(parser: argparse.ArgumentParser, name: str = "repro") -> dict:
    """``{command path: [argument, ...]}`` over the whole parser tree."""
    commands = {name: []}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub_parser in action.choices.items():
                commands.update(surface(sub_parser, f"{name} {sub_name}"))
            continue
        commands[name].append(_argument(action))
    return commands


def test_parse_surface_matches_the_snapshot():
    pinned = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    current = json.loads(json.dumps(surface(_build_parser())))
    assert sorted(current) == sorted(pinned)
    for command in pinned:
        by_dest = {a["dest"]: a for a in current[command]}
        for argument in pinned[command]:
            assert by_dest.pop(argument["dest"], None) == argument, (
                f"{command}: {argument['dest']}"
            )
        assert not by_dest, f"{command}: unpinned options {sorted(by_dest)}"


if __name__ == "__main__":
    # One argument per line, so a flag change is a one-line diff.
    commands = [
        f" {json.dumps(command)}: [\n"
        + ",\n".join(f"  {json.dumps(a, sort_keys=True)}" for a in arguments)
        + ("\n ]" if arguments else " ]")
        for command, arguments in sorted(surface(_build_parser()).items())
    ]
    SNAPSHOT.write_text(
        "{\n" + ",\n".join(commands) + "\n}\n", encoding="utf-8"
    )
    print(f"wrote {SNAPSHOT}")
