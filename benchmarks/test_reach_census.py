"""Reach census: every named function under ``src/`` is reached by a run.

DIPBench is a specification plus a toolsuite, not a library, so
``src/repro`` should hold what a workload, a command or an example
reaches.  This test checks that mechanically.  In a fresh interpreter,
with a profile hook installed (``sys.setprofile`` and
``threading.setprofile``) *before* ``import repro`` so import-time
calls count, it runs:

* the ``classic`` / ``synth`` / ``budget`` / ``durable`` bench specs at
  2 periods, seed 5, and ``classic`` on the other three engines;
* a few ``dipbench.session/v1`` sessions through :class:`HttpServer` on
  the inline dispatcher, one engine each, plus one cache-hit repeat;
* every ``repro`` command of the docs/CI corpus
  (``tests/test_docs_commands.py``) except ``serve`` / ``storm``, with
  ``--periods`` capped at 2 and ``--workers`` at 1;
* every ``examples/*.py``.

A function is keyed ``module:qualname``.  The test fails when a
function is neither reached nor on ``benchmarks/reach_allowlist.json``,
when an allowlisted function is reached (a stale entry), or when the
list grows past :data:`ALLOWLIST_PIN`.  Each entry names one reason from
:data:`REASONS` and the file or test that reaches it instead.

Run the census alone (about two minutes; it prints the keys)::

    PYTHONPATH=src python benchmarks/test_reach_census.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.json"

#: The allowlist may shrink, never grow: lower this pin when it does.
ALLOWLIST_PIN = 148

#: Why a function no run reaches may stay under ``src/``.
REASONS = {
    "error": "a refusal or failure path; the test named beside it drives it",
    "worker": "runs in a worker process the census cannot profile",
    "bench": "wrapped or read by name by the frozen instrument under bench/",
    "ablation": "reached only by the benchmarks/ study named beside it",
    "abstract": "an interface declaration or a null object's no-op",
    "debug": "a repr, or a read-only view a person or a test inspects",
    "input": (
        "reached only by an input or a caller no census run supplies (a "
        "flag value, a process shape, a library call); the test beside it "
        "supplies one"
    ),
}

#: ``code.co_qualname`` names a nested function exactly.
pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the census keys on code.co_qualname"
)

#: Caps that keep every corpus command to a couple of seconds.
PERIOD_CAP = 2
WORKER_CAP = 1
SKIPPED_COMMANDS = ("serve", "storm")


# -- what exists ---------------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _code_objects(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _code_objects(const)


def defined_functions() -> dict[tuple[str, int, str], str]:
    """``(file, first line, name)`` → ``module:qualname`` for every
    named function and method under ``src/repro`` (lambdas,
    comprehensions, generator expressions and class bodies are not)."""
    found: dict[tuple[str, int, str], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _code_objects(top):
            if code.co_name.startswith("<") or not code.co_flags & CO_NEWLOCALS:
                continue
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            found[key] = f"{_module_name(path)}:{code.co_qualname}"
    return found


# -- what runs reach -----------------------------------------------------------


def _cap(argv: list[str], parser) -> list[str] | None:
    """One corpus command with its periods and workers capped, or None."""
    import argparse

    if not argv or argv[0] in SKIPPED_COMMANDS:
        return None
    argv = ["examples/faults_basic.json" if word == "$spec" else word
            for word in argv]
    sub = parser
    for word in argv:
        action = next((a for a in sub._actions
                       if isinstance(a, argparse._SubParsersAction)), None)
        if action is None or word not in action.choices:
            break
        sub = action.choices[word]
    known = {s for a in sub._actions for s in a.option_strings}
    capped: list[str] = []
    words = iter(argv)
    for word in words:
        capped.append(word)
        if word == "--periods":
            capped.append(str(min(PERIOD_CAP, int(next(words)))))
        elif word == "--workers":
            capped.append(str(min(WORKER_CAP, int(next(words)))))
    if "--periods" in known and "--periods" not in capped:
        capped += ["--periods", str(PERIOD_CAP)]
    if "--workers" in known and "--workers" not in capped:
        capped += ["--workers", str(WORKER_CAP)]
    return capped


def _period_workloads() -> None:
    from dataclasses import replace

    from bench.workloads import build
    from repro.parallel.spec import run_spec

    classic = None
    for name in ("classic", "synth", "budget", "durable"):
        spec = replace(build(name, 5).spec, periods=PERIOD_CAP)
        classic = classic or spec
        assert run_spec(spec).ok, name
    for engine in ("federated", "eai", "etl"):
        assert run_spec(replace(classic, engine=engine)).ok, engine


def _served_sessions() -> None:
    import asyncio

    from bench.workloads import SERVED_ENGINES, build
    from repro.serve import HttpServer, ServeClient, ServeConfig, SessionManager

    docs = build("served", 5).sessions[: len(SERVED_ENGINES)]

    async def sessions() -> None:
        manager = SessionManager(ServeConfig(engine_slots=1, dispatcher="inline",
                                             cache=True))
        server = HttpServer(manager)
        await server.start(host="127.0.0.1", port=0)
        client = ServeClient(server.host, server.port, timeout=120.0)
        try:
            assert (await client.healthz()).ok
            for doc in (*docs, docs[0]):
                posted = await client.post_session(doc)
                assert posted.status == 202, posted.doc
                reply = await client.get_report(posted.doc["id"], doc["tenant"],
                                                wait=120.0)
                assert reply.status == 200, reply.doc
        finally:
            await server.stop(drain=True)

    asyncio.run(sessions())


def _commands() -> None:
    import contextlib
    import io
    import tempfile

    from repro.cli import _build_parser, main
    from tests.test_docs_commands import _ci_commands, _doc_commands

    parser = _build_parser()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        os.symlink(ROOT / "examples", "examples")
        # The crash spec CI writes before its `recover` step, moved to
        # period 1 so that a run capped at two periods reaches it.
        Path("crash.json").write_text(json.dumps({
            "name": "ci-crash", "seed": 42, "events": [
                {"at": 300.0, "kind": "crash", "point": "commit", "period": 1}]}))
        try:
            for param in (*_ci_commands(), *_doc_commands()):
                argv = _cap(list(param.values[0]), parser)
                if argv is None:
                    continue
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        main(argv)
                    except SystemExit:
                        pass
        finally:
            os.chdir(here)


def _examples() -> None:
    """Each example from a copy of ``examples/``: some write beside themselves."""
    import contextlib
    import io
    import runpy
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(shutil.copytree(ROOT / "examples", Path(scratch) / "examples"))
        for path in sorted(copy.glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")


def collect() -> list[str]:
    """Run every census workload under the profile hook; the reached keys.

    Must run in a fresh interpreter that has not imported ``repro``."""
    import threading

    assert "repro" not in sys.modules, "the census needs a fresh interpreter"
    seen: set = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        sys.path[:0] = [str(SRC), str(ROOT)]
        import repro  # noqa: F401  (import-time calls count)

        _period_workloads()
        _served_sessions()
        _commands()
        _examples()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    functions = defined_functions()
    return sorted({
        functions[key]
        for key in ((c.co_filename, c.co_firstlineno, c.co_name) for c in seen)
        if key in functions
    })


# -- the gate ------------------------------------------------------------------


def census_problems(functions: set[str], reached: set[str],
                    allowlist: dict[str, dict], pin: int) -> list[str]:
    """Everything wrong with one census against one allowlist."""
    problems = [
        f"unreached and not allowlisted: {key}"
        for key in sorted(functions - reached - set(allowlist))
    ]
    problems += [
        f"allowlisted but reached (remove the entry): {key}"
        for key in sorted(set(allowlist) & reached)
    ]
    problems += [
        f"allowlisted but no longer under src/: {key}"
        for key in sorted(set(allowlist) - functions)
    ]
    for key, entry in sorted(allowlist.items()):
        if entry.get("reason") not in REASONS:
            problems.append(f"{key}: reason {entry.get('reason')!r} not in {sorted(REASONS)}")
        if not entry.get("by"):
            problems.append(f"{key}: no file or test named")
    if len(allowlist) > pin:
        problems.append(
            f"the allowlist grew past its pin: {len(allowlist)} > {pin}"
        )
    return problems


def load_allowlist() -> dict[str, dict]:
    return json.loads(ALLOWLIST.read_text(encoding="utf-8"))


def _run_census() -> list[str]:
    # A fixed hash seed: set iteration order must not decide what is reached.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=900,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(done.stdout)


def test_every_function_under_src_is_reached_or_allowlisted():
    reached = set(_run_census())
    functions = set(defined_functions().values())
    problems = census_problems(functions, reached, load_allowlist(), ALLOWLIST_PIN)
    assert not problems, "\n".join(problems)


def test_the_gate_fails_in_each_of_its_three_cases():
    functions = {"m:a", "m:b", "m:c"}
    entry = {"reason": "error", "by": "tests/t.py"}
    assert census_problems(functions, {"m:a", "m:b"}, {"m:c": entry}, 1) == []
    added = census_problems(functions | {"m:d"}, {"m:a", "m:b"}, {"m:c": entry}, 1)
    assert added == ["unreached and not allowlisted: m:d"]
    stale = census_problems(functions, functions, {"m:c": entry}, 1)
    assert stale == ["allowlisted but reached (remove the entry): m:c"]
    grown = census_problems(functions, {"m:a"}, {"m:b": entry, "m:c": entry}, 1)
    assert grown == ["the allowlist grew past its pin: 2 > 1"]


def test_every_entry_names_a_known_reason_and_an_existing_file():
    for key, entry in load_allowlist().items():
        assert entry["reason"] in REASONS, key
        assert (ROOT / entry["by"].split("::")[0]).exists(), (key, entry["by"])


if __name__ == "__main__":
    print(json.dumps(collect()))
