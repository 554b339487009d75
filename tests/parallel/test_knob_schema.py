"""Adding a knob is a one-site change: :class:`RunSpec` declares it.

Each test here names one edge that used to re-declare the knobs — the
CLI parsers, the ``session/v1`` whitelist and echo, the engine + client
wiring, the docs — and fails when a second declaration comes back.

Regenerate the knob table of docs/parallel.md after a declaration
changes::

    PYTHONPATH=src python tests/parallel/test_knob_schema.py
"""

import ast
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import TranslationError
from repro.parallel import RunSpec, run_spec
from repro.parallel.spec import KNOBS, knob_type
from repro.serve import CONTRACT_V1, parse_session_request
from repro.serve.translate import _V1_SPEC_FIELDS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
PARALLEL_MD = ROOT / "docs" / "parallel.md"

DECLARED_FLAGS = {k.metadata["flag"] for k in KNOBS.values() if k.metadata.get("flag")}
WIRE = {name for name, k in KNOBS.items() if k.metadata.get("wire")}
PHYSICAL = {name for name, k in KNOBS.items() if k.metadata.get("physical")}

#: ``sweep --workers`` is the sweep's own process count, not a RunSpec
#: field; inside a sweep the engine's worker pool is ``--engine-workers``.
NOT_A_SPEC_KNOB = {("sweep", "--workers")}


# -- the CLI --------------------------------------------------------------------


def test_no_parser_writes_out_a_flag_runspec_declares():
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    hand_written = [
        (call.func.value.id, arg.value)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "add_argument"
        and isinstance(call.func.value, ast.Name)
        for arg in call.args
        if isinstance(arg, ast.Constant) and arg.value in DECLARED_FLAGS
    ]
    assert sorted(set(hand_written) - NOT_A_SPEC_KNOB) == []


def test_counts_before_equal_counts_after():
    """The PR that introduced the declarations added no knob."""
    assert len(KNOBS) == 24
    assert len(DECLARED_FLAGS) == 20


# -- session/v1 -----------------------------------------------------------------


def test_the_whitelist_is_the_declared_wire_fields():
    assert set(_V1_SPEC_FIELDS) == WIRE
    assert all(_V1_SPEC_FIELDS[name] is knob_type(name) for name in WIRE)
    assert PHYSICAL.isdisjoint(WIRE)


# -- grid identity ----------------------------------------------------------------


def test_grid_identity_ignores_exactly_the_physical_knobs():
    assert PHYSICAL == {"mem_budget"}
    spec = RunSpec()
    for name in PHYSICAL:
        moved = replace(spec, **{name: 64})
        assert moved.grid_key() == spec.grid_key()
        assert moved.label == spec.label
    for name, other in (
        ("engine", "etl"), ("datasize", 0.1), ("time", 2.0),
        ("distribution", 1), ("seed", 7), ("synth", "depth=2"),
    ):
        moved = replace(spec, **{name: other})
        assert moved.grid_key() != spec.grid_key()
        assert moved.label != spec.label


# -- wiring -------------------------------------------------------------------------


def test_an_engine_is_constructed_in_two_places():
    sites = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "engine" not in path.relative_to(SRC).parts[:1]
        for _ in re.findall(r"ENGINES\[", path.read_text("utf-8"))
    )
    assert sites == ["parallel/spec.py", "synth/conformance.py"]


# -- the two ranges nobody checked ------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("checkpoint_every", 1e-15), ("checkpoint_every", 0.0),
        ("checkpoint_every", -1.0), ("checkpoint_every", math.nan),
        ("checkpoint_every", math.inf),
        ("sandiego_error_rate", 7.5), ("sandiego_error_rate", -1.0),
        ("sandiego_error_rate", math.nan),
    ],
)
def test_out_of_range_is_a_problem(field, value):
    problems = RunSpec(**{field: value}).problems()
    assert len(problems) == 1 and problems[0].startswith(f"{field}: ")
    with pytest.raises(TranslationError) as err:
        parse_session_request(
            {"contract": CONTRACT_V1, "tenant": "t", "spec": {field: value}}
        )
    assert err.value.problems == [f"spec.{problems[0]}"]


def test_boundaries_are_inside():
    assert RunSpec(sandiego_error_rate=0.0, checkpoint_every=1e-6).problems() == []
    assert RunSpec(sandiego_error_rate=1.0, checkpoint_every=None).problems() == []


TINY = RunSpec(
    datasize=0.02, durability="snapshot+wal", checkpoint_every=1e-15
)


def test_the_tiny_cadence_is_a_typed_error_not_a_hang(capsys):
    started = time.perf_counter()
    outcome = run_spec(TINY)
    assert outcome.status == "error"
    assert outcome.error_type == "BenchmarkError"
    assert "checkpoint_every" in outcome.error
    assert main([
        "run", "--datasize", "0.02", "--durability", "snapshot+wal",
        "--checkpoint-every", "1e-15",
    ]) == 2
    assert "checkpoint_every: out of range" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0


# -- the docs ---------------------------------------------------------------------------

BEGIN, END = "<!-- knob-table:begin -->", "<!-- knob-table:end -->"


def knob_table() -> str:
    """The markdown table of every RunSpec field, as declared."""
    rows = [
        "| field | flag | session/v1 | type | default | range | physical-only |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, knob in KNOBS.items():
        meta = knob.metadata
        choices = meta.get("choices")
        if callable(choices):
            valid = "a registered engine"
        elif choices:
            valid = " \\| ".join(f"`{c!r}`" for c in choices)
        else:
            valid = f"`{meta['bounds']}`" if meta.get("bounds") else "—"
        flag = f"`{meta['flag']}`" if meta.get("flag") else "—"
        wire = {"rw": f"`{name}`", "r": f"`{name}` (accepted, not echoed)"}
        physical = "yes" if meta.get("physical") else "—"
        rows.append(
            f"| `{name}` | {flag} | {wire.get(meta.get('wire'), '—')} "
            f"| `{knob.type.replace('|', chr(92) + '|')}` "
            f"| `{knob.default!r}` | {valid} | {physical} |"
        )
    return "\n".join(rows)


def test_the_knob_table_in_the_docs_is_current():
    text = PARALLEL_MD.read_text("utf-8")
    assert text.split(BEGIN)[1].split(END)[0].strip() == knob_table()


if __name__ == "__main__":
    text = PARALLEL_MD.read_text("utf-8")
    head, rest = text.split(BEGIN)
    PARALLEL_MD.write_text(
        f"{head}{BEGIN}\n{knob_table()}\n{END}{rest.split(END)[1]}", "utf-8"
    )
    print(f"wrote the knob table into {PARALLEL_MD}")
