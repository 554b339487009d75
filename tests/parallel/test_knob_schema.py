"""Adding a knob is a one-site change: its spec declares it.

Each test here names one edge that used to re-declare the knobs — the
CLI parsers, the ``session/v1`` whitelist and echo, the engine + client
wiring, the synth knob-string and tenant-policy grammars, the fault-spec
loader, the serve/storm range checks, the docs — and fails when a second
declaration comes back.

Regenerate the declared tables in docs/ after a declaration changes::

    PYTHONPATH=src python tests/parallel/test_knob_schema.py
"""

import ast
import math
import re
import time
from dataclasses import MISSING, replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.declare import fields_of, knob_type, problems
from repro.errors import ServeError, TranslationError
from repro.parallel import RunSpec, run_spec
from repro.parallel.spec import KNOBS
from repro.resilience import FaultEvent, FaultSpec
from repro.serve import (
    CONTRACT_V1,
    ServeConfig,
    StormConfig,
    TenantPolicy,
    parse_session_request,
)
from repro.serve.translate import _V1_SPEC_FIELDS
from repro.synth import SynthSpec

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
PARALLEL_MD = ROOT / "docs" / "parallel.md"

SPECS = (
    RunSpec, SynthSpec, FaultEvent, FaultSpec,
    TenantPolicy, ServeConfig, StormConfig,
)
RUN_FLAGS = {k.metadata["flag"] for k in KNOBS.values() if k.metadata.get("flag")}
DECLARED_FLAGS = {
    spec_field.metadata["flag"]
    for spec in SPECS
    for spec_field in fields_of(spec).values()
    if spec_field.metadata.get("flag")
}
FIELD_NAMES = {name for spec in SPECS for name in fields_of(spec)}
WIRE = {name for name, k in KNOBS.items() if k.metadata.get("wire")}
PHYSICAL = {name for name, k in KNOBS.items() if k.metadata.get("physical")}

#: ``sweep --workers`` is the sweep's own process count, not a RunSpec
#: field; inside a sweep the engine's worker pool is ``--engine-workers``.
NOT_A_SPEC_KNOB = {("sweep", "--workers")}


# -- the CLI --------------------------------------------------------------------


def test_no_parser_writes_out_a_flag_runspec_declares():
    """Nor a flag any other declared spec names."""
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
    """The PRs that introduced the declarations added no knob."""
    assert len(KNOBS) == 24
    assert len(RUN_FLAGS) == 20
    assert {spec.__name__: len(fields_of(spec)) for spec in SPECS[1:]} == {
        "SynthSpec": 11, "FaultEvent": 11, "FaultSpec": 3,
        "TenantPolicy": 4, "ServeConfig": 9, "StormConfig": 13,
    }


# -- no second declaration ----------------------------------------------------------

HAND_WRITTEN_SITES = sorted(
    [SRC / "synth" / "spec.py", SRC / "resilience" / "faults.py"]
    + list((SRC / "serve").glob("*.py"))
)


def _field_names(node) -> set:
    return {
        c.value for c in ast.walk(node)
        if isinstance(c, ast.Constant) and c.value in FIELD_NAMES
    }


@pytest.mark.parametrize(
    "path", HAND_WRITTEN_SITES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_alias_table_type_set_or_range_check_by_hand(path):
    tree = ast.parse(path.read_text("utf-8"))
    found = []
    for node in ast.walk(tree):
        # {"fanout": "fan_out", ...} or {"rate": float, ...}
        if isinstance(node, ast.Dict) and node.keys and all(
            isinstance(v, ast.Name) and v.id in ("int", "float", "str")
            or isinstance(v, ast.Constant) and v.value in FIELD_NAMES
            for v in node.values
        ) and len(_field_names(node)) >= 2:
            found.append(f"table at line {node.lineno}")
        # {"sources", "depth", ...}: a set of field names
        if isinstance(node, ast.Set) and len(_field_names(node)) >= 2:
            found.append(f"set at line {node.lineno}")
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            found.extend(
                f"__post_init__ compares at line {c.lineno}"
                for c in ast.walk(node)
                if isinstance(c, ast.Compare)
            )
        # int(data["count"]), float(value): a cast instead of a declaration
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float", "str") and node.args
            and path.parent.name != "serve"
        ):
            found.append(f"{node.func.id}() at line {node.lineno}")
    assert found == []


# -- session/v1 -----------------------------------------------------------------


def test_the_whitelist_is_the_declared_wire_fields():
    assert set(_V1_SPEC_FIELDS) == WIRE
    assert all(_V1_SPEC_FIELDS[name] is knob_type(KNOBS[name]) for name in WIRE)
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


# -- the ranges nobody checked ------------------------------------------------------------

#: What a spec needs before any one field can be moved out of range.
REQUIRED = {
    FaultEvent: {"at": 0.0, "kind": "outage", "service": "dwh"},
    TenantPolicy: {"name": "t"},
}


def _case(spec, field, value):
    prefix = "" if spec is RunSpec else f"{spec.__name__}."
    return pytest.param(spec, field, value, id=f"{prefix}{field}-{value}")


@pytest.mark.parametrize(
    "spec,field,value",
    [
        _case(RunSpec, "checkpoint_every", 1e-15),
        _case(RunSpec, "checkpoint_every", 0.0),
        _case(RunSpec, "checkpoint_every", -1.0),
        _case(RunSpec, "checkpoint_every", math.nan),
        _case(RunSpec, "checkpoint_every", math.inf),
        _case(RunSpec, "sandiego_error_rate", 7.5),
        _case(RunSpec, "sandiego_error_rate", -1.0),
        _case(RunSpec, "sandiego_error_rate", math.nan),
        *(
            _case(FaultEvent, field, value)
            for field in ("at", "factor", "duration")
            for value in (math.nan, math.inf, -math.inf)
        ),
        _case(TenantPolicy, "rate", math.nan),
        _case(TenantPolicy, "burst", math.nan),
        _case(StormConfig, "rate", math.nan),
        _case(StormConfig, "think_s", math.nan),
        _case(StormConfig, "wait_s", math.nan),
        _case(ServeConfig, "session_timeout_s", math.nan),
        _case(ServeConfig, "queue_capacity", 0),
        _case(ServeConfig, "queue_capacity", -1),
        _case(SynthSpec, "noise", math.nan),
    ],
)
def test_out_of_range_is_a_problem(spec, field, value):
    values = {**REQUIRED.get(spec, {}), field: value}
    try:
        found = problems(spec(**values))
    except ServeError as refused:  # the serve configs refuse to exist
        found = [str(refused)]
    assert len(found) == 1 and "; " not in found[0]
    assert re.search(rf"\b{field}\b", found[0]), found
    if spec is not RunSpec:
        return
    assert found[0].startswith(f"{field}: ")
    with pytest.raises(TranslationError) as err:
        parse_session_request(
            {"contract": CONTRACT_V1, "tenant": "t", "spec": {field: value}}
        )
    assert err.value.problems == [f"spec.{found[0]}"]


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


def test_the_san_diego_error_rate_is_refused_on_a_synth_spec():
    """The one classic-scenario knob a synthesized run cannot honour."""
    assert RunSpec(synth="sources=2").problems() == []
    spec = RunSpec(synth="sources=2", sandiego_error_rate=0.25)
    assert spec.problems() == [
        "sandiego_error_rate: a classic-scenario knob, meaningless with "
        "synth set: 0.25"
    ]
    outcome = run_spec(spec)
    assert outcome.error_type == "BenchmarkError"
    assert "sandiego_error_rate" in outcome.error


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


def spec_table(spec) -> str:
    """The markdown table of a spec's keys, as declared: a tuple's range
    names its entries and how many of them it holds."""
    rows = ["| key | type | default | range | meaning |", "|---|---|---|---|---|"]
    for name, spec_field in fields_of(spec).items():
        meta = spec_field.metadata
        key = ", ".join(f"`{k}`" for k in (name, *meta.get("alias", ())))
        valid = [" \\| ".join(f"`{c}`" for c in meta.get("choices", ()))]
        if meta.get("bounds"):
            entries = " entries" if spec_field.type.startswith("tuple") else ""
            valid.append(f"`{meta['bounds']}`{entries}")
        default = (
            "required" if spec_field.default is MISSING
            else f"`{spec_field.default!r}`"
        )
        rows.append(
            f"| {key} | `{spec_field.type.replace('|', chr(92) + '|')}` "
            f"| {default} | {'; '.join(filter(None, valid)) or '—'} "
            f"| {meta['help']} |"
        )
    return "\n".join(rows)


#: (doc, spec): each doc holds the spec's table between its markers.
SPEC_TABLES = [
    ("workloads.md", SynthSpec),
    ("resilience.md", FaultEvent),
    ("serving.md", TenantPolicy),
]


def _markers(spec) -> tuple[str, str]:
    return (
        f"<!-- {spec.__name__}-table:begin -->",
        f"<!-- {spec.__name__}-table:end -->",
    )


@pytest.mark.parametrize(
    "doc,spec", SPEC_TABLES, ids=lambda x: getattr(x, "__name__", x)
)
def test_the_spec_tables_in_the_docs_are_current(doc, spec):
    begin, end = _markers(spec)
    text = (ROOT / "docs" / doc).read_text("utf-8")
    assert text.split(begin)[1].split(end)[0].strip() == spec_table(spec)


def _rewrite(path: Path, begin: str, end: str, table: str) -> None:
    head, rest = path.read_text("utf-8").split(begin)
    path.write_text(f"{head}{begin}\n{table}\n{end}{rest.split(end)[1]}", "utf-8")
    print(f"wrote the table into {path}")


if __name__ == "__main__":
    _rewrite(PARALLEL_MD, BEGIN, END, knob_table())
    for doc, spec in SPEC_TABLES:
        _rewrite(ROOT / "docs" / doc, *_markers(spec), spec_table(spec))
