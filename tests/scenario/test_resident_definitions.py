"""A built definition is a value (docs/architecture.md).

``BenchmarkClient`` deploys the same trees in every session of every
thread, so nothing a session does may change them: execution writes
only the plan memos (filled at first use from fields that refuse an
edit), and run state lives on the instance's context.  The structural
fingerprint below covers everything else a definition holds — operator
classes and fields, expressions, stylesheet rules, schema declarations,
the closures' captured values — and must read the same before and after
a period on every engine, faulted and traced runs included, and the
same as a fresh ``build_processes()``.
"""

import enum
from collections.abc import Mapping
from decimal import Decimal
from operator import delitem, setitem

import pytest

from repro.db.expressions import Expression
from repro.mtm.blocks import SwitchCase
from repro.mtm.operators import (
    Convert,
    Operator,
    Projection,
    Translation,
    Validate,
    ValidateRows,
)
from repro.mtm.process import ProcessType
from repro.parallel.spec import RunSpec, run_spec
from repro.resilience import FaultEvent, FaultSpec
from repro.scenario.processes import build_processes, resident_processes
from repro.toolsuite.client import BenchmarkClient
from repro.xmlkit.stx import Stylesheet, _Rule
from repro.xmlkit.xsd import XsdAttribute, XsdChild, XsdElement, XsdSchema

ENGINES = ("interpreter", "federated", "eai", "etl")

#: Objects described by class plus public fields.
_STRUCTURED = (
    ProcessType, Operator, SwitchCase, Stylesheet, _Rule,
    XsdSchema, XsdElement, XsdChild, XsdAttribute,
)
#: The plan memos, filled at first use: everything else is described.
_MEMOS = {"_plan", "_parsers", "_tables", "_expressions"}


def _fields(value) -> dict:
    """An object's instance fields, from its dict or its slots."""
    if hasattr(value, "__dict__"):
        return vars(value)
    return {name: getattr(value, name) for name in type(value).__slots__}


def structure(value, _open=()):
    """A nested, comparable description of a definition's content."""
    if value is None or isinstance(value, (str, int, float, Decimal, enum.Enum)):
        return repr(value)
    if isinstance(value, Expression):
        return repr(value)
    if isinstance(value, Mapping):
        return {repr(k): structure(v, _open) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [structure(item, _open) for item in value]
        return sorted(map(repr, items)) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, _STRUCTURED):
        if id(value) in _open:
            return f"<cycle {type(value).__qualname__}>"
        fields = {
            name: structure(field, (*_open, id(value)))
            for name, field in sorted(_fields(value).items())
            if name not in _MEMOS
        }
        return (type(value).__qualname__, fields)
    if callable(value):
        cells = [
            structure(cell.cell_contents, _open)
            for cell in getattr(value, "__closure__", None) or ()
        ]
        return (getattr(value, "__qualname__", type(value).__qualname__), cells)
    raise AssertionError(f"a definition holds a {type(value).__qualname__}")


def fingerprint(processes):
    return {pid: structure(process) for pid, process in processes.items()}


class TestExecutionNeverEditsADefinition:
    def test_structure_is_the_fresh_builds(self):
        assert fingerprint(resident_processes()) == fingerprint(build_processes())

    def test_a_period_on_every_engine_leaves_the_set_unchanged(self):
        before = fingerprint(resident_processes())
        roots = {pid: p.root for pid, p in resident_processes().items()}
        faults = FaultSpec(
            name="faulted",
            events=(
                FaultEvent(at=0.0, kind="engine_fault", process="P04"),
                FaultEvent(at=30.0, kind="crash", point="commit"),
            ),
        )
        specs = [
            RunSpec(engine=engine, datasize=0.02, periods=1, seed=5)
            for engine in ENGINES
        ]
        specs.append(RunSpec(
            engine="federated", datasize=0.02, periods=1, seed=6,
            faults=faults, durability="snapshot+wal",
        ))
        specs.append(RunSpec(
            engine="interpreter", datasize=0.02, periods=1, seed=6,
            collect_metrics=True, collect_trace=True,
        ))
        for spec in specs:
            outcome = run_spec(spec)
            assert outcome.ok, outcome.error
            assert outcome.result.total_instances > 0

        assert fingerprint(resident_processes()) == before
        assert fingerprint(resident_processes()) == fingerprint(build_processes())
        assert {pid: p.root for pid, p in resident_processes().items()} == roots

    def test_the_runs_did_fill_the_memo_slots(self):
        """The fingerprint passing must not mean nothing was bound."""
        run_spec(RunSpec(engine="interpreter", datasize=0.02, periods=1))
        operators = [
            op for p in resident_processes().values() for op in p.operators()
        ]
        assert any(
            isinstance(op, Projection) and op._plan is not None for op in operators
        )
        assert any(
            isinstance(op, Convert) and op._parsers is not None for op in operators
        )
        assert any(
            isinstance(op, Translation) and op.stylesheet._plan.children
            for op in operators
        )
        assert all(p._expressions is not None for p in resident_processes().values())


class TestFreshTreesStayFresh:
    def test_build_processes_hands_out_new_trees_every_time(self):
        first, second = build_processes(), build_processes()
        resident = resident_processes()
        for pid in first:
            assert first[pid] is not second[pid]
            assert first[pid] is not resident[pid]
            assert first[pid].root is not resident[pid].root


def _first(kind, holds=lambda op: True):
    """The first operator of ``kind`` in a fresh build that ``holds``."""
    return next(
        op for process in build_processes().values()
        for op in process.operators() if isinstance(op, kind) and holds(op)
    )


#: One edit of every read-only field; each must raise, not be absorbed.
EDITS = {
    "Projection.mapping item": lambda: setitem(_first(Projection).mapping, "k", "v"),
    "Projection.mapping": lambda: setattr(_first(Projection), "mapping", {}),
    "Convert.types item": lambda: delitem(
        _first(Convert, lambda op: op.types).types, "custkey"
    ),
    "Convert.types": lambda: setattr(_first(Convert), "types", {}),
    "ValidateRows.checks item": lambda: delitem(
        _first(ValidateRows).checks, next(iter(_first(ValidateRows).checks))
    ),
    "ValidateRows.checks": lambda: setattr(_first(ValidateRows), "checks", {}),
    "Stylesheet.rules item": lambda: setitem(
        _first(Translation).stylesheet._rules, 0, None
    ),
    "Stylesheet.rules": lambda: setattr(_first(Translation).stylesheet, "rules", []),
    "XsdElement field": lambda: setattr(_first(Validate).schema.root, "name", "x"),
    "XsdSchema.root": lambda: setattr(
        _first(Validate).schema, "root", XsdElement("x")
    ),
    "ProcessType.root": lambda: setattr(
        build_processes()["P05"], "root", build_processes()["P06"].root
    ),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_each_read_only_field_refuses_an_edit(edit):
    with pytest.raises((AttributeError, TypeError)):
        edit()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_deploy_validates_every_definition_and_compiles_every_expression(
    engine, monkeypatch
):
    """Residency skips neither: 19 validations and the same compile
    counts at a first, a second and a post-crash deploy."""
    from repro.db import fastpath
    from repro.engine import base

    validated = []
    check = base.assert_valid_definition

    def recording_check(process, *rest):
        validated.append(process.process_id)
        return check(process, *rest)

    monkeypatch.setattr(base, "assert_valid_definition", recording_check)
    deltas = []
    client = None
    for step in range(3):
        if step < 2:
            client = BenchmarkClient.from_spec(
                RunSpec(engine=engine, datasize=0.02, periods=1)
            )
        else:
            client.engine.crash()
        validated.clear()
        before = fastpath.STATS.copy()
        client._phase_pre()
        delta = fastpath.STATS - before
        deltas.append(delta.expr_compiled)
        assert sorted(validated) == sorted(resident_processes())
        assert len(validated) == 19
    assert deltas[0] == deltas[1] == deltas[2]
    assert deltas[0] > 0
