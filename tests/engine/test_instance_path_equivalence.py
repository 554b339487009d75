"""The instance path binds plans and runs one attempt body — and every
record, log and byte of the landscape stays what the seed produced.

The oracle (``tests/oracle/engine.py``) is the instance path as of the
parent commit: one attempt loop in ``handle_event``, every step through
``Operator._run``, ``Relation.project`` re-splitting its mapping,
``Convert`` re-deriving its parsers, a heap of ``ScheduledEvent``
dataclasses.  One period of P01–P15 at d=0.02 and one period of the
bench's synth knob string run on all four engines, bare and with each
attachment ``handle_event`` reads (resilience with one transient fault
and one poison message, storage, observability) and with ``trace=True``
— once on production, once under ``seed_bodies()`` — and must agree on
every instance record field for field (costs by ``float.hex``), every
operator observation, span, metric and trace line, the dead letters, the
number of messages created and the landscape digest.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
from dataclasses import fields
from unittest import mock

import pytest

from repro.db.expressions import compile_expression
from repro.engine import ENGINES
from repro.engine.base import IntegrationEngine
from repro.mtm import message as message_module
from repro.observability.export import export_prometheus, export_spans_jsonl
from repro.parallel.spec import RunSpec
from repro.resilience import FaultEvent, FaultSpec
from repro.storage import landscape_digest
from repro.synth.runner import SynthClient
from repro.toolsuite.client import BenchmarkClient
from tests.oracle import engine as oracle

#: ``bench/workloads.py::SYNTH_KNOBS`` — the workload the gain is claimed on.
SYNTH_KNOBS = (
    "sources=4,depth=6,fan_out=4,mix=relational,update=0.8,"
    "scale=3,rounds=2,msgs=16"
)
CONFIGS = ("bare", "resilience", "storage", "observability", "trace")

CLASSIC_FAULTS = FaultSpec(
    name="one-transient-one-poison",
    events=(
        FaultEvent(at=5.0, kind="engine_fault", process="P04"),
        FaultEvent(at=30.0, kind="corrupt", process="P04"),
    ),
)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def record_key(record) -> tuple:
    """Every field of an InstanceRecord, floats as exact hex."""
    out = []
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "costs":
            value = tuple(_hex(getattr(value, c.name)) for c in fields(value))
        out.append((f.name, _hex(value)))
    return tuple(out)


def _classic_client(engine: str, config: str) -> BenchmarkClient:
    spec = RunSpec(
        engine=engine, datasize=0.02, periods=1, seed=5,
        faults=CLASSIC_FAULTS if config == "resilience" else None,
        durability="snapshot+wal" if config == "storage" else "off",
        collect_metrics=config == "observability",
        collect_trace=config == "observability",
    )
    client = BenchmarkClient.from_spec(spec)
    client._phase_pre()
    return client


def _poison_third(builder):
    """Wrap a synth message builder: its third message carries a value
    ``Convert`` cannot parse — a non-retryable failure."""
    calls = itertools.count(1)

    def build(row):
        message = builder(row)
        if next(calls) == 3:
            message.xml().children[0].children[0].text = "not-a-number"
        return message

    return build


#: One transient engine fault on the first synthesized process id.
SYNTH_FAULTS = FaultSpec(
    name="one-transient",
    events=(FaultEvent(at=0.0, kind="engine_fault", process="SYC0"),),
)


def _synth_client(engine: str, config: str) -> SynthClient:
    spec = RunSpec(
        engine=engine, datasize=0.05, periods=1, seed=5, synth=SYNTH_KNOBS,
        faults=SYNTH_FAULTS if config == "resilience" else None,
        max_attempts=3,
        durability="snapshot+wal" if config == "storage" else "off",
        collect_metrics=config == "observability",
        collect_trace=config == "observability",
    )
    client = SynthClient.from_spec(spec)
    client._phase_pre()
    if config == "resilience":
        assert sorted(client.workload.processes)[0] == "SYC0"
        client.workload.txn_message = _poison_third(client.workload.txn_message)
    return client


def run_once(workload: str, engine: str, config: str) -> dict:
    """One period from a clean slate: message ids from 1, an empty
    expression cache (so compile counts in the operator logs repeat)."""
    compile_expression.cache_clear()
    profiles: list[str] = []
    observe = IntegrationEngine._observe_instance

    def recording_observe(self, record, profile, inbound_cost):
        profiles.append(repr((profile, inbound_cost.hex())))
        return observe(self, record, profile, inbound_cost)

    with mock.patch.object(
        message_module, "_message_counter", itertools.count(1)
    ), mock.patch.object(
        IntegrationEngine, "_observe_instance", recording_observe
    ):
        build = _classic_client if workload == "classic" else _synth_client
        client = build(engine, config)
        if config == "trace":
            client.engine.trace = True
        records = client.run_period(0)
        next_message_id = next(message_module._message_counter)
    res = client.engine.resilience
    obs = client.observability
    return {
        "records": [record_key(r) for r in records],
        "statuses": sorted({r.status for r in records}),
        "retried": sum(r.retries for r in records),
        "digest": landscape_digest(
            [
                *client.scenario.all_databases.values(),
                *client.engine.durable_databases(),
            ]
        ),
        "traces": list(client.engine.traces),
        "profiles": profiles,
        "spans": export_spans_jsonl(obs.tracer) if obs.tracer.enabled else "",
        "metrics": export_prometheus(obs.metrics) if obs.metrics.enabled else "",
        "dead_letters": [repr(d) for d in res.dead_letters.entries] if res else [],
        "next_message_id": next_message_id,
        "transfers": client.scenario.registry.network.transfer_count,
        "calls": client.scenario.registry.calls_made,
    }


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("workload", ("classic", "synth"))
def test_production_equals_the_seed_bodies(workload, engine, config):
    production = run_once(workload, engine, config)
    with oracle.seed_bodies():
        reference = run_once(workload, engine, config)
    for key in reference:
        assert production[key] == reference[key], key
    assert production["records"], "the period executed nothing"
    # Each configuration must have exercised what it is there for.
    if config == "resilience":
        assert production["retried"] >= 1
        assert "dead-letter" in production["statuses"]
        assert production["dead_letters"]
    if config == "observability":
        assert production["profiles"] and production["spans"]
        assert "engine_operators_total" in production["metrics"]
    if config == "trace":
        assert len(production["traces"]) == len(production["records"])


def test_seed_bodies_are_installed_and_removed():
    from repro.db.relation import Relation
    from repro.mtm.blocks import Sequence
    from repro.synth import runner

    before = (
        IntegrationEngine.handle_event, Sequence.execute, Relation.project,
        runner.EventScheduler,
    )
    with oracle.seed_bodies():
        assert IntegrationEngine.handle_event is oracle.handle_event
        assert Sequence.execute is oracle.sequence_execute
        assert Relation.project is oracle.project
        assert runner.EventScheduler is oracle.EventScheduler
    assert before == (
        IntegrationEngine.handle_event, Sequence.execute, Relation.project,
        runner.EventScheduler,
    )


def test_oracle_is_independent_of_the_code_it_checks():
    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not imported & {
        "repro.engine.base.IntegrationEngine",
        "repro.mtm.blocks",
        "repro.mtm.operators.Operator",
        "repro.mtm.operators.Projection",
        "repro.mtm.operators.Convert",
        "repro.mtm.operators.ValidateRows",
        "repro.db.relation.ProjectionPlan",
        "repro.simtime",
        "repro.simtime.scheduler",
        "repro.xmlkit.convert",
    }
    # Nothing bound once: no plan types, no shared attempt body.
    for name in ("ProjectionPlan", "ColumnParsers", "._attempt("):
        assert name not in source
