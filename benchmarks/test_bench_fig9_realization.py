"""Fig. 9 — the event-type realization concepts of the reference
implementation.

(a) message streams: ``INSERT INTO P0x_Queue VALUES (@msg)`` into a
``TID BIGINT PRIMARY KEY, MSG CLOB`` table whose AFTER INSERT trigger
runs the integration logic; (b) time events: ``EXECUTE P0x`` stored
procedures.  This bench deploys the full process mix on the federated
engine and dumps the resulting catalog — the queue tables, triggers and
procedures Fig. 9 sketches — then times deployment and one queued
message round-trip.
"""

from repro.engine import FederatedEngine, ProcessEvent
from repro.scenario import build_processes, build_scenario
from repro.scenario.messages import MessageFactory
from repro.toolsuite import Initializer

from benchmarks.conftest import write_artifact


def render_catalog(engine: FederatedEngine) -> str:
    db = engine.internal_db
    lines = ["Fig. 9 - federated realization catalog", "=" * 40,
             "(a) message-stream types: queue table + AFTER INSERT trigger"]
    for table_name in db.table_names:
        schema = db.table(table_name).schema
        columns = ", ".join(
            f"{c.name} {c.sql_type}{'' if c.nullable else ' PRIMARY KEY'}"
            for c in schema.columns
        )
        lines.append(f"  <<TABLE>> {table_name} ({columns})")
    for trigger_name in sorted(engine.internal_db._triggers):
        trigger = db._triggers[trigger_name]
        lines.append(
            f"  <<TRIGGER for INSERT>> {trigger_name} ON {trigger.table}"
        )
    lines.append("(b) time-event types: stored procedures")
    for proc_name in sorted(engine.internal_db._procedures):
        proc = engine.internal_db._procedures[proc_name]
        lines.append(f"  <<PROCEDURE>> {proc_name} -- {proc.description}")
    return "\n".join(lines)


def test_fig9_realization_catalog(benchmark):
    scenario = build_scenario()
    engine = FederatedEngine(scenario.registry)
    engine.deploy_all(build_processes().values())
    catalog = render_catalog(engine)
    write_artifact("fig9_realization_catalog.txt", catalog)
    print("\n" + catalog)

    # One queue table + trigger per E1 type; procedures for the rest.
    e1_types = ("P01", "P02", "P04", "P08", "P10")
    for pid in e1_types:
        assert engine.internal_db.has_table(f"{pid}_Queue")
    e2_types = ("P03", "P05", "P06", "P07", "P09", "P11", "P12", "P13",
                "P14", "P15")
    for pid in e2_types:
        assert pid in engine.internal_db._procedures

    def deploy():
        sc = build_scenario()
        eng = FederatedEngine(sc.registry)
        eng.deploy_all(build_processes().values())
        return len(eng.internal_db.table_names)

    queue_tables = benchmark(deploy)
    assert queue_tables == len(e1_types)


def test_fig9_queued_message_round_trip(benchmark):
    """The physical CLOB round-trip of one Fig. 9a message delivery."""
    scenario = build_scenario()
    engine = FederatedEngine(scenario.registry)
    engine.deploy_all(build_processes().values())
    initializer = Initializer(scenario, d=0.05)
    population = initializer.initialize_sources(0)
    factory = MessageFactory(population, seed=1, error_rate=0.0)

    deadlines = iter(range(0, 10_000_000, 1000))

    def one_message():
        record = engine.handle_event(
            ProcessEvent("P08", float(next(deadlines)),
                         message=factory.hongkong_order(), stream="B")
        )
        assert record.status == "ok"
        return record.costs.total

    cost = benchmark(one_message)
    assert cost > 0
    assert engine.queue_depth("P08") > 0