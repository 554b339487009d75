"""A run's memory budget has one source: ``RunSpec.mem_budget``.

``client_from_spec`` is the one place it is applied — to every
landscape database and to the engine's own catalog — and nothing else
budgets a database: no environment variable, no engine argument.
"""

import pytest

from repro.engine import ENGINES
from repro.parallel.spec import RunSpec, client_from_spec

WORKLOADS = {"classic": "", "synth": "sources=2,depth=1"}


def _databases(client):
    return [
        *client.scenario.all_databases.values(),
        *client.engine.durable_databases(),
    ]


@pytest.mark.parametrize("synth", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_run_database_gets_the_spec_budget(engine, synth):
    client = client_from_spec(RunSpec(
        engine=engine, datasize=0.02, periods=1, seed=5,
        synth=WORKLOADS[synth], mem_budget=500,
    ))
    databases = _databases(client)
    assert databases
    assert all(db.memory_budget.limit_rows == 500 for db in databases)


@pytest.mark.parametrize("synth", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_no_database_is_budgeted_without_a_spec_budget(
    engine, synth, monkeypatch
):
    # No environment variable budgets a database.
    monkeypatch.setenv("REPRO_MEM_BUDGET", "64")
    client = client_from_spec(RunSpec(
        engine=engine, datasize=0.02, periods=1, seed=5,
        synth=WORKLOADS[synth],
    ))
    assert all(db.memory_budget is None for db in _databases(client))

