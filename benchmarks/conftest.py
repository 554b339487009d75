"""Shared harness for the per-table / per-figure benchmarks.

Full benchmark runs are expensive, so they are computed once per
configuration and cached for the whole pytest session; the ``benchmark``
fixture then measures a representative unit (usually one period) with a
single round.  Every bench also *prints* the rows/series the paper
reports and writes them to ``benchmarks/results/`` so the regenerated
tables and figures are inspectable after the run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.engine.base import InstanceHistory
from repro.parallel import RunSpec, client_from_spec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One committed line per benchmark outcome, merged by key so re-runs
#: update rows in place instead of growing the file without bound.
LEDGER_PATH = RESULTS_DIR / "LEDGER.jsonl"


def ledger_append(key: str, summary: dict) -> pathlib.Path:
    """Merge one ``{"key": key, **summary}`` row into the ledger.

    The ledger is JSONL with exactly one row per key: an existing row
    with the same key is replaced in place (file order is preserved),
    a new key is appended.  Idempotent — re-running a benchmark never
    duplicates its row.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    entries: dict[str, dict] = {}
    order: list[str] = []
    if LEDGER_PATH.exists():
        for line in LEDGER_PATH.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            existing_key = row.get("key", "")
            if existing_key not in entries:
                order.append(existing_key)
            entries[existing_key] = row
    if key not in entries:
        order.append(key)
    entries[key] = {"key": key, **summary}
    LEDGER_PATH.write_text(
        "".join(json.dumps(entries[k], sort_keys=True) + "\n" for k in order),
        encoding="utf-8",
    )
    return LEDGER_PATH


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Record every benchmark test's call-phase outcome in the ledger."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        ledger_append(
            item.nodeid,
            {"outcome": report.outcome, "seconds": round(report.duration, 3)},
        )

#: RunSpec -> (BenchmarkResult, client, scenario)
_RUN_CACHE: dict = {}


def run_cached(
    engine: str = "interpreter",
    datasize: float = 0.05,
    time: float = 1.0,
    distribution: int = 0,
    periods: int = 5,
    jitter: float = 0.2,
):
    """Run (or fetch) one full benchmark at the given configuration."""
    spec = RunSpec(
        engine=engine, datasize=datasize, time=time,
        distribution=distribution, periods=periods, seed=5, jitter=jitter,
    )
    if spec not in _RUN_CACHE:
        client = client_from_spec(spec)
        result = client.run()
        assert result.verification.ok, result.verification.summary()
        _RUN_CACHE[spec] = (result, client, client.scenario)
    return _RUN_CACHE[spec]


def src_lines() -> int:
    """Lines of ``src/repro/**/*.py`` — the ledger's ``src_loc`` figure."""
    src = pathlib.Path(__file__).parent.parent / "src" / "repro"
    return sum(
        len(path.read_text("utf-8").splitlines()) for path in src.rglob("*.py")
    )


def write_artifact(name: str, content: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content, encoding="utf-8")
    return path


def one_period_runner(engine: str = "interpreter",
                      datasize: float = 0.05,
                      time: float = 1.0):
    """A callable executing exactly one fresh period (the timed unit)."""
    client = client_from_spec(RunSpec(
        engine=engine, datasize=datasize, time=time, periods=1, seed=5,
    ))

    def run_one_period():
        client.engine.records = InstanceHistory()
        client.monitor.records = InstanceHistory()
        client.run_period(0)
        return len(client.engine.records)

    return run_one_period


@pytest.fixture(scope="session")
def reference_run():
    """The paper's reference configuration: d=0.05, t=1.0, uniform."""
    return run_cached(datasize=0.05)


@pytest.fixture(scope="session")
def larger_run():
    """The paper's second experiment: d=0.1."""
    return run_cached(datasize=0.1)
