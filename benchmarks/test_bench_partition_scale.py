"""Disk-backed partition tier: scale-past-memory benchmark.

Runs the classic benchmark at d in {0.05, 0.1} under three memory
budgets — unbounded, 1/4 of the measured working set, 1/16 of it — and
merges the evidence into ``BENCH_partition.json``:

* the budgeted runs *complete* and their fingerprints are byte-equal to
  the unbudgeted run (the spill tier is physical, never logical);
* peak table-resident rows stay bounded by ``budget + partition_rows``
  (one partition of slack for the pinned working partition);
* wall-clock per budget, so the paid I/O premium is inspectable next to
  the peak table-resident rows the budget bounds (no ``ru_maxrss``: a
  process-wide high-water mark would carry the peak of whatever ran
  earlier in the same pytest process, not this budget's);
* the unbudgeted run stores tables as plain lists — zero partition
  overhead when no budget is set;
* at d=0.05 the fault counts — deterministic per seed, unlike the wall
  clock — stay under :data:`COUNT_CEILINGS`, so an eviction order or a
  join rung that starts thrashing again fails here (the CI
  ``spill-smoke`` job runs this file for exactly that).

Each configuration also lands one row in ``results/LEDGER.jsonl`` via
:func:`benchmarks.conftest.ledger_append`.
"""

import json
import time
from dataclasses import replace

from benchmarks.conftest import ledger_append, write_artifact

from repro.parallel.spec import RunOutcome, RunSpec
from repro.toolsuite.client import BenchmarkClient

ARTIFACT = "BENCH_partition.json"
DATASIZES = (0.05, 0.1)

#: d=0.05, seed 7, per budget divisor, under plain LRU with a grace
#: join on either spilled side (6 of them at ws/4) — the ledger row's
#: ``before`` column.
COUNTS_BEFORE = {
    4: {"reloads": 107, "spills": 42, "wall_overhead": 1.81},
    16: {"reloads": 556, "spills": 188, "wall_overhead": 2.92},
}
#: What the same runs may count now (they read 26 / 8 and 394 / 118).
COUNT_CEILINGS = {
    4: {"reloads": 40, "spills": 15, "grace_joins": 0},
    16: {"reloads": 480, "spills": 150},
}

RESULTS: dict = {"config": {"datasizes": list(DATASIZES), "periods": 1, "seed": 7}}


def flush_results() -> None:
    write_artifact(ARTIFACT, json.dumps(RESULTS, indent=2, sort_keys=True))


def run_point(spec: RunSpec):
    """One full run, returning (fingerprint, measurements, client)."""
    client = BenchmarkClient.from_spec(spec)
    started = time.perf_counter()
    result = client.run()
    wall = time.perf_counter() - started
    from repro.storage import landscape_digest

    outcome = RunOutcome(
        spec=spec,
        result=result,
        landscape_digest=landscape_digest(
            client.scenario.all_databases.values()
        ),
    )
    budgets = {
        id(db.memory_budget): db.memory_budget
        for db in client.scenario.all_databases.values()
        if db.memory_budget is not None
    }
    measurements = {
        "wall_seconds": round(wall, 3),
        "peak_resident_rows": max(
            (b.peak_resident_rows for b in budgets.values()), default=0
        ),
        "databases_budgeted": len(budgets),
    }
    return outcome.fingerprint(), measurements, client


def working_set_rows(client) -> int:
    """Total end-of-run table rows across the landscape."""
    return sum(
        len(table)
        for db in client.scenario.all_databases.values()
        for table in db._tables.values()
    )


def test_partition_scale_past_memory():
    from repro.db import partition

    for datasize in DATASIZES:
        spec = RunSpec(datasize=datasize, periods=1, seed=7)
        baseline_fp, baseline_meas, baseline_client = run_point(spec)

        # No budget set: storage must stay plain lists (zero overhead).
        for db in baseline_client.scenario.all_databases.values():
            assert db.memory_budget is None
            for table in db._tables.values():
                assert table.partition_store is None
                assert isinstance(table._rows, list)

        working_set = working_set_rows(baseline_client)
        point = {
            "working_set_rows": working_set,
            "unbudgeted": {**baseline_meas, "fingerprint": baseline_fp},
        }

        for divisor in (4, 16):
            budget = max(1, working_set // divisor)
            base = partition.STATS.copy()
            fp, meas, client = run_point(replace(spec, mem_budget=budget))
            delta = partition.STATS - base

            assert fp == baseline_fp, (
                f"d={datasize} budget=ws/{divisor}: fingerprint diverged"
            )
            assert delta.spills > 0, "the budget never forced a spill"
            if datasize == 0.05:
                for counter, ceiling in COUNT_CEILINGS[divisor].items():
                    assert getattr(delta, counter) <= ceiling, (
                        f"ws/{divisor}: {counter} "
                        f"{getattr(delta, counter)} > {ceiling}"
                    )
            for db in client.scenario.all_databases.values():
                b = db.memory_budget
                assert b is not None
                assert b.peak_resident_rows <= b.limit_rows + b.partition_rows

            meas.update(
                {
                    "budget_rows": budget,
                    "fingerprint_match": fp == baseline_fp,
                    "spills": delta.spills,
                    "evictions": delta.evictions,
                    "reloads": delta.reloads,
                    "segment_reuses": delta.segment_reuses,
                    "grace_joins": delta.grace_joins,
                    "wall_overhead": round(
                        meas["wall_seconds"]
                        / max(baseline_meas["wall_seconds"], 1e-9),
                        2,
                    ),
                }
            )
            point[f"budget_ws_over_{divisor}"] = meas
            ledger_append(
                f"partition_scale:d={datasize}:ws/{divisor}",
                {
                    "fingerprint_match": True,
                    "budget_rows": budget,
                    "peak_resident_rows": meas["peak_resident_rows"],
                    "spills": delta.spills,
                    "wall_seconds": meas["wall_seconds"],
                },
            )

        RESULTS[f"d={datasize}"] = point
        flush_results()

    at_005 = RESULTS["d=0.05"]
    ledger_append(
        "partition:stream_probe+scan_resistant",
        {
            "config": "interpreter d=0.05 seed 7, one period",
            **{
                f"ws/{divisor}": {
                    counter: {
                        "before": before,
                        "after": at_005[f"budget_ws_over_{divisor}"][counter],
                    }
                    for counter, before in COUNTS_BEFORE[divisor].items()
                }
                for divisor in COUNTS_BEFORE
            },
            "src_loc": {"before": 28807, "after": 28924},
        },
    )
    print("\n" + json.dumps(RESULTS, indent=2, sort_keys=True))
