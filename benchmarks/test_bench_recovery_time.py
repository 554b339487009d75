"""Extension bench — recovery time vs checkpoint cadence.

The storage subsystem models recovery cost as snapshot reload plus WAL
redo.  This bench crashes the engine at the same virtual instant under
different checkpoint cadences and reports the trade-off curve: frequent
checkpoints shorten the redo tail (fast recovery, many checkpoints);
the pure ``wal`` mode pays the whole period's tail.  Every configuration
must still converge byte-identically to the fault-free baseline.

It also holds the run-length gate: what durability keeps per checkpoint
and per commit does not grow with the number of periods run or of
commits made (counted, not timed).
"""

import gc
import tracemalloc
from dataclasses import replace
from unittest import mock

from repro.parallel.spec import RunSpec, client_from_spec
from repro.resilience import FaultEvent, FaultSpec
from repro.storage import StorageManager, landscape_digest
from repro.toolsuite import BenchmarkClient

from benchmarks.conftest import RESULTS_DIR, ledger_append, write_artifact

CRASH_AT = 300.0


def crash_spec():
    return FaultSpec(
        name="bench-crash", seed=7,
        events=(FaultEvent(at=CRASH_AT, kind="crash", point="commit",
                           period=0),),
    )


def run_once(durability=None, checkpoint_every=None):
    spec = RunSpec(datasize=0.05, periods=1, seed=42)
    if durability is not None:
        spec = replace(
            spec, durability=durability, checkpoint_every=checkpoint_every,
            faults=crash_spec(),
        )
    client = client_from_spec(spec)
    result = client.run()
    return client, result, landscape_digest(
        client.scenario.all_databases.values()
    )


def shared_rows_ledger_row(curve_unchanged):
    """``storage:shared_rows+wal_runs``: what a period's durability copies.

    One ``snapshot+wal``/50 crash run with every checkpoint and every
    journaled change inspected as it is taken.  *before* is what the
    deep-copy checkpoint and the copying WAL made of the same run (one
    ``dict()`` per captured row, per checkpoint, and one per row
    payload); *after* counts the row dicts that are not the stored
    objects themselves.
    """
    tally = {"checkpoints": 0, "rows": 0, "row_copies": 0,
             "payload_rows": 0, "payload_copies": 0}
    take_checkpoint = StorageManager.take_checkpoint
    sink = StorageManager._sink

    def counted_checkpoint(storage, engine, at):
        checkpoint = take_checkpoint(storage, engine, at)
        tally["checkpoints"] += 1
        for name, snapshot in checkpoint.databases.items():
            for table_name, snap in snapshot.tables.items():
                live = storage.databases[name].table(table_name)
                tally["rows"] += len(snap.rows)
                tally["row_copies"] += sum(
                    held is not stored for held, stored in zip(snap.rows, live)
                )
        return checkpoint

    def counted_sink(storage, db_name):
        listener = sink(storage, db_name)
        wal = storage.wals[db_name]

        def counting(target, op, payload):
            listener(target, op, payload)
            if storage.recording and payload and isinstance(payload[-1], dict):
                tally["payload_rows"] += 1
                tally["payload_copies"] += wal._open[-1][2][-1] is not payload[-1]

        return counting

    with mock.patch.object(StorageManager, "take_checkpoint", counted_checkpoint), \
            mock.patch.object(StorageManager, "_sink", counted_sink):
        client, _, _ = run_once("snapshot+wal", 50.0)
    assert tally["row_copies"] == 0 and tally["payload_copies"] == 0, tally
    ledger_append(
        "storage:shared_rows+wal_runs",
        {
            "config": "interpreter d=0.05 seed 42, snapshot+wal every 50 tu, "
                      f"commit-point crash at t={CRASH_AT}",
            "checkpoints": tally["checkpoints"],
            "wal_records": client.storage.wal_records_total,
            "checkpoint_row_copies": {
                "before": tally["rows"], "after": tally["row_copies"]
            },
            "wal_payload_row_copies": {
                "before": tally["payload_rows"], "after": tally["payload_copies"]
            },
            # ``git diff --numstat -- src/`` of the change, added - deleted.
            "src_net_lines": 2,
            "modeled_curve_unchanged": curve_unchanged,
        },
    )


def test_recovery_time_vs_checkpoint_cadence(benchmark):
    _, base, base_digest = run_once()

    configurations = [("wal", None), ("snapshot+wal", 200.0),
                      ("snapshot+wal", 100.0), ("snapshot+wal", 50.0),
                      ("snapshot+wal", 25.0)]
    rows = [
        f"Recovery time vs checkpoint cadence (crash at t={CRASH_AT}, "
        "interpreter, d=0.05, seed 42)",
        f"{'mode':<14}{'every':>7}{'ckpts':>7}{'redo':>7}"
        f"{'snap rows':>11}{'recovery tu':>13}{'identical':>11}",
        "-" * 70,
    ]
    curve = []
    for mode, every in configurations:
        client, crashed, digest = run_once(mode, every)
        (report,) = crashed.recovery_reports
        identical = (crashed.records == base.records
                     and digest == base_digest)
        curve.append((mode, every, report))
        rows.append(
            f"{mode:<14}{every if every is not None else '-':>7}"
            f"{client.storage.checkpoints:>7}{report.redo_records:>7}"
            f"{report.snapshot_rows:>11}{report.modeled_cost:>13.2f}"
            f"{'yes' if identical else 'NO':>11}"
        )
        assert identical, f"{mode}/{every} diverged from the baseline"

    table = "\n".join(rows)
    committed = RESULTS_DIR / "recovery_time_vs_cadence.txt"
    curve_unchanged = (
        committed.exists() and committed.read_text(encoding="utf-8") == table
    )
    write_artifact("recovery_time_vs_cadence.txt", table)
    shared_rows_ledger_row(curve_unchanged)
    print("\n" + table)

    # The trade-off must actually materialize: the pure-WAL tail redoes
    # at least as much as every snapshot+wal cadence, and tightening the
    # cadence must never lengthen the redo tail.
    redo_by_cadence = [r.redo_records for _, _, r in curve]
    assert redo_by_cadence[0] == max(redo_by_cadence)
    snapshot_cadences = [(e, r.redo_records) for m, e, r in curve
                         if m == "snapshot+wal"]
    for (wide, redo_wide), (tight, redo_tight) in zip(
        snapshot_cadences, snapshot_cadences[1:]
    ):
        assert redo_tight <= redo_wide, (wide, tight)

    # The timed unit: one full recovery cycle (capture is in run_once).
    benchmark(lambda: run_once("snapshot+wal", 50.0)[1].recoveries)


#: The two period-baseline checkpoints the run-length gate compares.
EARLY_PERIOD, LATE_PERIOD = 2, 30
#: What a baseline checkpoint may retain beyond the early one's.
RETAINED_SLACK_BYTES = 1024
#: The same gate on the code that copied the record history at every
#: checkpoint and kept a capture per commit (commit 0a09caf, CPython
#: 3.11): bytes retained at periods 2 / 30, and GC-tracked objects
#: the commit log held at its smallest / largest size (1 / 17 commits)
#: in period 1.
COPYING_CHECKPOINTS = {
    "retained_bytes": {"early": 32696, "late": 70776},
    "held_by_commits": {"smallest": 106, "largest": 545},
}


def _reachable(roots) -> dict[int, object]:
    """GC-tracked objects reachable from ``roots``, not through a class."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj) or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def test_durability_cost_does_not_grow_with_the_run():
    """Run-length gate, clock-free: on a ``snapshot+wal`` d=0.05 run with
    one commit-point crash a period, the period-baseline checkpoint at
    period 30 retains no more memory than the one at period 2 (+1 KiB),
    and the commit log holds no GC-tracked object beyond its commit
    shells and the instance records they carry (the engine keeps those
    records as untracked rows), however many commits it has.  The first
    breaks when a checkpoint copies the run's record history, the second
    when a commit keeps its own runtime or counter capture."""
    retained: dict[int, int] = {}
    held: dict[int, int] = {}
    take_checkpoint = StorageManager.take_checkpoint
    commit_instance = StorageManager.commit_instance

    def traced_checkpoint(storage, engine, at):
        if at != 0.0 or storage.period not in (EARLY_PERIOD, LATE_PERIOD):
            return take_checkpoint(storage, engine, at)
        tracemalloc.start()
        try:
            checkpoint = take_checkpoint(storage, engine, at)
            retained[storage.period] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return checkpoint

    def counted_commit(storage, engine, record):
        commit_instance(storage, engine, record)
        if storage.period == 1 and storage.commits:
            shells = {id(storage.commits)} | {
                id(part) for c in storage.commits
                for part in (c, c.record, c.record.costs)
            }
            own = (
                _reachable([storage.commits]).keys()
                - _reachable([engine.records]).keys()
                - shells
            )
            held[len(storage.commits)] = len(own)

    spec = RunSpec(
        engine="interpreter", datasize=0.05, periods=LATE_PERIOD + 1,
        seed=5, jitter=0.0, durability="snapshot+wal", checkpoint_every=50.0,
        faults=FaultSpec(name="gate", events=(
            FaultEvent(at=CRASH_AT, kind="crash", point="commit"),
        )),
    )
    with mock.patch.object(StorageManager, "take_checkpoint", traced_checkpoint), \
            mock.patch.object(StorageManager, "commit_instance", counted_commit):
        client = BenchmarkClient.from_spec(spec)
        client.run(verify=False)
    assert client.storage.recoveries == LATE_PERIOD + 1
    smallest, largest = min(held), max(held)
    assert largest >= 10, held
    ledger_append(
        "storage:checkpoint_watermark",
        {
            "config": "interpreter d=0.05 seed 5, snapshot+wal every 50 tu, "
                      f"commit-point crash at t={CRASH_AT} every period, "
                      f"{LATE_PERIOD + 1} periods",
            "retained_bytes": {
                "early": retained[EARLY_PERIOD], "late": retained[LATE_PERIOD]
            },
            "held_by_commits": {
                "smallest": held[smallest], "largest": held[largest],
                "commits": [smallest, largest],
            },
            "copying_checkpoints": COPYING_CHECKPOINTS,
            "checkpoints": client.storage.checkpoints,
            "instance_records": len(client.engine.records),
        },
    )
    assert (
        retained[LATE_PERIOD] <= retained[EARLY_PERIOD] + RETAINED_SLACK_BYTES
    ), retained
    assert held[largest] == held[smallest], held
