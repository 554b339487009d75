"""Crash recovery: kill the engine mid-period, redo from snapshot+WAL.

Runs the benchmark twice at the same seed: once fault-free, once with a
hard engine crash at t=300 in period 0 and durability enabled
(``snapshot+wal``, checkpoint every 50 tu).  The crash wipes the
engine's volatile state — in-flight instance, worker heaps, instance
records, and (on the federated engine) the whole in-memory federation
catalog.  Recovery restores the latest checkpoint, replays the
committed WAL tail and resumes the schedule; because the recovery-time
model stays out of the virtual-time schedule, the recovered run
converges *byte-identically*: same final landscape digest, same
per-instance records, same NAVG+ table.

Run with::

    python examples/crash_recovery.py
"""

import os
from dataclasses import replace

from repro.parallel import RunSpec, client_from_spec
from repro.resilience import FaultSpec
from repro.storage import landscape_digest

SPEC_PATH = os.path.join(os.path.dirname(__file__), "faults_crash.json")


def execute(faults: FaultSpec | None):
    spec = RunSpec(datasize=0.05, periods=1, seed=42)
    if faults is not None:
        spec = replace(
            spec, faults=faults, durability="snapshot+wal",
            checkpoint_every=50.0,
        )
    client = client_from_spec(spec)
    result = client.run()
    return client, result, landscape_digest(
        client.scenario.all_databases.values()
    )


def main() -> None:
    # 1. The fault-free baseline.
    _, base, base_digest = execute(faults=None)
    print(f"baseline: {base.total_instances} instances, "
          f"verification {'OK' if base.verification.ok else 'FAILED'}")

    # 2. The crash run: same seed, durability on, one mid-period kill.
    spec = FaultSpec.load(SPEC_PATH)
    print(spec.describe())
    print()
    client, crashed, digest = execute(faults=spec)
    print(f"crash run: {crashed.total_instances} instances, "
          f"{crashed.recoveries} recovery")
    for report in crashed.recovery_reports:
        print(f"  {report.describe()}")
    print(f"  {client.monitor.recovery_summary().describe()}")
    stats = client.storage.stats()
    print(f"  wal: {stats['wal_records']} records in {stats['commits']} "
          f"commits ({stats['flushes']} group-commit flushes), "
          f"{stats['checkpoints']} checkpoints")
    print()

    # 3. Byte-identical convergence — the storage subsystem's contract.
    print(f"records byte-identical: {crashed.records == base.records}")
    print(f"landscape digest equal: {digest == base_digest}")


if __name__ == "__main__":
    main()
