"""Degraded run: the benchmark under deterministic fault injection.

Loads the canned fault spec (``examples/faults_basic.json``) — a network
partition, a link degradation, an endpoint outage, transient engine
faults and one poison message, all pinned to period 0 — and runs two
benchmark periods with retry/backoff, circuit breakers and a dead-letter
queue enabled. Period 0 degrades and recovers; period 1 is clean, so
phase-post verification passes.

Run with::

    python examples/degraded_run.py
"""

import os

from repro.parallel import RunSpec, client_from_spec
from repro.resilience import FaultSpec

SPEC_PATH = os.path.join(os.path.dirname(__file__), "faults_basic.json")


def main() -> None:
    # 1. The fault schedule: seeded, virtual-time, reproducible.
    spec = FaultSpec.load(SPEC_PATH)
    print(spec.describe())
    print()

    # 2. A normal benchmark run, plus the fault spec and a retry budget.
    client = client_from_spec(RunSpec(
        datasize=0.05, time=1.0, distribution=0, periods=2, seed=42,
        faults=spec, max_attempts=4,
    ))
    result = client.run()

    # 3. What survived, what retried, what was quarantined.
    print(client.monitor.resilience_summary().describe())
    print()
    for letter in result.dead_letters:
        print(
            f"dead letter: {letter.process_id} period={letter.period} "
            f"t={letter.time:.1f} attempts={letter.attempts} {letter.error}"
        )

    # 4. Verification still passes: the final period ran on a healed
    #    landscape, and quarantined poison is the designed outcome.
    print()
    print(result.verification.summary())


if __name__ == "__main__":
    main()
