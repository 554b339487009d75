"""Bench — parallel sweep executor scaling and determinism cost.

Sweeps the same (d, seed) grid serially and across worker processes and
reports the wall-clock ratio.  The determinism contract is asserted on
every row: whatever the worker count, the merged sweep result is
byte-identical (per-point fingerprints, landscape digests, NAVG+
tables) to the serial baseline.

The speedup assertion is calibrated to the machine: on a single-core
runner the parallel sweep cannot beat serial (fork + pickling overhead
only), so the bench asserts bounded overhead there and real speedup
only where the cores exist to provide it.
"""

from __future__ import annotations

import os
import time

from repro.parallel import SweepExecutor, expand_grid

from benchmarks.conftest import write_artifact

#: Heavy enough that one grid point dominates fork + pickling overhead.
GRID = expand_grid(
    engines=["interpreter"],
    datasizes=[0.05, 0.1],
    seeds=[5, 6],
)


def timed_sweep(workers: int):
    started = time.perf_counter()
    result = SweepExecutor(workers=workers).run(GRID)
    elapsed = time.perf_counter() - started
    assert result.ok, [o.error for o in result.failed]
    return result, elapsed


def test_bench_sweep_scaling(benchmark):
    cores = os.cpu_count() or 1
    serial, serial_s = timed_sweep(workers=1)

    rows = [
        f"Sweep scaling: {len(GRID)} grid points on {cores} core(s)",
        f"{'workers':>8}{'wall [s]':>12}{'speedup':>10}  identical",
        "-" * 42,
        f"{1:>8}{serial_s:>12.3f}{1.0:>10.2f}  baseline",
    ]
    speedups = {}
    for workers in (2, 4):
        parallel, parallel_s = timed_sweep(workers=workers)
        identical = parallel.fingerprint() == serial.fingerprint()
        speedup = serial_s / parallel_s if parallel_s else float("inf")
        speedups[workers] = speedup
        rows.append(
            f"{workers:>8}{parallel_s:>12.3f}{speedup:>10.2f}  "
            f"{'yes' if identical else 'NO'}"
        )
        # The contract, regardless of machine size: byte-identity.
        assert identical, f"workers={workers} diverged from serial"

    table = "\n".join(rows)
    write_artifact("bench_sweep_scaling.txt", table)
    print("\n" + table)

    # Calibrated throughput expectation: with real cores the pool must
    # pay off; on a starved runner it must at least stay within 2x of
    # serial (fork + result pickling are the only overheads).
    best = max(speedups.values())
    if cores >= 4:
        assert best > 1.3, f"no speedup on {cores} cores: {speedups}"
    elif cores >= 2:
        assert best > 0.9, f"parallel regressed on {cores} cores: {speedups}"
    else:
        assert best > 0.5, f"overhead too high on 1 core: {speedups}"

    benchmark.pedantic(
        lambda: SweepExecutor(workers=2).run(GRID[:2]), rounds=2, iterations=1
    )
