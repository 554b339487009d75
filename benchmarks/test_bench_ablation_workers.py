"""Ablation — worker-pool sizing of the system under test.

The paper's performance effects of the time scale factor flow through
queueing at the integration system; this ablation varies the engine's
worker count at a compressed schedule (t=4) and shows where added
parallelism stops paying — the sizing question every integration-system
operator faces.
"""

from repro.parallel import RunSpec, client_from_spec

from benchmarks.conftest import write_artifact


def run_with_workers(workers: int):
    client = client_from_spec(RunSpec(
        datasize=0.05, time=4.0,  # compressed schedule
        periods=2, seed=5, engine_workers=workers,
    ))
    result = client.run(verify=False)
    assert result.error_instances == 0
    records = [r for r in result.records if r.process_id == "P04"]
    mean_wait = sum(r.wait for r in records) / len(records)
    mean_navg = result.metrics["P04"].navg
    return mean_wait, mean_navg


def test_ablation_worker_scaling(benchmark):
    rows = ["Worker ablation: P04 under a 4x-compressed schedule",
            f"{'workers':>8}{'mean wait':>12}{'NAVG [tu]':>12}",
            "-" * 32]
    waits = {}
    for workers in (1, 2, 4, 8):
        wait, navg = run_with_workers(workers)
        waits[workers] = wait
        rows.append(f"{workers:>8}{wait:>12.2f}{navg:>12.2f}")
    table = "\n".join(rows)
    write_artifact("ablation_workers.txt", table)
    print("\n" + table)

    # More workers strictly reduce queueing delay ...
    assert waits[1] > waits[2] > 0
    assert waits[4] >= waits[8]
    # ... with diminishing returns at the tail.
    assert (waits[1] - waits[2]) > (waits[4] - waits[8])

    benchmark.pedantic(lambda: run_with_workers(4), rounds=2, iterations=1)
