"""Bench — workload synthesis cost and per-family NAVG+ gradients.

Times the generator itself (spec → schemas, process graphs, plans) and
then sweeps the synthesized workload across DAG depth and noise levels,
reporting per-family NAVG+ — the benchmark's own answer to "what does
one more transform stage cost?" and "what does dirtier data cost?".

What is asserted on every run, regardless of machine speed: exact
verification passes at every grid point, the per-family breakdown
covers every enabled family, and deeper DAGs never get cheaper for the
pipeline family (the stages add work monotonically).
"""

from __future__ import annotations

import json

from repro.parallel import RunSpec, client_from_spec
from repro.synth import SynthSpec, synthesize
from repro.synth.families import family_breakdown

from benchmarks.conftest import write_artifact

DEPTHS = (0, 2, 4)
NOISES = (0.0, 0.3)


def _run_point(depth: int, noise: float) -> dict:
    knobs = SynthSpec(
        sources=2, depth=depth, noise=noise, transform_mix="balanced"
    ).to_string()
    client = client_from_spec(
        RunSpec(synth=knobs, seed=5, distribution=1, periods=2)
    )
    result = client.run()
    assert result.verification.ok, result.verification.summary()
    rows = family_breakdown(result.records, time_scale=1.0)
    return {
        "depth": depth,
        "noise": noise,
        "instances": result.total_instances,
        "errors": result.error_instances,
        "navg_plus": {r.family: round(r.navg_plus_total, 4) for r in rows},
    }


def test_bench_synth(benchmark):
    # The timed unit: one full synthesis (schemas, dialects, matching,
    # process graphs, first-period plan) at the reference knobs.
    spec = SynthSpec(sources=3, depth=2).resolve(5)

    def generate():
        workload = synthesize(spec, f=1)
        workload.plan(0)
        return workload

    workload = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert set(workload.processes) == set(
        synthesize(spec, f=1).processes
    )

    points = [
        _run_point(depth, noise) for depth in DEPTHS for noise in NOISES
    ]

    # Behavioural contracts of the gradient.
    families = set(points[0]["navg_plus"])
    assert families == {"pipeline", "cdc", "scd", "dirty"}
    for noise in NOISES:
        series = [
            p["navg_plus"]["pipeline"]
            for p in points
            if p["noise"] == noise
        ]
        assert series == sorted(series), (
            f"pipeline NAVG+ must grow with DAG depth: {series}"
        )

    lines = [
        "Synth workload bench: per-family NAVG+ across DAG depth x noise",
        f"(sources=2, balanced mix, f=1 zipf, 2 periods, seed 5)",
        "",
        f"{'depth':>5} {'noise':>6} {'inst':>5} "
        f"{'pipeline':>10} {'cdc':>10} {'scd':>10} {'dirty':>10}",
    ]
    for p in points:
        navg = p["navg_plus"]
        lines.append(
            f"{p['depth']:>5} {p['noise']:>6} {p['instances']:>5} "
            f"{navg['pipeline']:>10.2f} {navg['cdc']:>10.2f} "
            f"{navg['scd']:>10.2f} {navg['dirty']:>10.2f}"
        )
    print("\n".join(lines))
    write_artifact("BENCH_synth.txt", "\n".join(lines) + "\n")
    write_artifact(
        "BENCH_synth.json",
        json.dumps(
            {
                "spec": spec.canonical(),
                "distribution": 1,
                "periods": 2,
                "grid": points,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
