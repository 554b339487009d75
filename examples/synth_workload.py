"""Synthesized workloads: generate a scenario from knobs and run it.

DIPBench fixes one landscape and 15 process types; ``repro.synth`` turns
the workload itself into a parameterized generator.  This example
synthesizes an integration scenario from an explicit knob string —
heterogeneous source dialects, a consolidation DAG, CDC replication off
change feeds, type-1/type-2 slowly-changing-dimension maintenance, and
an Alaska-style dirty-data dedup task with exact generated ground truth
— runs it on one engine, verifies every generated table against the
plan, and then proves the scenario means the same thing to all four
engines (differential conformance).

Run with::

    python examples/synth_workload.py
"""

from repro.parallel import RunSpec, client_from_spec
from repro.synth import (
    SynthSpec,
    build_manifest,
    manifest_digest,
    run_differential,
    synthesize,
)
from repro.synth.families import label_process


def main() -> None:
    # 1. The knob space: every scenario is a pure function of
    #    (spec, seed).  Same knobs + seed => byte-identical scenario.
    spec = SynthSpec.parse(
        "sources=3,depth=2,transform_mix=balanced,noise=0.3,"
        "families=pipeline+cdc+scd+dirty"
    ).resolve(42)
    print(f"spec digest: {spec.digest()[:16]}…")

    # 2. Synthesis: schemas per source dialect, process graphs, message
    #    plans and ground truth.  The manifest digest is the *output*
    #    identity of the determinism contract.
    workload = synthesize(spec, f=1)  # f=1: zipf-skewed values
    manifest = build_manifest(workload, periods=2)
    print(f"manifest digest: {manifest_digest(manifest)[:16]}…")
    print(f"databases: {', '.join(sorted(workload.scenario.databases))}")
    print("processes: " + ", ".join(
        label_process(pid) for pid in sorted(workload.processes)
    ))
    print()

    # 3. Run it like any benchmark workload — the engines execute the
    #    generated process definitions unchanged.
    client = client_from_spec(
        RunSpec(engine="etl", distribution=1, periods=2, seed=spec.seed),
        workload=workload,
    )
    result = client.run()
    print(
        f"executed {result.total_instances} instances over "
        f"{result.periods} periods on {result.engine_name} "
        f"({result.error_instances} failures)"
    )
    print(result.verification.summary())
    print()

    # 4. Costs report per synthesized process family, not raw P-ids.
    print(client.monitor.family_table())
    print()

    # 5. Differential conformance: the same spec on all four engines
    #    must integrate to identical landscape digests.
    report = run_differential(spec, f=1, periods=1)
    print(report.summary())
    for outcome in report.outcomes:
        print(
            f"  {outcome.engine:<12} digest={outcome.digest[:12]} "
            f"verification={'ok' if outcome.verification_ok else 'FAILED'}"
        )


if __name__ == "__main__":
    main()
