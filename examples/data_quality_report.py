"""Measuring data quality across the integration layers.

Beyond raw performance, DIPBench's scenario is about *data quality*: the
staging area consolidates and cleans, the warehouse holds only verified
data.  This example runs one benchmark period and prints the quality
gradient — conformance, uniqueness, referential integrity and coverage
per layer — plus the concrete dirt the cleansing procedures removed.

Run with::

    python examples/data_quality_report.py
"""

from repro.parallel import RunSpec, client_from_spec
from repro.toolsuite import measure_quality


def main() -> None:
    client = client_from_spec(RunSpec(datasize=0.05, periods=1, seed=42))
    scenario = client.scenario

    # Peek at the dirt *before* the run: initialize one period's sources
    # manually and count non-conforming master data.
    population = client.initializer.initialize_sources(0)
    quality_before = measure_quality(scenario)
    print("before the integration run:")
    print(quality_before.as_table())
    print()

    result = client.run()
    assert result.verification.ok

    quality_after = measure_quality(scenario)
    print("after streams A/B (consolidation), C (cleansing + warehouse "
          "load) and D (mart refresh):")
    print(quality_after.as_table())
    print()
    print(f"quality gradient monotone: {quality_after.monotone_quality}")

    cdb = scenario.databases["sales_cleaning"]
    failed = cdb.table("failed_messages").scan()
    print(f"\nSan Diego messages routed to failed-data destinations: "
          f"{len(failed)}")
    for row in failed[:3]:
        print(f"  failkey={row['failkey']}: {row['reason'][:70]}")


if __name__ == "__main__":
    main()
