"""End-to-end crash recovery: byte-identical convergence.

The acceptance bar of the storage subsystem, on both reference
realizations: a run that loses the engine mid-period and recovers from
snapshot+WAL must converge to the *same* final landscape state, the same
per-database I/O statistics and the same per-instance records — hence
the same NAVG+ metrics — as the fault-free run at the same seed.  And
with durability merely enabled (no crash), everything must stay
byte-identical to the plain run: the zero-overhead contract.  A
synthesized workload runs through the same client, so it must converge
on every engine too — change feeds included.
"""

from dataclasses import replace

import pytest

from repro.engine import ENGINES as ALL_ENGINES
from repro.engine import FederatedEngine, MtmInterpreterEngine
from repro.errors import FaultSpecError
from repro.observability import Observability
from repro.parallel.spec import RunSpec, client_from_spec, run_spec
from repro.resilience import FaultEvent, FaultSpec
from repro.scenario import build_scenario
from repro.storage import landscape_digest
from repro.toolsuite import BenchmarkClient, ScaleFactors

ENGINES = {
    "interpreter": MtmInterpreterEngine,
    "federated": FederatedEngine,
}


def crash_spec(at=300.0, point="commit", period=0):
    """One crash; ``period=None`` crashes every period."""
    return FaultSpec(
        name="crash",
        seed=7,
        events=(FaultEvent(at=at, kind="crash", point=point, period=period),),
    )


#: Every family on two sources; a period is two rounds of E1 messages,
#: each followed by its E2 wave (consolidation, one CDC pull per source,
#: SCD apply, dedup) — see docs/workloads.md.
SYNTH = RunSpec(datasize=0.02, periods=2, seed=5, synth="sources=2")

#: Crash times on every period's timeline: 205 tu lands in round 1's E1
#: streams, after round 0's CDC pulls were acked; at 250 tu the commit
#: crash takes round 1's first CDC pull, which has already acked its
#: batch when the instance dies uncommitted.
SYNTH_CRASH_TIMES = (205.0, 250.0)


def run_benchmark(engine_name, durability="off", faults=None,
                  checkpoint_every=None, observability=None):
    scenario = build_scenario()
    engine = ENGINES[engine_name](scenario.registry)
    kwargs = {}
    if durability != "off":
        kwargs["durability"] = durability
        kwargs["checkpoint_every"] = checkpoint_every
    client = BenchmarkClient(
        scenario, engine, ScaleFactors(datasize=0.05),
        periods=1, seed=42, faults=faults,
        observability=observability, **kwargs,
    )
    result = client.run()
    digest = landscape_digest(scenario.all_databases.values())
    statistics = {
        name: db.statistics()
        for name, db in scenario.all_databases.items()
    }
    return client, result, digest, statistics


@pytest.fixture(scope="module")
def baseline():
    """Plain seed-42 runs of both engines, shared by every comparison."""
    return {name: run_benchmark(name) for name in ENGINES}


class TestZeroOverhead:
    @pytest.mark.parametrize("engine_name", list(ENGINES))
    def test_durability_on_fault_free_is_byte_identical(
        self, baseline, engine_name
    ):
        _, base, base_digest, base_stats = baseline[engine_name]
        _, durable, digest, stats = run_benchmark(
            engine_name, durability="snapshot+wal", checkpoint_every=50.0
        )
        assert durable.records == base.records
        assert digest == base_digest
        assert stats == base_stats


class TestCrashRecovery:
    @pytest.mark.parametrize("engine_name", list(ENGINES))
    def test_commit_point_crash_converges(self, baseline, engine_name):
        _, base, base_digest, base_stats = baseline[engine_name]
        client, crashed, digest, stats = run_benchmark(
            engine_name, durability="snapshot+wal", checkpoint_every=50.0,
            faults=crash_spec(point="commit"),
        )
        assert crashed.recoveries == 1
        assert crashed.records == base.records
        assert digest == base_digest
        assert stats == base_stats  # redo never double-counts I/O
        assert crashed.verification.ok

    @pytest.mark.parametrize("engine_name", list(ENGINES))
    def test_arrival_point_crash_converges(self, baseline, engine_name):
        _, base, base_digest, _ = baseline[engine_name]
        _, crashed, digest, _ = run_benchmark(
            engine_name, durability="snapshot+wal", checkpoint_every=50.0,
            faults=crash_spec(point="arrival"),
        )
        assert crashed.recoveries == 1
        assert crashed.records == base.records
        assert digest == base_digest

    def test_wal_only_mode_converges(self, baseline):
        """Pure WAL: one baseline checkpoint, the whole period redone."""
        _, base, base_digest, _ = baseline["interpreter"]
        client, crashed, digest, _ = run_benchmark(
            "interpreter", durability="wal", faults=crash_spec(),
        )
        assert crashed.records == base.records
        assert digest == base_digest
        # No cadence: only the per-period baseline checkpoint was taken.
        assert client.storage.checkpoints == 1

    def test_recovery_report_describes_the_redo(self, baseline):
        client, crashed, _, _ = run_benchmark(
            "interpreter", durability="snapshot+wal", checkpoint_every=50.0,
            faults=crash_spec(),
        )
        (report,) = crashed.recovery_reports
        assert report.period == 0
        assert report.databases == len(client.storage.databases)
        assert report.snapshot_rows > 0
        assert report.redo_records > 0
        assert report.recovered_to >= report.checkpoint_at
        assert report.modeled_cost > 0
        assert "recovery p0" in report.describe()

    def test_monitor_recovery_summary(self):
        client, _, _, _ = run_benchmark(
            "interpreter", durability="snapshot+wal", checkpoint_every=50.0,
            faults=crash_spec(),
        )
        summary = client.monitor.recovery_summary()
        assert summary.recoveries == 1
        assert summary.redo_records > 0
        assert summary.max_recovery_tu >= summary.mean_recovery_tu > 0
        assert "recovery:" in summary.describe()

    def test_monitor_summary_empty_without_crash(self):
        client, _, _, _ = run_benchmark("interpreter")
        summary = client.monitor.recovery_summary()
        assert summary.recoveries == 0
        assert "none" in summary.describe()

    def test_recovery_metrics_exported(self):
        observability = Observability()
        run_benchmark(
            "interpreter", durability="snapshot+wal", checkpoint_every=50.0,
            faults=crash_spec(), observability=observability,
        )
        text = observability.prometheus()
        assert "storage_crashes_total 1" in text
        assert "storage_recoveries_total 1" in text
        assert "storage_recovery_time_count 1" in text
        assert "storage_redo_records_count 1" in text
        assert "storage_checkpoints_total" in text


class TestGuards:
    def test_crash_spec_requires_durability(self):
        scenario = build_scenario()
        engine = MtmInterpreterEngine(scenario.registry)
        with pytest.raises(FaultSpecError, match="durability"):
            BenchmarkClient(
                scenario, engine, ScaleFactors(datasize=0.05),
                periods=1, seed=42, faults=crash_spec(),
            )

    def test_synth_crash_spec_requires_durability(self):
        with pytest.raises(FaultSpecError, match="durability"):
            client_from_spec(replace(SYNTH, faults=crash_spec()))


# -- synthesized workloads ---------------------------------------------------------


@pytest.fixture(scope="module")
def synth_baseline():
    return {name: run_spec(SYNTH.with_engine(name)) for name in ALL_ENGINES}


@pytest.mark.parametrize("at", SYNTH_CRASH_TIMES)
@pytest.mark.parametrize(
    "durability,point",
    [("wal", "commit"), ("snapshot+wal", "commit"), ("snapshot+wal", "arrival")],
)
@pytest.mark.parametrize("engine_name", sorted(ALL_ENGINES))
def test_synth_crash_converges(
    synth_baseline, engine_name, durability, point, at
):
    base = synth_baseline[engine_name]
    assert base.ok and base.result.verification.ok
    crashed = run_spec(replace(
        SYNTH, engine=engine_name, durability=durability,
        checkpoint_every=50.0 if durability == "snapshot+wal" else None,
        faults=crash_spec(at, point, period=None),
    ))
    assert crashed.ok, crashed.error
    assert crashed.result.recoveries == SYNTH.periods
    assert [repr(r) for r in crashed.result.records] == [
        repr(r) for r in base.result.records
    ]
    assert crashed.landscape_digest == base.landscape_digest
    assert crashed.result.verification.ok, crashed.result.verification.failures
