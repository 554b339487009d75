"""The cluster's end-to-end proof: crashes change nothing but the RTO.

A seeded clustered run (3 hosts, 1 follower per database) absorbs two
primary-killing crashes and still converges to the byte-identical
outcome of the fault-free single-host run — same records, same NAVG+
table, same verification, same fingerprint.  RTO is strictly positive
(detection + election + promotion + redispatch all cost virtual time),
RPO is zero under sync shipping, and the whole story is deterministic
across invocations.
"""

from dataclasses import replace

import pytest

from repro.parallel.spec import RunSpec, run_spec
from repro.resilience import FaultEvent, FaultSpec
from repro.toolsuite.monitor import Monitor

SEED = 7

CRASHES = FaultSpec(
    name="double-crash",
    events=(
        FaultEvent(at=40.0, kind="crash", point="arrival"),
        FaultEvent(at=120.0, kind="crash", point="commit"),
    ),
)


def _baseline_spec():
    return RunSpec(
        engine="federated", datasize=0.05, time=1.0, periods=1, seed=SEED,
    )


def _clustered_spec(**overrides):
    fields = dict(
        engine="federated", datasize=0.05, time=1.0, periods=1, seed=SEED,
        faults=CRASHES, durability="snapshot+wal", checkpoint_every=200.0,
        cluster_hosts=3, cluster_replicas=1, repl_mode="sync",
    )
    fields.update(overrides)
    return RunSpec(**fields)


@pytest.fixture(scope="module")
def baseline():
    outcome = run_spec(_baseline_spec())
    assert outcome.ok, outcome.error
    return outcome


@pytest.fixture(scope="module")
def clustered():
    outcome = run_spec(_clustered_spec())
    assert outcome.ok, outcome.error
    return outcome


class TestByteIdentity:
    def test_crashed_cluster_converges_to_the_fault_free_run(
        self, baseline, clustered
    ):
        assert clustered.result.verification.ok, (
            clustered.result.verification.failures
        )
        assert [repr(r) for r in clustered.result.records] == [
            repr(r) for r in baseline.result.records
        ]
        assert (
            clustered.result.metrics.as_table()
            == baseline.result.metrics.as_table()
        )
        assert clustered.landscape_digest == baseline.landscape_digest
        assert clustered.fingerprint() == baseline.fingerprint()

    def test_two_crashes_actually_happened(self, clustered):
        reports = clustered.result.failover_reports
        assert len(reports) == 2
        # Two distinct hosts died (round-robin victim selection).
        assert len({r.dead_host for r in reports}) == 2
        for report in reports:
            assert report.promoted or report.rebuilt_from_log

    def test_rto_positive_rpo_zero_under_sync(self, clustered):
        for report in clustered.result.failover_reports:
            assert report.rto_eu is not None and report.rto_eu > 0
            assert report.detection_eu > 0
            assert report.rpo_records == 0
        stats = clustered.result.replication
        assert stats is not None
        assert stats.mode == "sync"
        assert stats.shipped_records > 0
        assert stats.divergent == 0

    def test_monitor_reports_the_failovers(self, clustered):
        monitor = Monitor.merged([clustered])
        summary = monitor.failover_summary()
        assert summary.failovers == 2
        assert summary.rpo_records == 0
        assert summary.mean_rto_tu > 0
        assert summary.max_rto_tu >= summary.mean_rto_tu
        assert "RTO" in summary.describe()


class TestSynthesizedWorkload:
    def test_a_crashed_synth_cluster_converges(self):
        """A synthesized run fails over through the same client: both
        crashes in each of two periods, and still the fault-free
        single-host outcome, change feeds included."""
        synth = dict(datasize=0.02, periods=2, synth="sources=2")
        base = run_spec(replace(_baseline_spec(), **synth))
        outcome = run_spec(_clustered_spec(**synth))
        assert outcome.ok, outcome.error
        assert outcome.result.failovers == 4
        assert outcome.result.verification.ok, (
            outcome.result.verification.failures
        )
        assert outcome.fingerprint() == base.fingerprint()


class TestDeterminism:
    def test_same_seed_same_failovers_same_fingerprint(self, clustered):
        again = run_spec(_clustered_spec())
        assert again.ok, again.error
        assert again.fingerprint() == clustered.fingerprint()
        first = [
            (r.dead_host, r.crash_at, r.detected_at, r.rpo_records, r.rto_eu)
            for r in clustered.result.failover_reports
        ]
        second = [
            (r.dead_host, r.crash_at, r.detected_at, r.rpo_records, r.rto_eu)
            for r in again.result.failover_reports
        ]
        assert first == second


class TestAsyncReplication:
    def test_async_mode_converges_with_bounded_rpo(self, baseline):
        outcome = run_spec(_clustered_spec(
            repl_mode="async", repl_lag=30.0, repl_batch=4,
        ))
        assert outcome.ok, outcome.error
        assert outcome.fingerprint() == baseline.fingerprint()
        assert outcome.result.verification.ok
        for report in outcome.result.failover_reports:
            # Unreplicated records at election are caught up from the
            # durable WAL: measured exposure, never lost work.
            assert report.rpo_records == report.catchup_records or (
                report.rpo_records <= report.catchup_records
            )
            assert report.rto_eu is not None and report.rto_eu > 0
        stats = outcome.result.replication
        assert stats.mode == "async"
