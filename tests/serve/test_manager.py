"""SessionManager: backpressure edges, breakers, drain, accounting.

Everything here runs on the inline (thread) dispatcher with a
monkeypatched ``run_spec``, so sessions execute in microseconds and the
admission/backpressure edges are exercised deterministically — the
injected clock drives token buckets and circuit breakers, not the wall.
"""

import asyncio
import time

import pytest

from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    SessionNotFound,
    TranslationError,
)
from repro.parallel.spec import RunOutcome
from repro.serve import (
    CONTRACT_V1,
    DONE,
    FAILED,
    ServeConfig,
    SessionManager,
    TenantPolicy,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _doc(tenant="acme", **spec):
    return {"contract": CONTRACT_V1, "tenant": tenant, "spec": spec}


def _config(**kwargs):
    kwargs.setdefault("dispatcher", "inline")
    kwargs.setdefault("engine_slots", 2)
    return ServeConfig(**kwargs)


#: The stand-in runs fail every spec from this seed up.
FAILING_SEED = 900


@pytest.fixture()
def fast_runs(monkeypatch):
    """Replace engine execution with an instant deterministic stand-in."""

    def fake_run_spec(spec):
        if spec.seed >= FAILING_SEED:
            return RunOutcome.failed(spec, RuntimeError("failed run"))
        time.sleep(0.002)
        return RunOutcome(
            spec=spec, status="ok",
            landscape_digest=f"digest-{spec.seed}", wall_seconds=0.002,
        )

    monkeypatch.setattr("repro.serve.dispatch.run_spec", fake_run_spec)
    return fake_run_spec


def run(coroutine):
    return asyncio.run(coroutine)


class TestLifecycle:
    def test_session_travels_to_done(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            session = manager.submit(_doc(seed=1))
            assert await manager.wait(session, timeout=5)
            await manager.shutdown()
            return manager, session

        manager, session = run(scenario())
        assert session.state == DONE
        assert session.outcome.landscape_digest == "digest-1"
        assert not session.cached
        assert manager.state == "stopped"

    def test_deterministic_cache_serves_repeat_specs(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            first = manager.submit(_doc(seed=5))
            await manager.wait(first, timeout=5)
            second = manager.submit(_doc(seed=5))
            await manager.wait(second, timeout=5)
            await manager.shutdown()
            return manager, first, second

        manager, first, second = run(scenario())
        assert not first.cached and second.cached
        assert second.engine_wall_s == 0.0
        assert second.outcome is first.outcome
        assert manager.cache_hits == 1

    def test_cache_can_be_disabled(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config(cache=False))
            await manager.start()
            for _ in range(2):
                session = manager.submit(_doc(seed=5))
                await manager.wait(session, timeout=5)
            await manager.shutdown()
            return manager, session

        manager, session = run(scenario())
        assert not session.cached
        assert manager.cache_hits == 0

    def test_translation_error_propagates(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            with pytest.raises(TranslationError):
                manager.submit({"spec": {}})
            await manager.shutdown(drain=False)
            return manager

        manager = run(scenario())
        assert manager.rejections["(untranslated)"]["bad-request"] == 1


class TestBackpressure:
    def test_queue_full_rejects_with_429_reason(self, fast_runs):
        async def scenario():
            # Workers never started: the queue only fills.
            manager = SessionManager(_config(queue_capacity=2))
            manager.submit(_doc(seed=1))
            manager.submit(_doc(seed=2))
            with pytest.raises(AdmissionRejected) as err:
                manager.submit(_doc(seed=3))
            assert err.value.reason == "queue-full"
            assert err.value.retry_after > 0
            await manager.shutdown(drain=False)
            return manager

        manager = run(scenario())
        assert manager.rejections["acme"]["queue-full"] == 1
        # Undrained shutdown failed what was still queued.
        for session in manager.store.for_tenant("acme"):
            assert session.state == FAILED
            assert session.error_type == "ServerStopped"

    def test_tenant_quota_exhaustion(self, fast_runs):
        async def scenario():
            manager = SessionManager(
                _config(tenants={
                    "acme": TenantPolicy(name="acme", max_active=2),
                })
            )
            manager.submit(_doc(seed=1))
            manager.submit(_doc(seed=2))
            with pytest.raises(AdmissionRejected) as err:
                manager.submit(_doc(seed=3))
            assert err.value.reason == "tenant-quota"
            await manager.shutdown(drain=False)
            return manager

        manager = run(scenario())
        assert manager.rejections["acme"]["tenant-quota"] == 1

    def test_quota_frees_as_sessions_finish(self, fast_runs):
        async def scenario():
            manager = SessionManager(
                _config(tenants={
                    "acme": TenantPolicy(name="acme", max_active=1),
                })
            )
            await manager.start()
            first = manager.submit(_doc(seed=1))
            await manager.wait(first, timeout=5)
            second = manager.submit(_doc(seed=2))  # quota freed: admitted
            await manager.wait(second, timeout=5)
            await manager.shutdown()
            return second

        assert run(scenario()).state == DONE

    def test_rate_limit_uses_injected_clock(self, fast_runs):
        clock = FakeClock()

        async def scenario():
            manager = SessionManager(
                _config(tenants={
                    "acme": TenantPolicy(
                        name="acme", rate=1.0, burst=2.0, max_active=50
                    ),
                }),
                clock=clock,
            )
            await manager.start()
            manager.submit(_doc(seed=1))
            manager.submit(_doc(seed=2))
            with pytest.raises(AdmissionRejected) as err:
                manager.submit(_doc(seed=3))
            assert err.value.reason == "rate-limited"
            clock.advance(1.0)  # exactly one token refills
            manager.submit(_doc(seed=4))
            await manager.shutdown()
            return manager

        manager = run(scenario())
        assert manager.rejections["acme"]["rate-limited"] == 1


class TestCircuitBreaker:
    def test_failures_open_the_tenant_breaker(self, fast_runs):
        clock = FakeClock()

        async def scenario():
            from repro.resilience import BreakerPolicy

            manager = SessionManager(
                _config(
                    breaker=BreakerPolicy(
                        failure_threshold=2, reset_timeout=5.0
                    ),
                ),
                clock=clock,
            )
            await manager.start()
            for seed in (1, 2):
                session = manager.submit(_doc(seed=FAILING_SEED + seed))
                await manager.wait(session, timeout=5)
                assert session.state == FAILED
            # Breaker open: the next submission is rejected up front.
            with pytest.raises(CircuitOpenError):
                manager.submit(_doc(seed=3))
            # A *different* tenant is unaffected (per-tenant isolation).
            ok = manager.submit(_doc(tenant="globex", seed=4))
            await manager.wait(ok, timeout=5)
            assert ok.state == DONE
            # After the reset timeout a half-open probe goes through.
            clock.advance(6.0)
            probe = manager.submit(_doc(seed=5))
            await manager.wait(probe, timeout=5)
            assert probe.state == DONE
            await manager.shutdown()
            return manager

        manager = run(scenario())
        assert manager.rejections["acme"]["circuit-open"] == 1
        assert len(manager.dead_letters) == 2
        assert manager.dead_letters.by_error_type() == {"RuntimeError": 2}

    def test_failed_sessions_reach_the_dead_letter_queue(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            session = manager.submit(_doc(seed=FAILING_SEED))
            await manager.wait(session, timeout=5)
            await manager.shutdown()
            return manager, session

        manager, session = run(scenario())
        (letter,) = manager.dead_letters.entries
        assert letter.process_id == f"acme/{session.id}"
        assert letter.stream == "serve"
        assert letter.error_type == "RuntimeError"


class TestDrain:
    def test_graceful_drain_finishes_queued_work(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config(engine_slots=1))
            await manager.start()
            sessions = [manager.submit(_doc(seed=n)) for n in range(5)]
            await manager.shutdown(drain=True)
            return manager, sessions

        manager, sessions = run(scenario())
        assert all(s.state == DONE for s in sessions)
        assert manager.state == "stopped"

    def test_draining_rejects_new_submissions(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            await manager.shutdown(drain=True)
            with pytest.raises(AdmissionRejected) as err:
                manager.submit(_doc(seed=1))
            assert err.value.reason == "draining"
            return manager

        manager = run(scenario())
        assert manager.rejections["acme"]["draining"] == 1

    def test_shutdown_is_idempotent(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            await manager.shutdown()
            await manager.shutdown()

        run(scenario())


class TestIsolationAndReporting:
    def test_sessions_are_tenant_scoped(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            session = manager.submit(_doc(tenant="acme", seed=1))
            await manager.wait(session, timeout=5)
            await manager.shutdown()
            return manager, session

        manager, session = run(scenario())
        assert manager.store.get(session.id, "acme") is session
        with pytest.raises(SessionNotFound):
            manager.store.get(session.id, "globex")
        with pytest.raises(SessionNotFound):
            manager.store.get("s-999999", "acme")

    def test_overheads_metered_separately_from_engine(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            session = manager.submit(_doc(seed=1))
            await manager.wait(session, timeout=5)
            await manager.shutdown()
            return manager, session

        manager, session = run(scenario())
        assert session.engine_wall_s > 0
        assert session.serve_overhead_s >= 0
        assert session.serve_overhead_s == pytest.approx(
            session.translation_s + session.admission_s
            + session.queue_wait_s
        )
        snapshot = manager.metrics.snapshot()
        assert (
            snapshot["serve_engine_seconds{tenant=acme}.count"] == 1.0
        )
        for stage in ("translation", "admission", "queue-wait"):
            key = (
                f"serve_overhead_seconds{{stage={stage},tenant=acme}}.count"
            )
            assert snapshot[key] == 1.0

    def test_tenant_report_accounts_everything(self, fast_runs):
        async def scenario():
            manager = SessionManager(
                _config(tenants={
                    "acme": TenantPolicy(name="acme", max_active=2),
                })
            )
            await manager.start()
            first = manager.submit(_doc(seed=1))
            await manager.wait(first, timeout=5)
            repeat = manager.submit(_doc(seed=1))
            await manager.wait(repeat, timeout=5)
            failed = manager.submit(_doc(seed=FAILING_SEED))
            await manager.wait(failed, timeout=5)
            await manager.shutdown()
            return manager

        manager = run(scenario())
        report = manager.tenant_report("acme")
        assert report["sessions"]["total"] == 3
        assert report["sessions"]["done"] == 2
        assert report["sessions"]["failed"] == 1
        assert report["sessions"]["cached"] == 1
        assert set(report["latency_s"]) == {"p50", "p95", "p99"}
        assert report["overhead"]["engine_s"] >= 0

    def test_cluster_telemetry_reaches_healthz_and_metrics(self, monkeypatch):
        from repro.cluster import FailoverReport, ReplicationStats

        class _NoRows:
            def rows(self):
                return []

        class _ClusteredResult:
            """The slice of BenchmarkResult the serve layer reads."""

            def __init__(self):
                self.replication = ReplicationStats(
                    mode="async", hosts=3, replicas_per_db=1,
                    replica_count=11, shipped_records=120, batches=7,
                    max_lag_records=4,
                )
                self.failover_reports = [
                    FailoverReport(
                        index=0, period=0, dead_host="H1", crash_at=40.0,
                        detected_at=47.5, detection_eu=7.5, rpo_records=3,
                    ),
                ]
                self.metrics = _NoRows()

        def fake_run_spec(spec):
            if spec.seed >= FAILING_SEED:
                return RunOutcome.failed(spec, RuntimeError("failed run"))
            outcome = RunOutcome(
                spec=spec, status="ok",
                landscape_digest="d", wall_seconds=0.001,
            )
            outcome.result = _ClusteredResult()
            return outcome

        monkeypatch.setattr("repro.serve.dispatch.run_spec", fake_run_spec)

        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            done = manager.submit(_doc(seed=1))
            await manager.wait(done, timeout=5)
            repeat = manager.submit(_doc(seed=1))  # cache hit
            await manager.wait(repeat, timeout=5)
            failed = manager.submit(
                _doc(tenant="globex", seed=FAILING_SEED)
            )
            await manager.wait(failed, timeout=5)
            stats = manager.stats()
            snapshot = manager.metrics.snapshot()
            await manager.shutdown()
            return repeat, stats, snapshot

        repeat, stats, snapshot = run(scenario())
        assert repeat.cached
        # Per-endpoint breaker states, not just the state histogram.
        assert stats["breaker_states"] == {
            "acme": "closed", "globex": "closed",
        }
        assert stats["dead_letters_by_class"] == {"RuntimeError": 1}
        # The cache hit re-serves a recorded run: replication is
        # counted once, for the session that actually executed.
        assert stats["replication"] == {
            "sessions": 1,
            "shipped_records": 120,
            "max_lag_records": 4,
            "failovers": 1,
            "rpo_records": 3,
        }
        assert snapshot["cluster_replica_lag_records{tenant=acme}"] == 4.0
        assert snapshot["cluster_shipped_records_total{tenant=acme}"] == 120.0
        assert snapshot["serve_failovers_total{tenant=acme}"] == 1.0
        assert snapshot["serve_rpo_records_total{tenant=acme}"] == 3.0
        assert snapshot["serve_breaker_state{tenant=acme}"] == 0.0
        assert snapshot["serve_dead_letters_depth"] == 1.0

    def test_healthz_stats(self, fast_runs):
        async def scenario():
            manager = SessionManager(_config())
            await manager.start()
            session = manager.submit(_doc(seed=1))
            await manager.wait(session, timeout=5)
            stats = manager.stats()
            await manager.shutdown()
            return stats

        stats = run(scenario())
        assert stats["status"] == "ok"
        assert stats["sessions"] == 1
        assert stats["dispatcher"] == "inline"
        assert stats["queue_capacity"] == 64
