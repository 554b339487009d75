"""The persistent WorkerPool (repro.parallel.pool).

This is the machinery both `repro sweep --workers N` and the serving
layer's pool dispatcher run on, so its contract is tested directly:
futures resolve to outcomes, run failures and worker deaths are
contained to the spec that caused them, the pool replaces dead workers
and keeps serving, and close() never strands a caller.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import RunSpec, SweepError, WorkerPool, run_spec

FAST = dict(datasize=0.02, time=1.0)


def fast_spec(**overrides) -> RunSpec:
    base = dict(FAST, seed=11)
    base.update(overrides)
    return RunSpec(**base)


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(workers=2)
    yield pool
    pool.close()


class TestSubmit:
    def test_future_resolves_to_outcome(self, pool):
        outcome = pool.submit(fast_spec()).result(timeout=60)
        assert outcome.status == "ok"
        assert outcome.landscape_digest
        assert outcome.result.verification.ok

    def test_run_matches_direct_execution(self, pool):
        spec = fast_spec(seed=23)
        pooled = pool.run(spec)
        direct = run_spec(spec)
        assert pooled.fingerprint() == direct.fingerprint()
        assert pooled.landscape_digest == direct.landscape_digest

    def test_batch_keeps_submission_order(self, pool):
        specs = [fast_spec(seed=s) for s in (41, 42, 43)]
        futures = [pool.submit(spec) for spec in specs]
        outcomes = [f.result(timeout=60) for f in futures]
        assert [o.spec.seed for o in outcomes] == [41, 42, 43]

    def test_run_failure_is_an_error_outcome_not_a_raise(self, pool):
        outcome = pool.run(fast_spec(sabotage="raise"))
        assert outcome.status == "error"
        assert outcome.error_type == "SweepSabotage"


class TestDispatchLatency:
    def test_submission_reaches_an_idle_worker_while_another_runs(self):
        """The collector must not sit out a poll interval (it used to
        wait 100 ms on the busy pipes before looking at the queue)."""

        def dispatched(pool):
            return sum(w.current is not None for w in pool._pool)

        def wait_for(pool, count):
            started = time.perf_counter()
            while dispatched(pool) < count:
                assert time.perf_counter() - started < 5.0, "never dispatched"
                time.sleep(0.0005)
            return time.perf_counter() - started

        with WorkerPool(workers=3) as pool:
            long_run = pool.submit(fast_spec(datasize=0.05, periods=3))
            wait_for(pool, 1)
            delays = []
            for seed in (1, 2):
                time.sleep(0.02)  # let the collector settle into its wait
                later = pool.submit(fast_spec(datasize=0.05, periods=3, seed=seed))
                delays.append(wait_for(pool, 1 + seed))
            assert not long_run.done() and not later.done()
            assert max(delays) < 0.05, delays


class TestCrashContainment:
    def test_hard_exit_fails_only_its_spec(self, pool):
        crash = pool.submit(fast_spec(seed=77, sabotage="hard-exit"))
        healthy = pool.submit(fast_spec(seed=78))
        crashed = crash.result(timeout=60)
        assert crashed.status == "crashed"
        assert crashed.error_type == "WorkerCrashed"
        assert healthy.result(timeout=60).status == "ok"

    def test_pool_respawns_and_keeps_serving(self, pool):
        pool.run(fast_spec(sabotage="hard-exit"))
        after = pool.run(fast_spec(seed=99))
        assert after.status == "ok"
        assert len(pool._pool) == pool.workers
        assert all(w.process.is_alive() for w in pool._pool)


class TestLifecycle:
    def test_workers_must_be_positive(self):
        with pytest.raises(SweepError, match="workers must be >= 1"):
            WorkerPool(workers=0)

    def test_close_is_idempotent(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()
        with pytest.raises(SweepError, match="closed"):
            pool.submit(fast_spec())

    def test_close_resolves_pending_futures(self):
        pool = WorkerPool(workers=1)
        futures = [pool.submit(fast_spec(seed=s)) for s in range(3)]
        pool.close()
        for future in futures:
            outcome = future.result(timeout=10)
            assert outcome.status in ("ok", "crashed")

    def test_context_manager_closes(self):
        with WorkerPool(workers=1) as pool:
            assert pool.run(fast_spec()).status == "ok"
        with pytest.raises(SweepError, match="closed"):
            pool.submit(fast_spec())

    def test_unknown_start_method_rejected(self):
        with pytest.raises(SweepError, match="not available"):
            WorkerPool(workers=1, start_method="no-such-method")
