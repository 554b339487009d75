"""The persistent WorkerPool (repro.parallel.pool).

This is the machinery both `repro sweep --workers N` and the serving
layer's pool dispatcher run on, so its contract is tested directly:
futures resolve to outcomes, run failures and worker deaths are
contained to the spec that caused them, the pool replaces dead workers
and keeps serving, a future cancelled while queued never runs, and
close() never strands a caller.

Workers are forked, so a stand-in patched into the module before a pool
starts is what its workers (and every replacement) run.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.parallel import RunOutcome, RunSpec, SweepError, WorkerPool, run_spec
from repro.parallel import pool as pool_module
from repro.parallel import spec as spec_module

FAST = dict(datasize=0.02, time=1.0)

#: The pool fixture's workers die outright on this seed ...
CRASH_SEED = 77
#: ... and fail to build a client on this one.
FAILING_SEED = 66


def fast_spec(**overrides) -> RunSpec:
    base = dict(FAST, seed=11)
    base.update(overrides)
    return RunSpec(**base)


@pytest.fixture(scope="module")
def pool():
    real_run_spec = pool_module.run_spec
    real_client_from_spec = spec_module.client_from_spec

    def crashing_run_spec(spec):
        if spec.seed == CRASH_SEED:
            os._exit(70)
        return real_run_spec(spec)

    def failing_client_from_spec(spec, workload=None):
        if spec.seed == FAILING_SEED:
            raise RuntimeError(f"no client for {spec.label}")
        return real_client_from_spec(spec, workload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "run_spec", crashing_run_spec)
        patch.setattr(spec_module, "client_from_spec", failing_client_from_spec)
        pool = WorkerPool(workers=2)
        yield pool
        pool.close()


def wait_until(condition, limit=5.0):
    started = time.perf_counter()
    while not condition():
        assert time.perf_counter() - started < limit, "condition never held"
        time.sleep(0.0005)
    return time.perf_counter() - started


class TestSubmit:
    def test_future_resolves_to_outcome(self, pool):
        outcome = pool.submit(fast_spec()).result(timeout=60)
        assert outcome.status == "ok"
        assert outcome.landscape_digest
        assert outcome.result.verification.ok

    def test_run_matches_direct_execution(self, pool):
        spec = fast_spec(seed=23)
        pooled = pool.submit(spec).result(timeout=60)
        direct = run_spec(spec)
        assert pooled.fingerprint() == direct.fingerprint()
        assert pooled.landscape_digest == direct.landscape_digest

    def test_batch_keeps_submission_order(self, pool):
        specs = [fast_spec(seed=s) for s in (41, 42, 43)]
        futures = [pool.submit(spec) for spec in specs]
        outcomes = [f.result(timeout=60) for f in futures]
        assert [o.spec.seed for o in outcomes] == [41, 42, 43]

    def test_run_failure_is_an_error_outcome_not_a_raise(self, pool):
        outcome = pool.submit(fast_spec(seed=FAILING_SEED)).result(timeout=60)
        assert outcome.status == "error"
        assert outcome.error_type == "RuntimeError"
        assert "no client" in outcome.error


class TestDispatchLatency:
    def test_submission_reaches_an_idle_worker_while_another_runs(self):
        """A spec submitted while another runs starts at once on an idle
        worker; nothing waits for the busy one."""
        pool = WorkerPool(workers=3)
        try:
            long_run = pool.submit(fast_spec(datasize=0.05, periods=3))
            wait_until(long_run.running)
            delays = []
            for seed in (1, 2):
                time.sleep(0.02)  # let the idle threads settle into their wait
                later = pool.submit(fast_spec(datasize=0.05, periods=3, seed=seed))
                delays.append(wait_until(later.running))
            assert not long_run.done() and not later.done()
            assert max(delays) < 0.05, delays
        finally:
            pool.close()


class TestCrashContainment:
    def test_hard_exit_fails_only_its_spec(self, pool):
        crash = pool.submit(fast_spec(seed=CRASH_SEED))
        healthy = pool.submit(fast_spec(seed=78))
        crashed = crash.result(timeout=60)
        assert crashed.status == "crashed"
        assert crashed.error_type == "WorkerCrashed"
        assert healthy.result(timeout=60).status == "ok"

    def test_pool_respawns_and_keeps_serving(self, pool):
        crashed = pool.submit(fast_spec(seed=CRASH_SEED)).result(timeout=60)
        assert crashed.status == "crashed"
        # As many runs as the pool has workers run at once: the dead
        # worker was replaced.
        futures = [
            pool.submit(fast_spec(datasize=0.05, periods=2, seed=s))
            for s in range(pool.workers)
        ]
        wait_until(lambda: all(f.running() for f in futures), limit=30.0)
        assert all(f.result(timeout=60).status == "ok" for f in futures)
        after = pool.submit(fast_spec(seed=99)).result(timeout=60)
        assert after.status == "ok"


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

    def test_a_future_cancelled_while_queued_never_runs(
        self, monkeypatch, tmp_path
    ):
        """A timed-out session cancels its future; its spec must not
        take a worker afterwards."""
        started, gate = tmp_path / "started", tmp_path / "gate"

        def logging_run_spec(spec):
            with open(started, "a", encoding="utf-8") as log:
                log.write(f"{spec.seed}\n")
            while spec.seed == 1 and not gate.exists():
                time.sleep(0.001)
            return RunOutcome(spec=spec)

        monkeypatch.setattr(pool_module, "run_spec", logging_run_spec)
        pool = WorkerPool(workers=1)
        try:
            first = pool.submit(fast_spec(seed=1))
            wait_until(started.exists)
            cancelled = pool.submit(fast_spec(seed=2))
            assert cancelled.cancel()
            last = pool.submit(fast_spec(seed=3))
            gate.touch()
            assert last.result(timeout=30).ok
            assert first.result(timeout=30).ok
        finally:
            pool.close()
        assert started.read_text("utf-8").split() == ["1", "3"]

    def test_cancels_and_a_close_under_load_lose_and_repeat_nothing(
        self, monkeypatch, tmp_path
    ):
        """Three workers racing for one queue, cancels and close() at a
        50 µs switch interval: every spec runs at most once, a cancelled
        one never, and every future ends resolved — by its run, or as
        crashed by close()."""
        ran = tmp_path / "ran"

        def logging_run_spec(spec):
            with open(ran, "a", encoding="utf-8") as log:
                log.write(f"{spec.seed}\n")
            return RunOutcome(spec=spec)

        monkeypatch.setattr(pool_module, "run_spec", logging_run_spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            pool = WorkerPool(workers=3)
            futures = [pool.submit(fast_spec(seed=s)) for s in range(300)]
            cancelled = {s for s in range(0, 300, 3) if futures[s].cancel()}
            pool.close()
            outcomes = {
                s: f.result(timeout=30)
                for s, f in enumerate(futures) if s not in cancelled
            }
        finally:
            sys.setswitchinterval(interval)
        assert all(futures[s].cancelled() for s in cancelled)
        assert {o.status for o in outcomes.values()} <= {"ok", "crashed"}
        runs = ran.read_text("utf-8").split() if ran.exists() else []
        assert len(runs) == len(set(runs))
        assert {int(s) for s in runs} == {
            s for s, o in outcomes.items() if o.status == "ok"
        }
