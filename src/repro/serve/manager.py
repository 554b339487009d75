"""The multi-tenant SessionManager: admission → queue → dispatch → report.

One manager owns everything between the protocol boundary and the
benchmark machinery:

* a bounded request queue with backpressure (admission raises
  :class:`AdmissionRejected` → HTTP 429 + ``Retry-After``),
* per-tenant token buckets and concurrency quotas
  (:mod:`repro.serve.admission`),
* per-tenant **circuit breakers** (the PR-2
  :class:`CircuitBreakerBoard`, keyed by tenant instead of service):
  a tenant whose sessions keep failing gets rejected fast instead of
  burning engine slots,
* a **dead-letter queue** (the PR-2 :class:`DeadLetterQueue`) for
  failed sessions, with per-error-class accounting,
* a deterministic **result cache**: two sessions with byte-identical
  specs produce byte-identical outcomes (that is the reproduction's
  core contract), so the second is served from cache — flagged
  ``cached`` and still metered through the full admission/queue path,
* serving-overhead metering: translation, admission and queue wait are
  recorded per session, *separately* from engine execution time, and
  exported through the PR-1 :class:`MetricsRegistry`.

Everything except the engine run itself happens on the asyncio event
loop; runs execute on a dispatcher (worker processes by default).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from repro.declare import knob, problems, refuse
from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ServeError,
    TranslationError,
    UnknownTenant,
)
from repro.observability.metrics import MetricsRegistry, NullMetricsRegistry
from repro.parallel.spec import RunOutcome
from repro.resilience import (
    BreakerPolicy,
    CircuitBreakerBoard,
    DeadLetter,
    DeadLetterQueue,
)
from repro.serve.admission import (
    AdmissionController,
    TenantPolicy,
    parse_tenant_policies,
)
from repro.serve.dispatch import DISPATCHERS
from repro.serve.session import DONE, FAILED, QUEUED, RUNNING, Session, SessionStore
from repro.serve.translate import parse_session_request
from repro.toolsuite.monitor import latency_percentiles

#: Wait-time buckets for the serving-layer overhead histograms (wall
#: seconds; sub-millisecond translation up to multi-second queue waits).
OVERHEAD_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"

#: Breaker state as an exportable scalar (Prometheus gauges can't carry
#: strings): closed < half-open < open, so alerting thresholds compose.
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


@dataclass
class ServeConfig:
    """Everything one server instance is allowed to do."""

    queue_capacity: int = knob(64, "--queue", "request queue bound; past it "
                               "sessions are rejected with 429 queue-full",
                               bounds="[1, inf)")
    engine_slots: int = knob(2, "--slots", "concurrent engine executions (worker "
                             "processes / threads)", bounds="[1, inf)")
    dispatcher: str = knob("pool", "--dispatcher", "pool = worker processes, inline "
                           "= threads in the server process",
                           choices=tuple(DISPATCHERS))
    start_method: str | None = knob(None)
    cache: bool = knob(True, "--no-cache", "disable the deterministic result cache")
    tenants: dict[str, TenantPolicy] = knob(
        factory=dict, flag="--tenant", help="declare a tenant with its admission "
        "policy; repeatable (e.g. acme:rate=20:burst=5:active=4)", action="append",
        metavar="NAME[:rate=R][:burst=B][:active=N]", parse=parse_tenant_policies,
    )
    #: Policy applied to tenants not listed in ``tenants`` (open
    #: enrollment).  None → unknown tenants are rejected.
    default_policy: TenantPolicy | None = knob(
        factory=lambda: TenantPolicy(name="default")
    )
    #: Per-tenant circuit breaker (times in wall seconds here).
    breaker: BreakerPolicy = knob(
        factory=lambda: BreakerPolicy(failure_threshold=3, reset_timeout=5.0)
    )
    session_timeout_s: float = knob(300.0, help="hard per-session execution ceiling "
                                    "(wall seconds)", bounds="(0, inf)")

    def __post_init__(self) -> None:
        refuse(ServeError, "serve config", problems(self))


class SessionManager:
    """Owns sessions, admission, the queue, and per-tenant accounting."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.store = SessionStore()
        self.admission = AdmissionController(
            policies=self.config.tenants,
            queue_capacity=self.config.queue_capacity,
            default_policy=self.config.default_policy,
            clock=clock,
        )
        live = self.metrics if self.metrics.enabled else None
        self.breakers = CircuitBreakerBoard(
            policy=self.config.breaker, metrics=live
        )
        self.dead_letters = DeadLetterQueue(metrics=live)
        self.dispatcher = DISPATCHERS[self.config.dispatcher](
            slots=self.config.engine_slots,
            start_method=self.config.start_method,
        )
        self.state = SERVING
        self._queue: "asyncio.Queue[Session]" = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        self._cache: dict[str, RunOutcome] = {}
        self.cache_hits = 0
        #: reason → count, per tenant (the 429/503 accounting).
        self.rejections: dict[str, dict[str, int]] = {}
        #: completed-session wall latencies per tenant (for percentiles).
        self._latencies: dict[str, list[float]] = {}
        #: aggregate cluster replication/failover view across executed
        #: sessions (cache hits re-serve recorded runs, so they don't
        #: re-count shipped records).
        self.replication = {
            "sessions": 0,
            "shipped_records": 0,
            "max_lag_records": 0,
            "failovers": 0,
            "rpo_records": 0,
        }

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            raise ServeError("manager already started")
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-slot-{n}")
            for n in range(self.config.engine_slots)
        ]

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish all queued work first.

        Graceful drain: new submissions are rejected with reason
        ``draining`` the moment this is called, queued and running
        sessions run to completion, then the slots and the dispatcher
        shut down.
        """
        if self.state == STOPPED:
            return
        self.state = DRAINING
        if drain:
            await self._queue.join()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        while not self._queue.empty():  # non-drain shutdown: fail the rest
            session = self._queue.get_nowait()
            session.fail("ServerStopped", "server shut down before execution")
            self._queue.task_done()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.dispatcher.close)
        self.state = STOPPED

    # -- submission (event-loop side) --------------------------------------------------

    def submit(self, doc, default_tenant: str | None = None) -> Session:
        """Translate, gate and enqueue one external session request.

        Synchronous on purpose: translation, breaker check, admission
        and enqueue happen atomically on the event loop, so the
        capacity a session was admitted against cannot change under it.
        Raises :class:`TranslationError`, :class:`UnknownTenant`,
        :class:`CircuitOpenError` or :class:`AdmissionRejected`; the
        HTTP layer maps each to its status code.
        """
        t0 = self.clock()
        try:
            request = parse_session_request(doc, default_tenant=default_tenant)
        except TranslationError:
            self._count_rejection("(untranslated)", "bad-request")
            raise
        translation_s = self.clock() - t0
        tenant = request.tenant
        if self.state != SERVING:
            self._count_rejection(tenant, "draining")
            raise AdmissionRejected(
                "server is draining, not accepting sessions",
                reason="draining",
                retry_after=5.0,
            )
        t1 = self.clock()
        self.breakers.now = t1
        breaker = self.breakers.breaker(tenant)
        if not breaker.allow(t1):
            self._count_rejection(tenant, "circuit-open")
            if self.metrics.enabled:
                self.metrics.counter(
                    "circuit_rejections_total",
                    help="Calls rejected by an open circuit breaker",
                    labels={"service": tenant},
                ).inc()
            raise CircuitOpenError(
                f"circuit breaker for tenant {tenant!r} is {breaker.state} "
                f"(repeated session failures; retry later)"
            )
        try:
            self.admission.admit(
                tenant,
                active=self.store.count_in_state(tenant, QUEUED, RUNNING),
                queue_depth=self._queue.qsize(),
            )
        except (AdmissionRejected, UnknownTenant) as exc:
            reason = getattr(exc, "reason", "unknown-tenant")
            self._count_rejection(tenant, reason)
            raise
        session = self.store.create(tenant, request.spec)
        session.translation_s = translation_s
        session.admission_s = self.clock() - t1
        session._enqueued_at = self.clock()  # type: ignore[attr-defined]
        self._queue.put_nowait(session)
        if self.metrics.enabled:
            self.metrics.counter(
                "serve_sessions_submitted_total",
                help="Sessions admitted into the request queue",
                labels={"tenant": tenant},
            ).inc()
            depth = self.metrics.gauge(
                "serve_queue_depth_peak",
                help="High-water mark of the request queue",
            )
            depth.set_max(float(self._queue.qsize()))
        return session

    def _count_rejection(self, tenant: str, reason: str) -> None:
        per_tenant = self.rejections.setdefault(tenant, {})
        per_tenant[reason] = per_tenant.get(reason, 0) + 1
        if self.metrics.enabled:
            self.metrics.counter(
                "serve_rejections_total",
                help="Sessions rejected before entering the queue",
                labels={"tenant": tenant, "reason": reason},
            ).inc()

    # -- execution slots ------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            session = await self._queue.get()
            try:
                await self._execute(session)
            except Exception as exc:  # never kill a slot
                session.fail(type(exc).__name__, str(exc))
            finally:
                self._queue.task_done()

    async def _execute(self, session: Session) -> None:
        now = self.clock()
        session.queue_wait_s = now - getattr(session, "_enqueued_at", now)
        session.state = RUNNING
        cache_key = repr(session.spec)
        outcome = self._cache.get(cache_key) if self.config.cache else None
        if outcome is not None:
            session.cached = True
            self.cache_hits += 1
        else:
            started = self.clock()
            try:
                outcome = await asyncio.wait_for(
                    self.dispatcher.run(session.spec),
                    timeout=self.config.session_timeout_s,
                )
            except asyncio.TimeoutError:
                session.engine_wall_s = self.clock() - started
                self._book_failure(
                    session, "SessionTimeout",
                    f"run exceeded {self.config.session_timeout_s:g}s",
                )
                return
            session.engine_wall_s = (
                outcome.wall_seconds or (self.clock() - started)
            )
            if self.config.cache and outcome.ok:
                self._cache[cache_key] = outcome
        session.finish(outcome)
        if not session.cached:
            self._book_cluster(session)
        self.breakers.now = self.clock()
        if outcome.ok:
            self.breakers.record_success(session.tenant)
        else:
            self.breakers.record_failure(session.tenant)
            self.dead_letters.push(
                DeadLetter(
                    process_id=f"{session.tenant}/{session.id}",
                    period=0,
                    stream="serve",
                    time=self.breakers.now,
                    attempts=1,
                    error_type=outcome.error_type,
                    error=outcome.error,
                )
            )
        self._book_metrics(session)

    def _book_failure(self, session: Session, error_type: str, error: str) -> None:
        session.fail(error_type, error)
        self.breakers.now = self.clock()
        self.breakers.record_failure(session.tenant)
        self.dead_letters.push(
            DeadLetter(
                process_id=f"{session.tenant}/{session.id}",
                period=0,
                stream="serve",
                time=self.breakers.now,
                attempts=1,
                error_type=error_type,
                error=error,
            )
        )
        self._book_metrics(session)

    def _book_cluster(self, session: Session) -> None:
        """Fold one *executed* session's cluster telemetry into the serve
        view (cache hits skip this: they re-serve a recorded run, and
        counting its shipped records twice would lie).

        Single-host sessions carry neither replication stats nor
        failover reports and leave every gauge untouched.
        """
        outcome = session.outcome
        if outcome is None or outcome.result is None:
            return
        repl = outcome.result.replication
        reports = outcome.result.failover_reports
        if repl is None and not reports:
            return
        agg = self.replication
        agg["sessions"] += 1
        if repl is not None:
            agg["shipped_records"] += repl.shipped_records
            agg["max_lag_records"] = max(
                agg["max_lag_records"], repl.max_lag_records
            )
        agg["failovers"] += len(reports)
        agg["rpo_records"] += sum(r.rpo_records for r in reports)
        if not self.metrics.enabled:
            return
        labels = {"tenant": session.tenant}
        if repl is not None:
            self.metrics.gauge(
                "cluster_replica_lag_records",
                help="Worst follower lag observed in any clustered "
                     "session (WAL records behind the primary)",
                labels=labels,
            ).set_max(float(repl.max_lag_records))
            self.metrics.counter(
                "cluster_shipped_records_total",
                help="WAL records log-shipped to follower replicas "
                     "inside served sessions",
                labels=labels,
            ).inc(float(repl.shipped_records))
        if reports:
            self.metrics.counter(
                "serve_failovers_total",
                help="Primary failovers absorbed inside served sessions",
                labels=labels,
            ).inc(float(len(reports)))
            self.metrics.counter(
                "serve_rpo_records_total",
                help="Unreplicated-at-election WAL records across served "
                     "failovers (0 under sync shipping)",
                labels=labels,
            ).inc(float(sum(r.rpo_records for r in reports)))

    def _book_metrics(self, session: Session) -> None:
        latency = session.serve_overhead_s + session.engine_wall_s
        self._latencies.setdefault(session.tenant, []).append(latency)
        if not self.metrics.enabled:
            return
        labels = {"tenant": session.tenant}
        self.metrics.counter(
            "serve_sessions_total",
            help="Sessions that left the pipeline, by final state",
            labels={**labels, "state": session.state},
        ).inc()
        if session.cached:
            self.metrics.counter(
                "serve_cache_hits_total",
                help="Sessions served from the deterministic result cache",
                labels=labels,
            ).inc()
        for stage, value in (
            ("translation", session.translation_s),
            ("admission", session.admission_s),
            ("queue-wait", session.queue_wait_s),
        ):
            self.metrics.histogram(
                "serve_overhead_seconds",
                buckets=OVERHEAD_BUCKETS,
                help="Serving-layer overhead per session, by stage "
                     "(wall seconds; engine time excluded)",
                labels={**labels, "stage": stage},
            ).observe(value)
        self.metrics.histogram(
            "serve_engine_seconds",
            buckets=OVERHEAD_BUCKETS,
            help="Engine execution wall seconds per session "
                 "(0 for cache hits)",
            labels=labels,
        ).observe(session.engine_wall_s)
        if session.outcome is not None and session.outcome.result is not None:
            self.metrics.counter(
                "serve_navg_plus_total",
                help="Summed NAVG+ (tu) served to each tenant",
                labels=labels,
            ).inc(session.outcome.navg_plus_total())
        self.metrics.gauge(
            "serve_breaker_state",
            help="Tenant circuit-breaker state "
                 "(0 closed, 1 half-open, 2 open)",
            labels=labels,
        ).set(BREAKER_STATE_VALUES[self.breakers.breaker(session.tenant).state])
        self.metrics.gauge(
            "serve_dead_letters_depth",
            help="Failed sessions parked in the dead-letter queue",
        ).set(float(len(self.dead_letters)))

    # -- reporting -----------------------------------------------------------------

    async def wait(self, session: Session, timeout: float | None) -> bool:
        """Long-poll helper: true once the session reached a terminal state."""
        if session.terminal:
            return True
        try:
            await asyncio.wait_for(
                session.finished.wait(),
                timeout=timeout,
            )
            return True
        except asyncio.TimeoutError:
            return session.terminal

    def stats(self) -> dict:
        """The ``/healthz`` document."""
        return {
            "status": "ok" if self.state == SERVING else self.state,
            "state": self.state,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_capacity,
            "engine_slots": self.config.engine_slots,
            "dispatcher": self.dispatcher.name,
            "sessions": len(self.store),
            "cache_entries": len(self._cache),
            "cache_hits": self.cache_hits,
            "dead_letters": len(self.dead_letters),
            "dead_letters_by_class": self.dead_letters.by_error_type(),
            "breakers": self.breakers.state_counts(),
            "breaker_states": self.breakers.states(),
            "replication": dict(self.replication),
        }

    def tenant_report(self, tenant: str) -> dict:
        """Per-tenant aggregate: throughput, NAVG+, latency percentiles.

        Serving-layer overhead (translation + admission + queue wait)
        is reported separately from engine time, and both engine-side
        instance latency (tu, via the shared Monitor helper) and
        session round-trip latency (wall seconds) get p50/p95/p99.
        """
        sessions = self.store.for_tenant(tenant)
        done = [s for s in sessions if s.state == DONE]
        outcomes = [
            s.outcome for s in done
            if s.outcome is not None and s.outcome.result is not None
        ]
        navg_total = sum(o.navg_plus_total() for o in outcomes)
        instance_latencies_tu = [
            elapsed * outcome.spec.time
            for outcome in outcomes
            for elapsed in outcome.result.records.elapsed()
        ]
        wall = self._latencies.get(tenant, [])
        overhead_s = sum(s.serve_overhead_s for s in sessions)
        engine_s = sum(s.engine_wall_s for s in sessions)
        return {
            "tenant": tenant,
            "sessions": {
                "total": len(sessions),
                "queued": sum(1 for s in sessions if s.state == QUEUED),
                "running": sum(1 for s in sessions if s.state == RUNNING),
                "done": len(done),
                "failed": sum(1 for s in sessions if s.state == FAILED),
                "cached": sum(1 for s in sessions if s.cached),
            },
            "rejections": dict(self.rejections.get(tenant, {})),
            "navg_plus_total": round(navg_total, 6),
            "instances": sum(o.result.total_instances for o in outcomes),
            "verification_ok": all(
                o.result.verification.ok for o in outcomes
            ) if outcomes else None,
            "latency_s": latency_percentiles(wall),
            "engine_latency_tu": latency_percentiles(instance_latencies_tu),
            "overhead": {
                "serve_s": round(overhead_s, 6),
                "engine_s": round(engine_s, 6),
                "serve_share": round(
                    overhead_s / (overhead_s + engine_s), 6
                ) if (overhead_s + engine_s) > 0 else 0.0,
            },
        }

    def report(self) -> dict:
        """All tenants' reports plus server-wide stats."""
        tenants = sorted(
            set(self.store.tenants()) | set(self.rejections) - {"(untranslated)"}
        )
        return {
            "server": self.stats(),
            "tenants": {t: self.tenant_report(t) for t in tenants},
        }
