"""The measuring child: one fresh process per set-up probe or measured run.

``fastpath.STATS``, ``partition.STATS`` and the tier switches are
process-global and ``ru_maxrss`` is a high-water mark, so every
measurement happens in a process that has done nothing else.  The child
receives a :class:`~bench.workloads.Plan` (generated inputs only) and
sends one result dict back through its pipe.

A traced run measures a short *untraced* prefix first (same process,
same inputs), then installs the layer wrappers and measures the rest:
the ratio of the two unit medians is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import statistics
import time
import traceback
from dataclasses import replace

from bench import calibrate
from bench.layers import Tracer, calibrate_ns_per_call
from bench.workloads import Plan

_clock = time.perf_counter_ns

#: Periods at the start of a run whose per-period fingerprints are
#: compared with a fresh run of the plain reference spec.
CHECK_PERIODS = 2
#: Units always run, whatever ``--seconds`` says, so that p80 has its ten
#: samples beyond it even on a host too slow to fit them in the time box
#: (``--quick`` runs fewer and waives the rule).
MIN_UNITS = 50
QUICK_UNITS = 10
#: Per-layer *counts* are taken over exactly this many traced units
#: (twice as many sessions), so they repeat for a seed however many
#: units the time box allowed.
COUNT_UNITS = 10
#: Untraced units (periods / sessions) a traced run measures first.
UNTRACED_UNITS = 10
UNTRACED_SESSIONS = 20
#: Memory is read after exactly this many units: instance records pile
#: up period after period, so the high-water mark at the *end* of a
#: time-boxed run would grow whenever the program got faster.
RSS_UNITS = 50
#: Served reports compared byte for byte with a direct ``run_spec``.
REPORT_CORE = (
    "landscape_digest", "fingerprint", "instances", "errors",
    "verification_ok", "navg_plus", "navg_plus_total", "latency_tu",
)


def child_main(conn, plan: Plan, seconds: float, trace: bool, setup_only: bool,
               spawned_ns: int, kernel, cpu: int | None,
               min_units: int = MIN_UNITS) -> None:
    """Process entry point: run, send the result (or the failure), exit.

    ``kernel`` is the pipe to the run's kernel process, pinned to ``cpu``
    (see :mod:`bench.calibrate`); a single-threaded child pins itself
    there too, the served one leaves its workers both CPUs.

    The child leads a process group of its own, so that the parent can
    end whatever it started (the served pool's workers) even when the
    child itself had to be killed."""
    os.setpgid(0, 0)
    try:
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install_setup()
        if plan.spec is not None:
            calibrate.pin(cpu)
            result = _run_periods(
                plan, seconds, tracer, setup_only, spawned_ns, kernel, min_units
            )
        else:
            result = asyncio.run(_run_served(
                plan, seconds, tracer, setup_only, spawned_ns, kernel, min_units
            ))
        if tracer is not None:
            tracer.uninstall()
        conn.send(result)
    except BaseException:
        conn.send({"error": traceback.format_exc()})
        raise
    finally:
        conn.close()


def _setup_result(spawned_ns: int, kernel) -> dict:
    """Set-up ends now; the host's speed is sampled just after it."""
    setup_s = (_clock() - spawned_ns) / 1e9
    samples = [calibrate.sample(kernel) for _ in range(3)]
    return {"setup_s": setup_s, "setup_kernel_ns": statistics.median(samples)}


def _usage(who: int = resource.RUSAGE_SELF) -> tuple[float, float]:
    """(cpu seconds, peak RSS in MB) of this process, or with
    ``RUSAGE_CHILDREN`` of the children it has already reaped."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# -- period workloads ----------------------------------------------------------


def _build_client(spec):
    """Imports, landscape, engine, deployment: everything before unit 0."""
    if spec.synth:
        from repro.synth.runner import SynthClient

        client = SynthClient.from_spec(spec)
        client.engine.deploy_all(client.workload.processes.values())
    else:
        from repro.scenario.processes import build_processes
        from repro.toolsuite.client import BenchmarkClient

        client = BenchmarkClient.from_spec(spec)
        client.engine.deploy_all(build_processes().values())
    return client


def _databases(client) -> list:
    return [
        *client.scenario.all_databases.values(),
        *client.engine.durable_databases(),
    ]


def _period_digest(client, records) -> str:
    """Everything the determinism contract covers for one period."""
    from repro.storage import landscape_digest

    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr(record).encode())
        hasher.update(b"\x01")
    hasher.update(landscape_digest(client.scenario.all_databases.values()).encode())
    return hasher.hexdigest()


def _verify(client, spec, last_period: int):
    if spec.synth:
        from repro.synth.verify import verify_workload

        return verify_workload(client.workload, last_period)
    return client._phase_post(True)


def _client_counts(client) -> dict[str, float]:
    """Deterministic counters only reachable through the client."""
    counts: dict[str, float] = {
        "network.transfers": client.scenario.registry.network.transfer_count,
    }
    storage = getattr(client, "storage", None)
    if storage is not None:
        stats = storage.stats()
        for key in ("wal_records", "flushes", "checkpoints", "recoveries"):
            counts[f"storage.{key}"] = stats[key]
        counts["storage.redo_records"] = sum(
            report.redo_records for report in client.recovery_reports
        )
    return counts


def _process_counts(client) -> dict[str, float]:
    """Every deterministic counter an *untraced* child can read: the
    process-global ``STATS`` blocks plus what the client exposes."""
    from repro.db import fastpath, partition

    counts = {f"fastpath.{k}": v for k, v in fastpath.STATS.snapshot().items()}
    counts.update(
        {f"partition.{k}": v for k, v in partition.STATS.snapshot().items()}
    )
    counts.update(_client_counts(client))
    return counts


def _run_periods(plan: Plan, seconds: float, tracer: Tracer | None,
                 setup_only: bool, spawned_ns: int, kernel, min_units: int) -> dict:
    spec = plan.spec
    client = _build_client(spec)
    setup = _setup_result(spawned_ns, kernel)
    if setup_only:
        return setup

    from repro.db import partition

    unit_ms: list[float] = []
    untraced_ms: list[float] = []
    cpu_ms: list[float] = []
    kernel_ns = [calibrate.sample(kernel)]
    profiles: list[dict] = []
    digests: list[str] = []
    instances = failed_instances = 0
    counts_before = _process_counts(client)
    counts: dict[str, float] = {}
    rss_at_units = 0.0
    started = _clock()
    deadline = started + int(seconds * 1e9)
    unit = 0
    while True:
        tracing = tracer is not None and unit >= UNTRACED_UNITS
        if tracing and not profiles:
            tracer.install_layers()
        if tracing:
            before = _client_counts(client)
            tracer.begin_unit(unit)
        t0, c0 = _clock(), time.process_time_ns()
        records = client.run_period(unit % 100)
        elapsed_ms = (_clock() - t0) / 1e6
        cpu_ms.append((time.process_time_ns() - c0) / 1e6)
        if tracing:
            profile = tracer.end_unit()
            after = _client_counts(client)
            profile["counts"].update(
                {k: after[k] - before[k] for k in after if after[k] != before[k]}
            )
            profile["counts"]["engine.instances"] = len(records)
            profile["counts"]["engine.retries"] = sum(r.retries for r in records)
            profiles.append(profile)
        (untraced_ms if tracer is not None and not tracing else unit_ms).append(
            elapsed_ms
        )
        kernel_ns.append(calibrate.sample(kernel))
        instances += len(records)
        failed_instances += sum(1 for r in records if r.status != "ok")
        if unit < CHECK_PERIODS:
            digests.append(_period_digest(client, records))
        unit += 1
        if unit == COUNT_UNITS:
            # The same units for a seed however long the run goes on, so
            # these must repeat exactly (``counts_repeat_exactly``).
            now = _process_counts(client)
            counts = {k: now[k] - counts_before.get(k, 0) for k in now}
            counts["engine.instances"] = instances
            counts["engine.failed_instances"] = failed_instances
        if unit == RSS_UNITS:
            rss_at_units = _usage()[1]
        if len(unit_ms) >= min_units and _clock() >= deadline:
            break

    t0 = _clock()
    verification = _verify(client, spec, (unit - 1) % 100)
    verify_ms = (_clock() - t0) / 1e6
    t0 = _clock()
    client.monitor.metrics()
    navg_ms = (_clock() - t0) / 1e6
    peak_rss_mb = _usage()[1]

    gates = {"verification_ok": bool(verification.ok)}
    if spec.mem_budget is not None:
        budgets = [
            db.memory_budget for db in _databases(client)
            if db.memory_budget is not None
        ]
        gates["budget_spilled"] = partition.STATS.spills > 0
        gates["budget_peak_bounded"] = bool(budgets) and all(
            b.peak_resident_rows <= b.limit_rows + b.partition_rows
            for b in budgets
        )
        peak_resident = max((b.peak_resident_rows for b in budgets), default=0)
    else:
        gates["no_spill_without_budget"] = partition.STATS.spills == 0
        peak_resident = 0
    if spec.faults is not None and spec.faults.has_crashes:
        gates["one_recovery_per_period"] = len(client.recovery_reports) == unit
    recovery_ms = [r.wall_ms for r in getattr(client, "recovery_reports", [])]

    # The reference: a fresh client on the plain twin of the spec must
    # reproduce the first periods byte for byte (records + landscape).
    reference = _build_client(replace(plan.reference, periods=CHECK_PERIODS))
    expected = [
        _period_digest(reference, reference.run_period(k))
        for k in range(CHECK_PERIODS)
    ]
    gates["matches_reference"] = digests == expected

    slow = calibrate.slowdowns(kernel_ns)
    run_slow = calibrate.slowdown(statistics.median(kernel_ns))
    result = {
        **setup,
        "unit_ms": unit_ms,
        # The same in reference ms: each unit's time over the host's
        # slowdown next to it (a traced run's untraced prefix comes
        # first in the samples).  ``run_slowdown`` is the whole run's.
        "unit_ref_ms": [ms / f for ms, f in zip(unit_ms, slow[len(untraced_ms):])],
        "run_slowdown": run_slow,
        "kernel_ms": [ns / 1e6 for ns in kernel_ns],
        "instances": instances,
        "failed_instances": failed_instances,
        "sessions": 0,
        "failed_sessions": 0,
        # What the user waits for — the units, then verification and
        # NAVG+ — raw and in reference seconds.
        "work_wall_s": (sum(unit_ms) + verify_ms + navg_ms) / 1e3,
        "work_ref_s": (
            sum(ms / f for ms, f in zip(unit_ms, slow[len(untraced_ms):]))
            + (verify_ms + navg_ms) / run_slow
        ) / 1e3,
        # CPU seconds per unit (user + sys), raw and with each unit's
        # slowdown divided out.
        "cpu_s": sum(cpu_ms) / unit / 1e3,
        "cpu_ref_s": sum(ms / f for ms, f in zip(cpu_ms, slow)) / unit / 1e3,
        "peak_rss_mb": rss_at_units or peak_rss_mb,
        "verify_ms": verify_ms,
        "navg_ms": navg_ms,
        "synth": bool(spec.synth),
        "gates": gates,
        "serve": {},
        "counts": counts,
    }
    if tracer is not None:
        result["trace"] = {
            "untraced_ref_ms": [ms / f for ms, f in zip(untraced_ms, slow)],
            "profiles": profiles,
            "count_units": COUNT_UNITS,
            "spans": tracer.spans,
            "peak_resident_rows": peak_resident,
            "recovery_ms": recovery_ms,
            "ns_per_call": calibrate_ns_per_call(),
        }
    return result


# -- the served workload -------------------------------------------------------


def _install_worker_profile(tracer: Tracer) -> None:
    """Make pool workers (forked after this) profile each ``run_spec``.

    The worker's copy of the tracer wraps the run in a ``session`` unit
    and ships the profile home in ``RunOutcome.spans`` — a field no
    fingerprint or report reads.
    """
    from repro.parallel import pool

    original = pool.run_spec

    def profiled_run_spec(spec):
        tracer.databases.clear()
        tracer.spans = []
        tracer.begin_unit(spec.seed, "session")
        try:
            outcome = original(spec)
        finally:
            profile = tracer.end_unit()
        profile["spans"] = tracer.spans
        if outcome.result is not None:
            profile["counts"]["engine.instances"] = outcome.result.total_instances
            profile["counts"]["engine.retries"] = outcome.result.total_retries
        outcome.spans = [{"bench_profile": profile}]
        return outcome

    tracer._patch(pool, "run_spec", profiled_run_spec)


class _Served:
    """One in-process server plus its closed-loop client."""

    def __init__(self, kernel) -> None:
        from repro.serve import (
            HttpServer, ServeClient, ServeConfig, SessionManager, TenantPolicy,
        )
        from bench.workloads import SERVED_TENANTS

        # Admission limits far above what 2 closed-loop connections can
        # offer: a rejection here is a defect, not load shedding.
        tenants = {
            name: TenantPolicy(name=name, rate=1e6, burst=1e6, max_active=64)
            for name in SERVED_TENANTS
        }
        self.manager = SessionManager(ServeConfig(
            engine_slots=2, dispatcher="pool", cache=True,
            tenants=tenants, default_policy=None,
        ))
        self.server = HttpServer(self.manager)
        self._client_cls = ServeClient
        self.client = None
        self.kernel = kernel
        self.failed_sessions = 0
        #: This process's high-water mark once RSS_UNITS sessions were
        #: posted (its session store grows with every session).
        self.rss_at_units = 0.0

    async def start(self) -> None:
        await self.server.start(host="127.0.0.1", port=0)
        self.client = self._client_cls(self.server.host, self.server.port, timeout=120.0)
        health = await self.client.healthz()
        if not health.ok or (health.doc or {}).get("status") != "ok":
            raise RuntimeError(f"server not healthy: {health.status} {health.doc}")

    async def stop(self) -> None:
        await self.server.stop(drain=True)

    async def session(self, doc: dict) -> tuple[tuple[int, int], dict | None]:
        """One unit: POST the session, long-poll its report."""
        t0 = _clock()
        posted = await self.client.post_session(doc)
        report = None
        if posted.status == 202 and posted.doc is not None:
            reply = await self.client.get_report(
                posted.doc["id"], doc["tenant"], wait=60.0
            )
            if reply.status == 200 and (reply.doc or {}).get("state") == "done":
                report = reply.doc
        t1 = _clock()
        if report is None:
            self.failed_sessions += 1
        return (t0, t1), report

    async def closed_loop(self, docs: list[tuple[int, dict]], deadline: int | None,
                          at_least: int = 0) -> list[dict]:
        """Two connections, each posting its next session when the
        previous one's report has arrived, until the deadline passes
        (or, without one, until ``docs`` is used up).  Returns one row
        per session, by doc index.

        The kernel process samples by itself meanwhile (see
        :mod:`bench.calibrate`); each session's slowdown is read from the
        samples taken while it was in flight."""
        pending = list(reversed(docs))
        rows: list[dict] = []

        async def connection() -> None:
            while pending:
                if (deadline is not None and len(rows) >= at_least
                        and _clock() >= deadline):
                    return
                index, doc = pending.pop()
                row = {"index": index}
                rows.append(row)
                row["ns"], row["report"] = await self.session(doc)
                if len(rows) == RSS_UNITS:
                    self.rss_at_units = _usage()[1]
                row["engine_ms"] = self.manager.store.get(
                    row["report"]["id"], doc["tenant"]
                ).engine_wall_s * 1e3 if row["report"] is not None else 0.0

        with calibrate.FreeRun(self.kernel) as host:
            await asyncio.gather(connection(), connection())
        for row in rows:
            kernel_ns = host.kernel_ns_during(*row["ns"])
            row["ms"] = (row["ns"][1] - row["ns"][0]) / 1e6
            row["kernel_ms"] = kernel_ns / 1e6
            row["slowdown"] = calibrate.slowdown(kernel_ns)
            # Only the engine run (CPU-bound, in a pool worker) gets
            # slower with the host; the rest of a session is mostly
            # timer waits between server and pool, which do not.
            row["ref_ms"] = (
                row["ms"] - row["engine_ms"] + row["engine_ms"] / row["slowdown"]
            )
        return sorted(rows, key=lambda row: row["index"])


def _direct_report(doc: dict) -> dict:
    """What a served report's core must equal: the same spec run directly."""
    from repro.parallel.spec import run_spec
    from repro.serve import parse_session_request
    from repro.toolsuite.monitor import Monitor

    outcome = run_spec(parse_session_request(doc).spec)
    return {
        "landscape_digest": outcome.landscape_digest,
        "fingerprint": outcome.fingerprint(),
        "instances": outcome.result.total_instances,
        "errors": outcome.result.error_instances,
        "verification_ok": outcome.result.verification.ok,
        "navg_plus": {
            m.process_id: round(m.navg_plus, 6)
            for m in outcome.result.metrics.rows()
        },
        "navg_plus_total": round(outcome.navg_plus_total(), 6),
        "latency_tu": Monitor.merged([outcome]).latency_percentiles(),
    }


async def _run_served(plan: Plan, seconds: float, tracer: Tracer | None,
                      setup_only: bool, spawned_ns: int, kernel, min_units: int) -> dict:
    docs = list(enumerate(plan.sessions))
    served = _Served(kernel)
    await served.start()
    setup = _setup_result(spawned_ns, kernel)
    if setup_only:
        await served.stop()
        return setup
    cpu_before, _ = _usage()

    untraced: list[dict] = []
    try:
        if tracer is not None:
            # Untraced prefix on a server of its own: pool workers are
            # forked at server start, so the wrappers must exist first.
            untraced = await served.closed_loop(docs[:UNTRACED_SESSIONS], deadline=None)
            prefix_failed = served.failed_sessions
            await served.stop()
            tracer.install_layers()
            _install_worker_profile(tracer)
            served = _Served(kernel)
            served.failed_sessions = prefix_failed
            await served.start()
            docs = docs[UNTRACED_SESSIONS:]
        started = _clock()
        cold = await served.closed_loop(
            docs, deadline=started + int(seconds * 1e9), at_least=max(min_units, COUNT_UNITS * 2)
        )
        cold_wall_s = (_clock() - started) / 1e9
        # A run too short to finish ``plan.repeats`` cold sessions
        # (--quick) repeats what it has.
        repeats = await served.closed_loop(
            [(row["index"], plan.sessions[row["index"]]) for row in cold[:plan.repeats]],
            deadline=None,
        )
        # Own CPU, memory and spans end here (the identity check below
        # runs specs in this process, wrappers still installed); the
        # workers' CPU and memory are read once they are reaped.
        cpu_after, own_rss_mb = _usage()
        own_spans = list(tracer.spans) if tracer is not None else []

        sessions = {
            session.id: session
            for tenant in served.manager.store.tenants()
            for session in served.manager.store.for_tenant(tenant)
        }
        # Identity: one served report per engine, fetched again outside
        # the timed region, against a direct run of the same spec.
        mismatches = 0
        for row in cold[:4]:
            doc = plan.sessions[row["index"]]
            if row["report"] is None:
                mismatches += 1
                continue
            again = await served.client.get_report(row["report"]["id"], doc["tenant"])
            got = {key: (again.doc or {}).get(key) for key in REPORT_CORE}
            want = _direct_report(doc)
            mismatches += json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True)
        rejected = sum(
            sum(reasons.values()) for reasons in served.manager.rejections.values()
        )
        cache_hits = served.manager.cache_hits
    finally:
        await served.stop()
    workers_cpu, worker_rss_mb = _usage(resource.RUSAGE_CHILDREN)

    ok_cold = [row for row in cold if row["report"] is not None]
    gates = {
        "verification_ok": all(
            row["report"]["verification_ok"] for row in ok_cold + repeats
            if row["report"] is not None
        ),
        "no_rejections": rejected == 0,
        "repeats_all_cached": cache_hits == len(repeats) and all(
            row["report"] is not None and row["report"]["cached"] for row in repeats
        ),
        "cold_never_cached": len(ok_cold) == len(cold) and not any(
            row["report"]["cached"] for row in ok_cold
        ),
        "reports_match_direct_run": mismatches == 0,
    }
    run_slow = statistics.median(row["slowdown"] for row in cold)
    server_side = [sessions[row["report"]["id"]] for row in ok_cold]
    serve = {
        "overhead_ms": [
            row["ms"] - session.engine_wall_s * 1e3
            for row, session in zip(ok_cold, server_side)
        ],
        "queue_wait_ms": [session.queue_wait_s * 1e3 for session in server_side],
        "cached_ms": [row["ms"] for row in repeats],
        "cache_hit_ratio": cache_hits / len(repeats) if repeats else 0.0,
        "rejected": rejected,
        "translate_us": _translate_us([plan.sessions[row["index"]] for row in cold]),
    }
    # The first sessions by document index: the same ones for a seed
    # however many more the time box allowed.
    head = ok_cold[:COUNT_UNITS * 2]
    result = {
        **setup,
        "unit_ms": [row["ms"] for row in cold],
        "unit_ref_ms": [row["ref_ms"] for row in cold],
        "run_slowdown": run_slow,
        "kernel_ms": [row["kernel_ms"] for row in cold],
        # Both connections are always inside a session, so the cold
        # phase's wall scales like the sessions' summed time.
        "work_wall_s": cold_wall_s,
        "work_ref_s": cold_wall_s * sum(row["ref_ms"] for row in cold)
        / sum(row["ms"] for row in cold),
        # Repeats re-serve recorded runs: they complete no new instances.
        "instances": sum(row["report"]["instances"] for row in ok_cold),
        "failed_instances": sum(row["report"]["errors"] for row in ok_cold),
        "sessions": len(cold) + len(repeats) + len(untraced),
        "failed_sessions": served.failed_sessions,
        # Server process plus its reaped pool workers, per cold session
        # (the workers' CPU cannot be read session by session).
        "cpu_s": (cpu_after - cpu_before + workers_cpu) / len(cold),
        "cpu_ref_s": (cpu_after - cpu_before + workers_cpu) / len(cold) / run_slow,
        # Server process plus its largest pool worker.
        "peak_rss_mb": (served.rss_at_units or own_rss_mb) + worker_rss_mb,
        "verify_ms": 0.0,
        "navg_ms": 0.0,
        "synth": False,
        "gates": gates,
        "serve": serve,
        "counts": {
            "engine.instances": sum(row["report"]["instances"] for row in head),
            "engine.failed_instances": sum(row["report"]["errors"] for row in head),
            "serve.sessions_counted": len(head),
            "serve.rejected": rejected,
        },
    }
    if tracer is not None:
        profiles = []
        spans = own_spans
        for row, session in zip(ok_cold, server_side):
            if session.outcome is not None and session.outcome.spans:
                profile = dict(session.outcome.spans[0]["bench_profile"])
                spans.extend(profile.pop("spans"))
                profiles.append(profile)
        result["trace"] = {
            "untraced_ref_ms": [row["ref_ms"] for row in untraced],
            "profiles": profiles,
            "count_units": COUNT_UNITS * 2,
            "spans": spans,
            "peak_resident_rows": 0,
            "recovery_ms": [],
            "ns_per_call": calibrate_ns_per_call(),
        }
    return result


def _translate_us(docs: list[dict]) -> list[float]:
    """``parse_session_request`` timed directly on the posted documents."""
    from repro.serve import parse_session_request

    samples = []
    for doc in docs:
        t0 = _clock()
        parse_session_request(doc)
        samples.append((_clock() - t0) / 1e3)
    return samples
