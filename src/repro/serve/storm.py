"""``repro storm``: a seeded load generator of virtual benchmark clients.

A *storm* drives many virtual clients against one serve endpoint and
reports what the serving layer did under pressure: per-tenant
throughput, round-trip latency percentiles, the full 429/503
accounting, and how much of the latency was serving overhead versus
engine time.

Two arrival models, both classic load-generator shapes:

``open``
    Clients arrive by a seeded Poisson process at ``rate`` arrivals per
    second, regardless of how the server is coping — the model that
    actually produces backpressure (queue-full and rate-limit 429s are
    *expected* output, and the report proves they were accounted).
``closed``
    A fixed population of ``concurrency`` clients; each waits for its
    previous session before issuing the next, with seeded think time.
    Arrival rate adapts to server speed, so this model measures
    best-case service latency instead of overload behaviour.

Every virtual client is deterministic given the storm seed: its tenant,
its spec (drawn from a small pool of ``distinct`` specs — deterministic
runs make repeat specs cache hits, which is what lets a thousand-client
storm finish in seconds), its arrival slot and its think times all come
from ``random.Random(seed)``.  Wall-clock *timings* still vary run to
run — the accounting identity (submitted = accepted + rejected +
errors) is what must always hold, and :meth:`StormReport.check` asserts
it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.declare import knob, problems, refuse
from repro.errors import ServeError
from repro.parallel.spec import KNOBS, RunSpec
from repro.serve.client import ServeClient
from repro.serve.translate import CONTRACT_V1, spec_to_json
from repro.toolsuite.monitor import latency_percentiles

ARRIVAL_MODELS = ("open", "closed")


@dataclass(frozen=True)
class StormConfig:
    """One storm, fully determined by these knobs plus the wall clock."""

    clients: int = knob(100, "--clients", "virtual clients to launch",
                        bounds="[1, inf)")
    tenants: tuple[str, ...] = knob(("acme", "globex"), "--tenants", "comma-separated "
                                    "tenant names", bounds="[1, inf)", split=",")
    model: str = knob("open", "--model", "arrival model: open = seeded Poisson "
                      "arrivals at --rate, closed = fixed population of "
                      "--concurrency clients", choices=ARRIVAL_MODELS)
    rate: float = knob(200.0, "--rate", "open-loop arrivals per second across all "
                       "tenants", bounds="(0, inf)")
    concurrency: int = knob(16, "--concurrency", "closed-loop client population",
                            bounds="[1, inf)")
    think_s: float = knob(0.0, help="closed loop: mean seeded think time between "
                          "sessions (seconds)", bounds="[0, inf)")
    seed: int = knob(7, "--seed", "seed of every client's tenant, spec, arrival and "
                     "think time; pool seeds are seed * 1000 + k")
    distinct: int = knob(4, "--distinct", "distinct specs in the client pool "
                         "(repeats are cache hits)", bounds="[1, inf)",
                         complaint="{name}: spec pool must be >= 1: {value}")
    #: The benchmark shape every pooled spec shares, declared as RunSpec
    #: declares it; empty ``synth`` storms the classic scenario.
    engine: str = knob("interpreter", **KNOBS["engine"].metadata)
    datasize: float = knob(0.02, **KNOBS["datasize"].metadata)
    time: float = knob(1.0, **KNOBS["time"].metadata)
    synth: str = knob("", **KNOBS["synth"].metadata)
    wait_s: float = knob(30.0, help="per-session completion wait (long-poll bound, "
                         "seconds)", bounds="[0, inf)")

    def __post_init__(self) -> None:
        # The shared shape is checked up front, so a bad one fails at
        # config time and not as N HTTP 400s.
        found = problems(self) or self._pooled(0).problems()
        refuse(ServeError, "storm config", found)

    def _pooled(self, k: int) -> RunSpec:
        return RunSpec(
            engine=self.engine,
            datasize=self.datasize,
            time=self.time,
            seed=self.seed * 1000 + k,
            synth=self.synth,
        )

    def spec_pool(self) -> list[dict]:
        """The ``distinct`` spec documents clients draw from.

        Pool entries differ only by seed — for synthesized workloads the
        generator inherits the spec seed, so each pool entry is a
        distinct-but-deterministic generated scenario (distinct cache
        keys server-side, repeatable across storms).
        """
        return [spec_to_json(self._pooled(k)) for k in range(self.distinct)]


@dataclass
class _ClientPlan:
    """Everything one virtual client will do, fixed before launch."""

    index: int
    tenant: str
    spec: dict
    #: Open loop: seconds after storm start this client fires.
    at: float
    think_s: float


def _plan_clients(config: StormConfig) -> list[_ClientPlan]:
    """Derive every client's behaviour from the storm seed alone."""
    rng = random.Random(config.seed)
    pool = config.spec_pool()
    plans: list[_ClientPlan] = []
    clock = 0.0
    for index in range(config.clients):
        clock += rng.expovariate(config.rate)
        plans.append(
            _ClientPlan(
                index=index,
                tenant=config.tenants[index % len(config.tenants)],
                spec=rng.choice(pool),
                at=clock,
                think_s=(
                    rng.expovariate(1.0 / config.think_s)
                    if config.think_s > 0 else 0.0
                ),
            )
        )
    return plans


@dataclass
class TenantTally:
    """One tenant's accounting through a storm."""

    submitted: int = 0
    accepted: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    #: 429/503 rejections by stable reason string.
    rejected: dict[str, int] = field(default_factory=dict)
    #: Transport/protocol errors (timeouts, resets, unexpected statuses).
    errors: int = 0
    #: Round-trip wall latency per completed session (seconds).
    latencies_s: list[float] = field(default_factory=list)
    serve_overhead_ms: float = 0.0
    engine_wall_ms: float = 0.0

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())


@dataclass
class StormReport:
    """What the storm measured; renders as JSON or a text table."""

    config: StormConfig
    duration_s: float
    tenants: dict[str, TenantTally]
    #: Server-side per-tenant aggregates (NAVG+ etc.), when reachable.
    server_reports: dict[str, dict] = field(default_factory=dict)
    healthz: dict = field(default_factory=dict)

    @property
    def submitted(self) -> int:
        return sum(t.submitted for t in self.tenants.values())

    @property
    def accepted(self) -> int:
        return sum(t.accepted for t in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(t.rejected_total for t in self.tenants.values())

    @property
    def errors(self) -> int:
        return sum(t.errors for t in self.tenants.values())

    def check(self) -> None:
        """The accounting identity every storm must satisfy."""
        if self.submitted != self.accepted + self.rejected + self.errors:
            raise ServeError(
                f"storm accounting broken: {self.submitted} submitted != "
                f"{self.accepted} accepted + {self.rejected} rejected "
                f"+ {self.errors} errors"
            )

    def to_json(self) -> dict:
        tenants = {}
        for name, tally in sorted(self.tenants.items()):
            total_ms = tally.serve_overhead_ms + tally.engine_wall_ms
            tenants[name] = {
                "submitted": tally.submitted,
                "accepted": tally.accepted,
                "completed": tally.completed,
                "failed": tally.failed,
                "cached": tally.cached,
                "rejected": dict(sorted(tally.rejected.items())),
                "errors": tally.errors,
                "throughput_per_s": round(
                    tally.completed / self.duration_s, 3
                ) if self.duration_s > 0 else 0.0,
                "latency_s": {
                    k: round(v, 6)
                    for k, v in latency_percentiles(tally.latencies_s).items()
                },
                "overhead": {
                    "serve_ms": round(tally.serve_overhead_ms, 3),
                    "engine_ms": round(tally.engine_wall_ms, 3),
                    "serve_share": round(
                        tally.serve_overhead_ms / total_ms, 4
                    ) if total_ms > 0 else 0.0,
                },
                "server": self.server_reports.get(name, {}),
            }
        return {
            "contract": CONTRACT_V1,
            "model": self.config.model,
            "clients": self.config.clients,
            "seed": self.config.seed,
            "duration_s": round(self.duration_s, 3),
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "throughput_per_s": round(
                self.accepted / self.duration_s, 3
            ) if self.duration_s > 0 else 0.0,
            "tenants": tenants,
            "healthz": self.healthz,
        }

    def format(self) -> str:
        lines = [
            f"storm: {self.config.clients} clients, "
            f"{len(self.tenants)} tenant(s), model={self.config.model}, "
            f"seed={self.config.seed}",
            f"duration: {self.duration_s:.2f}s   submitted={self.submitted} "
            f"accepted={self.accepted} rejected={self.rejected} "
            f"errors={self.errors}",
            "",
            f"{'tenant':<10}{'sub':>6}{'acc':>6}{'done':>6}{'cach':>6}"
            f"{'429':>6}{'err':>5}{'thr/s':>8}"
            f"{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}{'serve%':>8}",
        ]
        for name, tally in sorted(self.tenants.items()):
            pct = latency_percentiles(tally.latencies_s)
            total_ms = tally.serve_overhead_ms + tally.engine_wall_ms
            share = tally.serve_overhead_ms / total_ms if total_ms else 0.0
            throughput = (
                tally.completed / self.duration_s if self.duration_s else 0.0
            )
            lines.append(
                f"{name:<10}{tally.submitted:>6}{tally.accepted:>6}"
                f"{tally.completed:>6}{tally.cached:>6}"
                f"{tally.rejected_total:>6}{tally.errors:>5}"
                f"{throughput:>8.1f}"
                f"{pct['p50'] * 1e3:>9.1f}{pct['p95'] * 1e3:>9.1f}"
                f"{pct['p99'] * 1e3:>9.1f}{share * 100:>7.1f}%"
            )
        for name, tally in sorted(self.tenants.items()):
            if tally.rejected:
                reasons = ", ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(tally.rejected.items())
                )
                lines.append(f"  {name} rejections: {reasons}")
        return "\n".join(lines)


class Storm:
    """Runs one storm against a serve endpoint."""

    def __init__(self, config: StormConfig, client: ServeClient):
        self.config = config
        self.client = client
        self.tallies: dict[str, TenantTally] = {
            tenant: TenantTally() for tenant in config.tenants
        }

    async def run(self) -> StormReport:
        plans = _plan_clients(self.config)
        started = time.perf_counter()
        if self.config.model == "open":
            await self._run_open(plans)
        else:
            await self._run_closed(plans)
        duration = time.perf_counter() - started
        report = StormReport(
            config=self.config,
            duration_s=duration,
            tenants=self.tallies,
        )
        await self._collect_server_side(report)
        return report

    async def _run_open(self, plans: list[_ClientPlan]) -> None:
        started = time.perf_counter()

        async def fire(plan: _ClientPlan) -> None:
            delay = plan.at - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            await self._one_session(plan)

        await asyncio.gather(*(fire(plan) for plan in plans))

    async def _run_closed(self, plans: list[_ClientPlan]) -> None:
        pending = list(reversed(plans))  # pop() serves them in plan order

        async def worker() -> None:
            while pending:
                plan = pending.pop()
                await self._one_session(plan)
                if plan.think_s > 0:
                    await asyncio.sleep(plan.think_s)

        await asyncio.gather(
            *(worker() for _ in range(
                min(self.config.concurrency, len(plans))
            ))
        )

    async def _one_session(self, plan: _ClientPlan) -> None:
        """One virtual client: submit, then follow the session home."""
        tally = self.tallies[plan.tenant]
        tally.submitted += 1
        doc = {
            "contract": CONTRACT_V1,
            "tenant": plan.tenant,
            "spec": plan.spec,
        }
        t0 = time.perf_counter()
        try:
            reply = await self.client.post_session(doc)
        except (OSError, asyncio.TimeoutError, ServeError):
            tally.errors += 1
            return
        if reply.status in (429, 503):
            reason = (reply.doc or {}).get("reason", f"http-{reply.status}")
            tally.rejected[reason] = tally.rejected.get(reason, 0) + 1
            return
        if reply.status != 202 or reply.doc is None:
            tally.errors += 1
            return
        tally.accepted += 1
        session_id = reply.doc["id"]
        try:
            status = await self.client.get_session(
                session_id, plan.tenant, wait=self.config.wait_s
            )
        except (OSError, asyncio.TimeoutError, ServeError):
            tally.failed += 1
            return
        tally.latencies_s.append(time.perf_counter() - t0)
        doc = status.doc or {}
        if doc.get("state") == "done":
            tally.completed += 1
            if doc.get("cached"):
                tally.cached += 1
            timings = doc.get("timings", {})
            tally.serve_overhead_ms += timings.get("serve_overhead_ms", 0.0)
            tally.engine_wall_ms += timings.get("engine_wall_ms", 0.0)
        else:
            tally.failed += 1

    async def _collect_server_side(self, report: StormReport) -> None:
        try:
            healthz = await self.client.healthz()
            report.healthz = healthz.doc or {}
            for tenant in self.config.tenants:
                reply = await self.client.tenant_report(tenant)
                if reply.ok and reply.doc is not None:
                    report.server_reports[tenant] = reply.doc
        except (OSError, asyncio.TimeoutError, ServeError):
            pass  # report still stands on client-side tallies alone


async def run_storm(
    config: StormConfig,
    host: str | None = None,
    port: int | None = None,
    serve_config=None,
) -> StormReport:
    """Run one storm; self-host a server unless an address is given.

    Self-hosted mode boots an in-process :class:`HttpServer` on a free
    port, runs the storm, drains and stops the server — the CLI and CI
    smoke path.  Pass ``host``/``port`` to aim at a live server instead.
    """
    from repro.serve.http import HttpServer
    from repro.serve.manager import ServeConfig, SessionManager

    server: HttpServer | None = None
    if host is None:
        manager = SessionManager(serve_config or ServeConfig())
        server = HttpServer(manager)
        await server.start(host="127.0.0.1", port=0)
        host, port = server.host, server.port
    if port is None:
        raise ServeError("storm needs a port when a host is given")
    try:
        storm = Storm(config, ServeClient(host, port))
        report = await storm.run()
        report.check()
        return report
    finally:
        if server is not None:
            await server.stop(drain=True)
