"""Picklable run specifications and the single-run entrypoint.

A :class:`RunSpec` is the pure-data description of one benchmark run —
one point of the paper's (datasize, time, distribution) scale grid, at
one seed, on one engine, with the run's resilience fault timeline and
durability settings carried along.  It contains no live objects: a
worker process receives nothing but the spec and builds its own
landscape, engine and clocks from it (:func:`client_from_spec`),
which is what makes sweeping the grid across ``multiprocessing`` workers
byte-identical to running it serially.

:func:`run_spec` executes one spec end to end and returns a
:class:`RunOutcome` — itself picklable, carrying the full
:class:`BenchmarkResult`, the landscape digest, and (when requested) the
worker's metrics shard for the parent to merge.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass

from repro.declare import fields_of, knob, problems
from repro.engine import ENGINES
from repro.engine.base import InstanceRecord
from repro.errors import ReproError
from repro.observability.metrics import MetricsRegistry
from repro.resilience import FaultSpec
from repro.storage import DURABILITY_MODES
from repro.toolsuite.client import BenchmarkClient, BenchmarkResult
from repro.toolsuite.schedule import ScaleFactors


class SweepError(ReproError):
    """Sweep misconfiguration: bad grid axes, bad worker counts."""


@dataclass(frozen=True)
class RunSpec:
    """One benchmark configuration, as plain picklable data.

    Every field declares its own CLI flag, range (:func:`repro.declare.knob`)
    and ``session/v1`` membership (``wire=True``: accepted and echoed);
    ``physical`` marks a knob that changes where rows live, never what a
    run computes, so it is not in :attr:`label`.  The
    CLI parsers, the serving translator and the knob table in
    docs/parallel.md derive from these declarations.
    """

    engine: str = knob(
        "interpreter", "--engine", "engine realization to run", wire=True,
        choices=lambda: sorted(ENGINES),
        complaint="{name}: unknown engine {value!r} (choose from {choices})",
    )
    datasize: float = knob(
        0.05, "--datasize", "scale factor d", wire=True, bounds="(0, 10]"
    )
    time: float = knob(
        1.0, "--time", "scale factor t", wire=True, bounds="(0, 100]"
    )
    distribution: int = knob(
        0, "--distribution",
        "scale factor f: 0 uniform, 1 zipf, 2 normal, 3 exponential",
        wire=True, choices=(0, 1, 2, 3),
    )
    periods: int = knob(
        1, "--periods", "benchmark periods to execute (1-100)",
        wire=True, bounds="[1, 100]",
    )
    seed: int = knob(
        42, "--seed", "seed of everything the run draws at random",
        wire=True,
    )
    jitter: float = knob(
        0.0, "--jitter", "network jitter fraction in [0, 1)",
        wire=True, bounds="[0, 1)",
    )
    engine_workers: int = knob(
        4, "--workers",
        "engine worker-pool size: the engine's virtual concurrency",
        wire=True, bounds="[1, inf)", complaint="{name}: must be >= 1: {value}",
    )
    sandiego_error_rate: float = knob(0.15, wire=True, bounds="[0, 1]")
    faults: FaultSpec | None = knob(
        None, "--faults",
        "fault spec file: its deterministic fault schedule is injected "
        "and the run gets resilience policies (retry/backoff, circuit "
        "breakers, dead-letter queue)",
        metavar="SPEC.json", parse=FaultSpec.load,
    )
    max_attempts: int = knob(
        4, "--max-attempts",
        "retry budget per process instance under --faults",
        bounds="[1, inf)",
    )
    durability: str = knob(
        "off", "--durability",
        "durability mode: off, wal (period-baseline checkpoint + redo "
        "log) or snapshot+wal (plus periodic checkpoints)",
        wire=True, choices=("off",) + DURABILITY_MODES,
    )
    #: In tu.  Below the lower bound every cadence means the same thing
    #: (a checkpoint at every commit), so it is refused as a typo.
    checkpoint_every: float | None = knob(
        None, "--checkpoint-every",
        "checkpoint cadence in tu under --durability snapshot+wal",
        metavar="TU", wire=True, bounds="[1e-06, 1e+09]",
    )
    #: Cluster overlay: 0 hosts = single-host classic run; >= 2 builds a
    #: consistent-hash cluster with ``cluster_replicas`` log-shipped
    #: followers per database (``repl_lag`` in tu, async mode only).
    cluster_hosts: int = knob(
        0, "--hosts", "virtual cluster hosts (0 = single host)"
    )
    cluster_replicas: int = knob(
        1, "--replicas", "follower replicas per database"
    )
    repl_mode: str = knob(
        "sync", "--mode", "log-shipping mode (sync has RPO=0)",
        choices=("sync", "async"),
    )
    repl_lag: float = knob(
        0.0, "--repl-lag", "async replication lag window in tu",
        metavar="TU", bounds="[0, inf)",
    )
    repl_batch: int = knob(
        1, "--repl-batch", "async shipping batch size in records",
        bounds="[1, inf)",
    )
    verify: bool = knob(
        True, "--no-verify", "skip phase-post verification", wire=True
    )
    collect_metrics: bool = False
    collect_trace: bool = False
    #: The spec's own ``seed`` is inherited by the synthesizer unless
    #: the knob string pins one.
    synth: str = knob(
        "", "--synth",
        "synthesized-workload knob string (repro.synth), e.g. "
        "sources=3,depth=2,families=cdc+scd; empty runs the classic "
        "DIPBench scenario",
        metavar="KNOBS", wire=True,
    )
    #: A budgeted run occupies the same grid point (and must
    #: fingerprint identically) as its unbudgeted twin.
    mem_budget: int | None = knob(
        None, "--mem-budget",
        "per-database resident-row budget: tables partition and spill "
        "cold partitions to disk past this many rows, results stay "
        "byte-identical (default unlimited)",
        metavar="ROWS", physical=True, bounds="[1, inf)",
    )

    @property
    def factors(self) -> ScaleFactors:
        return ScaleFactors(
            datasize=self.datasize,
            time=self.time,
            distribution=self.distribution,
        )

    @property
    def label(self) -> str:
        """Stable human-readable grid-point identity.

        Classic runs keep the historical four-factor label byte for
        byte; a synthesized run appends its knob string, which is part
        of the grid point's identity (and so of the fingerprint).
        """
        base = (
            f"{self.engine} d={self.datasize:g} t={self.time:g} "
            f"f={self.distribution} seed={self.seed}"
        )
        if self.synth:
            return f"{base} synth={self.synth}"
        return base

    def problems(self) -> list[str]:
        """Every reason this is not a valid run, as ``field: complaint``.

        The declared ranges, the cluster's shape (0 or at least 2 hosts,
        replicas in [1, hosts - 1]), the synth knob string's own
        problems, the one knob a synthesized run cannot honour (the
        classic San Diego order error rate), the two knobs that need
        durability (crash recovery and a cluster both replay the WAL)
        and a crash timeline that kills every cluster host in one
        period: the serving translator prefixes each with ``spec.`` for
        its 400 body, the CLI prints them and exits 2, the client's
        constructor refuses to build anything while the list is
        non-empty.
        """
        found = problems(self)
        hosts = self.cluster_hosts
        clustered = hosts >= 2
        if hosts and not clustered:
            found.append(f"cluster_hosts: must be 0 or >= 2: {hosts}")
        elif clustered and not 1 <= self.cluster_replicas < hosts:
            found.append(
                f"cluster_replicas: must be in [1, {hosts - 1}] with "
                f"{hosts} cluster hosts: {self.cluster_replicas}"
            )
        if self.durability == "off":
            if self.faults is not None and self.faults.has_crashes:
                found.append(
                    "faults: the spec schedules engine crashes, and crash "
                    "recovery needs durability wal or snapshot+wal"
                )
            if clustered:
                found.append(
                    "cluster_hosts: a cluster replicates the WAL, so it "
                    f"needs durability wal or snapshot+wal: {hosts}"
                )
        if clustered and self.faults is not None:
            # A crash kills one host, which stays dead until the next
            # period; an event without a period recurs in every one.
            crashes = [e.period for e in self.faults.events if e.kind == "crash"]
            pinned = Counter(
                p for p in crashes if p is not None and p < self.periods
            )
            worst = crashes.count(None) + max(pinned.values(), default=0)
            if worst >= hosts:
                found.append(
                    f"faults: {worst} crashes in one period kill all "
                    f"{hosts} cluster hosts, and a dead host "
                    "stays dead until the next period"
                )
        if self.synth:
            from repro.synth.spec import knob_problems

            default = KNOBS["sandiego_error_rate"].default
            if self.sandiego_error_rate != default:
                found.append(
                    "sandiego_error_rate: a classic-scenario knob, "
                    f"meaningless with synth set: {self.sandiego_error_rate}"
                )
            found.extend(f"synth: {p}" for p in knob_problems(self.synth))
        return found


#: RunSpec's declarations by field name, in field order.
KNOBS = fields_of(RunSpec)


@dataclass
class RunOutcome:
    """Everything one executed :class:`RunSpec` produced.

    ``status`` is ``"ok"`` for a completed run, ``"error"`` when
    :func:`run_spec` contained an exception, and ``"crashed"`` when the
    worker process executing the spec died outright.  ``wall_seconds``
    is a real measurement and is deliberately excluded from
    :meth:`fingerprint`.
    """

    spec: RunSpec
    status: str = "ok"
    error_type: str = ""
    error: str = ""
    result: BenchmarkResult | None = None
    landscape_digest: str = ""
    metrics_shard: MetricsRegistry | None = None
    #: Filled by no run: a wrapper around :func:`run_spec` (the layer
    #: profiler under ``bench/``) ships its own rows home in it.
    spans: list[dict] | None = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def crashed(cls, spec: RunSpec) -> "RunOutcome":
        """The deterministic record of a dead worker's grid point."""
        return cls(
            spec=spec,
            status="crashed",
            error_type="WorkerCrashed",
            error=f"worker process died while executing {spec.label}",
        )

    @classmethod
    def failed(cls, spec: RunSpec, exc: BaseException) -> "RunOutcome":
        return cls(
            spec=spec,
            status="error",
            error_type=type(exc).__name__,
            error=str(exc),
        )

    def _record_identity(self, record: InstanceRecord) -> str:
        return repr(record)

    def fingerprint(self) -> str:
        """Content hash of everything the determinism contract covers.

        Byte-identity of a parallel sweep with the serial one means: the
        landscape digest, every per-instance record, the NAVG+ table and
        the verification outcome of each grid point match — this digest
        is over exactly those, never over wall-clock measurements.
        """
        hasher = hashlib.sha256()
        hasher.update(self.label.encode())
        hasher.update(f"\x00{self.status}\x00{self.error_type}\x00".encode())
        hasher.update(self.landscape_digest.encode())
        if self.result is not None:
            for record in self.result.records:
                hasher.update(self._record_identity(record).encode())
                hasher.update(b"\x01")
            hasher.update(self.result.metrics.as_table().encode())
            hasher.update(b"\x02")
            hasher.update(
                "\n".join(self.result.verification.checks).encode()
            )
            hasher.update(
                "\n".join(self.result.verification.failures).encode()
            )
        return hasher.hexdigest()

    @property
    def label(self) -> str:
        return self.spec.label

    def navg_plus_total(self) -> float:
        """Sum of NAVG+ over the process types (one scalar per point)."""
        if self.result is None:
            return 0.0
        return sum(m.navg_plus for m in self.result.metrics.rows())

    def to_json(self) -> dict:
        """Deterministic JSON row (no wall-clock fields)."""
        row: dict = {
            "engine": self.spec.engine,
            "datasize": self.spec.datasize,
            "time": self.spec.time,
            "distribution": self.spec.distribution,
            "seed": self.spec.seed,
            "periods": self.spec.periods,
            "status": self.status,
            "error_type": self.error_type,
            "landscape_digest": self.landscape_digest,
            "fingerprint": self.fingerprint(),
        }
        if self.spec.synth:
            row["synth"] = self.spec.synth
        if self.result is not None:
            row["instances"] = self.result.total_instances
            row["errors"] = self.result.error_instances
            row["verification_ok"] = self.result.verification.ok
            row["navg_plus"] = {
                m.process_id: round(m.navg_plus, 6)
                for m in self.result.metrics.rows()
            }
        return row


def client_from_spec(spec: RunSpec, workload=None):
    """The client of one :class:`RunSpec`: a synthesized-workload client
    when the spec sets ``synth`` or ``workload`` hands over an already
    synthesized one (``repro synth run`` has built it for its manifest),
    the classic one otherwise.  The client's constructor wires the run.
    """
    if spec.synth or workload is not None:
        from repro.synth.runner import SynthClient

        return SynthClient(spec, workload)
    return BenchmarkClient(spec)


def run_spec(spec: RunSpec) -> RunOutcome:
    """Execute one :class:`RunSpec` in-process and contain its failures.

    Any exception (bad spec, engine failure the client could not absorb)
    becomes an ``"error"`` outcome with a structured ``error_type``
    instead of propagating — one broken grid point must never take the
    sweep down.
    """
    from repro.storage import landscape_digest

    started = time.perf_counter()
    try:
        client = client_from_spec(spec)
        result = client.run(verify=spec.verify)
        digest = landscape_digest(client.scenario.all_databases.values())
        return RunOutcome(
            spec=spec,
            status="ok",
            result=result,
            landscape_digest=digest,
            metrics_shard=client.observability.metrics,
            wall_seconds=time.perf_counter() - started,
        )
    except Exception as exc:
        outcome = RunOutcome.failed(spec, exc)
        outcome.wall_seconds = time.perf_counter() - started
        return outcome
