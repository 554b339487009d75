"""The ClusterManager: a sharded multi-host landscape with failover.

Ties the cluster layer together for one benchmark run:

* a :class:`HashRing` of ``N`` virtual hosts (overlay hosts ``H0..``,
  registered in the simulated network so replication traffic has link
  parameters to price), with a :class:`ShardMap` over the landscape's
  tables and a primary *home* per database,
* ``K`` follower :class:`DatabaseReplica` copies per database, kept
  warm by the :class:`LogShipper` off the StorageManager's replication
  hook,
* the failover protocol of :mod:`repro.cluster.failover` when a
  ``crash`` fault kills a host: detection → max-LSN election →
  promotion + catch-up → federated-catalog rerouting → redispatch of
  the parked in-flight message.

Which host a crash kills is itself deterministic: the ``k``-th crash of
a run kills the ``k``-th ring host still alive (round-robin over the
ring order), so two same-seed runs fail the same hosts at the same
virtual times.  Dead hosts stay dead until the next benchmark period
(period begin re-seeds the whole overlay, mirroring how the injector
heals the network).

The determinism contract is the same as storage's: nothing here touches
the counted query paths, consumes shared randomness or shifts the
event schedule.  All cluster costs — shipping, detection, election,
promotion — are modeled out of band, which is what lets a crashing
clustered run converge byte-identically to the fault-free single-host
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.failover import (
    ELECTION_COST_PER_CANDIDATE,
    FailoverReport,
    HeartbeatConfig,
    elect,
)
from repro.cluster.logship import REPLICATION_MODES, LogShipper, ReplicationStats
from repro.cluster.replica import DatabaseReplica
from repro.cluster.ring import HashRing, ShardMap
from repro.errors import ClusterError, EngineCrashed
from repro.resilience.deadletter import DeadLetter
from repro.storage.recovery import LOAD_COST_PER_ROW, REDO_COST_PER_RECORD
from repro.storage.snapshot import DatabaseSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.base import IntegrationEngine, ProcessEvent
    from repro.observability.metrics import MetricsRegistry
    from repro.services.network import Network
    from repro.storage.manager import StorageManager
    from repro.toolsuite.schedule import ScaleFactors

#: Virtual time between two failure-detector heartbeats, in tu.
HEARTBEAT_INTERVAL = 5.0

#: Histogram buckets for RTO, in engine units.
RTO_BUCKETS = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster topology + replication policy (picklable).

    ``repl_lag`` is in tu (like every schedule quantity) and only
    matters in ``async`` mode.
    """

    hosts: int = 3
    replicas: int = 1
    mode: str = "sync"
    repl_lag: float = 0.0
    repl_batch: int = 1
    vnodes: int = 8
    miss_threshold: int = 2

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ClusterError(
                f"a cluster needs at least 2 hosts, got {self.hosts}"
            )
        if not 1 <= self.replicas < self.hosts:
            raise ClusterError(
                f"replicas must be in [1, hosts-1]: "
                f"{self.replicas} with {self.hosts} host(s)"
            )
        if self.mode not in REPLICATION_MODES:
            raise ClusterError(
                f"unknown replication mode {self.mode!r}; "
                f"known: {REPLICATION_MODES}"
            )
        if self.repl_lag < 0:
            raise ClusterError(
                f"replication lag must be >= 0, got {self.repl_lag}"
            )
        if self.repl_batch < 1:
            raise ClusterError(
                f"replication batch must be >= 1, got {self.repl_batch}"
            )
        if self.miss_threshold < 1:
            raise ClusterError(
                f"miss threshold must be >= 1, got {self.miss_threshold}"
            )

    @property
    def host_names(self) -> list[str]:
        return [f"H{index}" for index in range(self.hosts)]


class ClusterManager:
    """Owns the ring, the replicas, the shipper and the failover path."""

    def __init__(
        self,
        config: ClusterConfig,
        storage: "StorageManager",
        network: "Network",
        factors: "ScaleFactors",
        seed: int,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.config = config
        self.storage = storage
        self.network = network
        self.factors = factors
        self.seed = seed
        self._metrics = metrics
        for host in config.host_names:
            network.add_host(host)
        self.ring = HashRing(config.host_names, seed=seed, vnodes=config.vnodes)
        self.heartbeat = HeartbeatConfig(
            interval=factors.tu_to_engine(HEARTBEAT_INTERVAL),
            miss_threshold=config.miss_threshold,
        )
        self.shipper = LogShipper(
            storage,
            network,
            mode=config.mode,
            lag=factors.tu_to_engine(config.repl_lag),
            batch=config.repl_batch,
            metrics=metrics,
        )
        #: db name -> [primary host, follower hosts...], current routing.
        self.placement: dict[str, list[str]] = {}
        self.shard_map: ShardMap | None = None
        self.dead_hosts: set[str] = set()
        self.period = -1
        self._crash_count = 0
        self.failover_reports: list[FailoverReport] = []
        #: Parked in-flight messages awaiting redispatch (drained by the
        #: client once the failover completes).
        self.parking: list[tuple[DeadLetter, "ProcessEvent"]] = []
        storage.replication = self

    # -- placement ---------------------------------------------------------------

    @property
    def alive_hosts(self) -> list[str]:
        return [h for h in self.ring.hosts if h not in self.dead_hosts]

    def home_of(self, db_name: str) -> str:
        placement = self.placement.get(db_name)
        return placement[0] if placement else self.ring.host_for(db_name)

    def _follower_hosts(self, db_name: str, primary: str) -> list[str]:
        """The next ``K`` live hosts clockwise, skipping the primary."""
        alive = self.alive_hosts
        preferred = self.ring.preference(db_name, len(alive), alive=alive)
        return [h for h in preferred if h != primary][: self.config.replicas]

    # -- period lifecycle ----------------------------------------------------------

    def begin_period(self, period: int) -> None:
        """Revive the overlay and seed fresh replicas from the baseline
        checkpoint (must run after :meth:`StorageManager.begin_period`)."""
        checkpoint = self.storage.checkpoint_state
        if checkpoint is None:
            raise ClusterError(
                "cluster period begun before the storage baseline "
                "checkpoint — begin the StorageManager's period first"
            )
        self.period = period
        self.dead_hosts.clear()
        self.parking.clear()
        self.shipper.replicas.clear()
        self.shipper.stats = ReplicationStats(
            mode=self.config.mode,
            hosts=self.config.hosts,
            replicas_per_db=self.config.replicas,
        )
        self.placement.clear()
        for name in sorted(self.storage.databases):
            primary = self.ring.host_for(name)
            followers = self._follower_hosts(name, primary)
            self.placement[name] = [primary] + followers
            snapshot = checkpoint.databases[name]
            as_of = self.storage.wals[name].last_lsn
            for host in followers:
                replica = DatabaseReplica(name, host, self.storage.databases[name])
                replica.seed(snapshot, as_of_lsn=as_of)
                self.shipper.add_replica(replica)
        self.shard_map = ShardMap.build(
            self.storage.databases.values(), self.ring
        )

    def end_period(self) -> None:
        """End-of-period drain: ship every follower to its primary's
        last LSN so the period boundary is a replication barrier."""
        self.shipper.flush_all(self.home_of)

    # -- StorageManager replication hook -------------------------------------------

    def on_commit(self, commit_id: int, at: float) -> None:
        self.shipper.on_commit(commit_id, at, self.home_of)

    def before_truncate(self) -> None:
        """Checkpoint barrier: flush every follower before the WAL tails
        are dropped (see :class:`LogShipper`), then recompute its views
        as restoring this checkpoint would."""
        self.shipper.flush_all(self.home_of)
        for followers in self.shipper.replicas.values():
            for replica in followers:
                replica.recompute_views()

    # -- failover ------------------------------------------------------------------

    def _next_victim(self) -> str:
        """The deterministic host the next crash fault kills."""
        order = self.ring.hosts
        for offset in range(len(order)):
            host = order[(self._crash_count + offset) % len(order)]
            if host not in self.dead_hosts:
                return host
        raise ClusterError("every cluster host is dead; cannot fail over")

    def park(self, event: "ProcessEvent", crash: EngineCrashed) -> None:
        """Dead-letter the in-flight message until the failover completes."""
        self.parking.append(
            (
                DeadLetter(
                    process_id=event.process_id,
                    period=event.period,
                    stream=event.stream,
                    time=crash.at,
                    attempts=1,
                    error_type="EngineCrashed",
                    error=str(crash),
                ),
                event,
            )
        )

    def pop_parked(self) -> "ProcessEvent | None":
        """Redispatch the oldest parked message (FIFO), if any."""
        if not self.parking:
            return None
        _letter, event = self.parking.pop(0)
        return event

    def failover(
        self, engine: "IntegrationEngine", crash: EngineCrashed
    ) -> FailoverReport:
        """Run the full failover protocol; returns the (open) report.

        The engine must already be redeployed and reattached, exactly
        like :meth:`RecoveryManager.recover` requires.  The report's RTO
        clock stays open until :meth:`complete_failover` is called with
        the first successfully served record.
        """
        started = time.perf_counter()
        storage = self.storage
        checkpoint = storage.checkpoint_state
        if checkpoint is None:
            raise ClusterError("failover without a checkpoint baseline")
        dead = self._next_victim()
        self._crash_count += 1
        self.dead_hosts.add(dead)
        if not self.alive_hosts:
            raise ClusterError("every cluster host is dead; cannot fail over")
        crash_at = crash.at
        detection = self.heartbeat.detection_delay(crash_at)

        storage.pause()  # promotion restore must not re-journal itself
        promoted: list[tuple[str, str, str, int]] = []
        rolled_back = rebuilt = candidates = 0
        rpo_records = catchup_records = rows_restored = reseeded = 0
        for name in sorted(storage.databases):
            db = storage.databases[name]
            wal = storage.wals[name]
            old_primary = self.home_of(name)
            followers = self.shipper.followers(name)
            for replica in followers:
                if replica.host in self.dead_hosts:
                    self.shipper.drop_replica(replica)
            live = [r for r in followers if r.host not in self.dead_hosts]
            if live:
                candidates += len(live)
                winner = elect(live)
                gap = wal.last_lsn - winner.applied_lsn
                if old_primary == dead:
                    rpo_records += gap
                catchup_records += winner.apply(
                    wal.records_since(winner.applied_lsn)
                )
                rows_restored += winner.promote_into(db)
                new_primary = (
                    winner.host if old_primary == dead else old_primary
                )
            else:
                # Degraded path: no live follower survived — rebuild from
                # the durable checkpoint + redo, like single-host recovery.
                rows_restored += checkpoint.databases[name].restore_into(db)
                for record in wal.committed_records():
                    db.redo(record.target, record.op, record.payload)
                    catchup_records += 1
                rebuilt += 1
                new_primary = (
                    self.ring.preference(name, 1, alive=self.alive_hosts)[0]
                    if old_primary == dead
                    else old_primary
                )
            if old_primary == dead:
                promoted.append((name, old_primary, new_primary, wal.last_lsn))
            else:
                rolled_back += 1
            new_followers = self._follower_hosts(name, new_primary)
            self.placement[name] = [new_primary] + new_followers
            current = {r.host: r for r in self.shipper.followers(name)}
            for host, replica in current.items():
                if host not in new_followers:
                    self.shipper.drop_replica(replica)
            snapshot = None
            for host in new_followers:
                if host in current:
                    continue
                if snapshot is None:
                    snapshot = DatabaseSnapshot.capture(db)
                replica = DatabaseReplica(name, host, db)
                replica.seed(snapshot, as_of_lsn=wal.last_lsn, views_from=db)
                self.shipper.add_replica(replica)
                reseeded += 1
        self.shipper.stats.reseeds += reseeded

        storage.restore_engine_state(engine)
        storage.resume()

        report = FailoverReport(
            index=len(self.failover_reports),
            period=self.period,
            dead_host=dead,
            crash_at=crash_at,
            detected_at=crash_at + detection,
            detection_eu=detection,
            promoted=tuple(promoted),
            rolled_back=rolled_back,
            rebuilt_from_log=rebuilt,
            rerouted=len(promoted),
            rpo_records=rpo_records,
            catchup_records=catchup_records,
            rows_restored=rows_restored,
            replicas_reseeded=reseeded,
            modeled_cost_eu=(
                detection
                + candidates * ELECTION_COST_PER_CANDIDATE
                + rows_restored * LOAD_COST_PER_ROW
                + catchup_records * REDO_COST_PER_RECORD
            ),
            wall_ms=(time.perf_counter() - started) * 1000.0,
            alive_hosts=tuple(self.alive_hosts),
        )
        self.failover_reports.append(report)
        if self._metrics is not None:
            self._metrics.counter(
                "cluster_failovers_total",
                help="Primary failovers performed",
            ).inc()
            self._metrics.counter(
                "cluster_rpo_records_total",
                help="LSN exposure at election time (0 under sync shipping)",
            ).inc(rpo_records)
        return report

    def complete_failover(
        self, report: FailoverReport, first_served_at: float
    ) -> None:
        """Close a report's RTO clock; idempotent per report."""
        if report.rto_eu is not None:
            return
        report.redispatched += 1
        report.complete(first_served_at)
        if self._metrics is not None:
            self._metrics.histogram(
                "cluster_rto",
                buckets=RTO_BUCKETS,
                help="Modeled recovery-time objective per failover, "
                     "engine units",
            ).observe(report.rto_eu)
