"""Asynchronous WAL log-shipping from primaries to follower replicas.

The shipper hangs off the :class:`StorageManager`'s replication hook:
every group commit offers each database's freshly sealed redo records
for shipment to that database's followers over the simulated network.

Two modes:

``sync``
    Every commit is shipped and acknowledged inside the commit — the
    followers are never behind, so a failover's RPO is 0 by
    construction.
``async``
    Records buffer per follower and ship when either the batch size is
    reached or the oldest buffered commit is older than the configured
    replication lag (virtual time).  Followers run behind by up to the
    lag window — the RPO exposure a failover measures.

Checkpoint truncation is a *replication barrier*: before the
StorageManager drops a WAL tail, the shipper force-flushes every
follower up to the last LSN, so a lagging replica can never end up with
a hole it cannot fill (the alternative — re-seeding from the checkpoint
— would make replication cost depend on checkpoint cadence).

Determinism: shipping cost is modeled from the link parameters
(``latency + records/bandwidth``, times the active degradation factor)
read directly off the network — never through
:meth:`Network.transfer_cost`, which consumes the shared jitter RNG and
the run's transfer counters.  Replication therefore adds zero
perturbation to the measured schedule; its cost is reported out of band
through :class:`ReplicationStats` and the ``cluster_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.replica import DatabaseReplica
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry
    from repro.services.network import Network
    from repro.storage.manager import StorageManager

#: Replication modes (the CLI's ``--mode`` values).
REPLICATION_MODES = ("sync", "async")


@dataclass
class ReplicationStats:
    """Lifetime log-shipping statistics of one run (picklable)."""

    mode: str = "sync"
    hosts: int = 0
    replicas_per_db: int = 0
    replica_count: int = 0
    shipped_records: int = 0
    batches: int = 0
    transfer_cost_eu: float = 0.0
    max_lag_records: int = 0
    reseeds: int = 0

    def describe(self) -> str:
        return (
            f"replication[{self.mode}]: {self.shipped_records} record(s) in "
            f"{self.batches} batch(es) to {self.replica_count} replica(s) "
            f"on {self.hosts} host(s); max lag {self.max_lag_records} "
            f"record(s), modeled transfer cost {self.transfer_cost_eu:.2f} eu"
        )


class LogShipper:
    """Ships each attached database's WAL to its follower replicas."""

    def __init__(
        self,
        storage: "StorageManager",
        network: "Network",
        mode: str = "sync",
        lag: float = 0.0,
        batch: int = 1,
        metrics: "MetricsRegistry | None" = None,
    ):
        if mode not in REPLICATION_MODES:
            raise ClusterError(
                f"unknown replication mode {mode!r}; "
                f"known: {REPLICATION_MODES}"
            )
        if lag < 0:
            raise ClusterError(f"replication lag must be >= 0, got {lag}")
        if batch < 1:
            raise ClusterError(f"batch size must be >= 1, got {batch}")
        self.storage = storage
        self.network = network
        self.mode = mode
        self.lag = lag  # engine units
        self.batch = batch
        self._metrics = metrics
        #: db name -> follower replicas, in placement order.
        self.replicas: dict[str, list[DatabaseReplica]] = {}
        #: commit id -> commit virtual time (for the async lag window).
        self._commit_at: dict[int, float] = {}
        self.stats = ReplicationStats(mode=mode)

    # -- follower management ---------------------------------------------------

    def add_replica(self, replica: DatabaseReplica) -> None:
        self.replicas.setdefault(replica.db_name, []).append(replica)
        self.stats.replica_count = sum(
            len(group) for group in self.replicas.values()
        )

    def drop_replica(self, replica: DatabaseReplica) -> None:
        group = self.replicas.get(replica.db_name, [])
        if replica in group:
            group.remove(replica)
        self.stats.replica_count = sum(
            len(group) for group in self.replicas.values()
        )

    def followers(self, db_name: str) -> list[DatabaseReplica]:
        return list(self.replicas.get(db_name, []))

    # -- shipping --------------------------------------------------------------

    def _link_cost(self, src: str, dst: str, records: int) -> float:
        """Modeled transfer cost without touching the network's RNG or
        the run's transfer counters (see module docstring)."""
        if src == dst:
            return 0.0
        link = self.network.default_link
        cost = link.latency + records / link.bandwidth
        return cost * self.network.degradation(src, dst)

    def _ship(
        self, db_name: str, replica: DatabaseReplica, up_to_lsn: int,
        primary_host: str,
    ) -> int:
        wal = self.storage.wals[db_name]
        pending = [
            record
            for record in wal.records_since(replica.applied_lsn)
            if record.lsn <= up_to_lsn
        ]
        if not pending:
            return 0
        applied = replica.apply(pending)
        self.stats.shipped_records += applied
        self.stats.batches += 1
        self.stats.transfer_cost_eu += self._link_cost(
            primary_host, replica.host, applied
        )
        if self._metrics is not None:
            self._metrics.counter(
                "cluster_shipped_records_total",
                help="WAL records shipped to follower replicas",
            ).inc(applied)
            self._metrics.counter(
                "cluster_ship_batches_total",
                help="Log-shipping batches sent",
            ).inc()
        return applied

    def on_commit(self, commit_id: int, at: float, home_of) -> None:
        """Replication hook: one group commit just sealed at ``at``.

        ``home_of`` maps a database name to its current primary host
        (placement changes after a failover, so the shipper asks every
        time instead of caching).
        """
        self._commit_at[commit_id] = at
        for db_name, wal in self.storage.wals.items():
            followers = self.replicas.get(db_name)
            if not followers:
                continue
            last = wal.last_lsn
            for replica in followers:
                if replica.applied_lsn >= last:
                    continue
                if self.mode == "sync":
                    self._ship(db_name, replica, last, home_of(db_name))
                    continue
                pending = wal.records_since(replica.applied_lsn)
                overdue = any(
                    self._commit_at.get(record.commit_id, at) <= at - self.lag
                    for record in pending
                )
                if len(pending) >= self.batch or overdue:
                    self._ship(db_name, replica, last, home_of(db_name))
        self._note_lag()

    def flush_all(self, home_of) -> int:
        """Ship every follower to its primary's last LSN.

        The checkpoint barrier (called before WAL truncation) and the
        end-of-period drain.  Returns records shipped.
        """
        shipped = 0
        for db_name, wal in self.storage.wals.items():
            for replica in self.replicas.get(db_name, []):
                shipped += self._ship(
                    db_name, replica, wal.last_lsn, home_of(db_name)
                )
        self._commit_at.clear()
        self._note_lag()
        return shipped

    # -- observation -----------------------------------------------------------

    def lag_records(self) -> int:
        """Current worst-case follower lag, in records."""
        worst = 0
        for db_name, wal in self.storage.wals.items():
            for replica in self.replicas.get(db_name, []):
                worst = max(worst, wal.last_lsn - replica.applied_lsn)
        return worst

    def _note_lag(self) -> None:
        lag = self.lag_records()
        self.stats.max_lag_records = max(self.stats.max_lag_records, lag)
        if self._metrics is not None:
            self._metrics.gauge(
                "cluster_replica_lag_records",
                help="Peak follower lag behind the primary WAL, in records",
            ).set_max(float(lag))
