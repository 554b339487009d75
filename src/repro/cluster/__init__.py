"""repro.cluster: sharded multi-host landscape with replicated WALs.

The cluster layer turns the single-host durability story of PR 3 into a
distributed one: the scenario databases are spread over ``N`` virtual
hosts by consistent hashing (:mod:`~repro.cluster.ring`), each
database's WAL is log-shipped to ``K`` follower replicas
(:mod:`~repro.cluster.logship` / :mod:`~repro.cluster.replica`), and a
``crash`` fault that kills a primary triggers a deterministic failover
(:mod:`~repro.cluster.failover`) with measured RTO and RPO — all
without perturbing the byte-identical benchmark schedule.
"""

from repro.cluster.failover import (
    ELECTION_COST_PER_CANDIDATE,
    FailoverReport,
    HeartbeatConfig,
    elect,
)
from repro.cluster.logship import REPLICATION_MODES, LogShipper, ReplicationStats
from repro.cluster.manager import ClusterConfig, ClusterManager
from repro.cluster.replica import DatabaseReplica
from repro.cluster.ring import (
    LARGE_TABLE_ROWS,
    SHARDS_PER_LARGE_TABLE,
    HashRing,
    ShardMap,
)

__all__ = [
    "ELECTION_COST_PER_CANDIDATE",
    "LARGE_TABLE_ROWS",
    "REPLICATION_MODES",
    "SHARDS_PER_LARGE_TABLE",
    "ClusterConfig",
    "ClusterManager",
    "DatabaseReplica",
    "FailoverReport",
    "HashRing",
    "HeartbeatConfig",
    "LogShipper",
    "ReplicationStats",
    "ShardMap",
    "elect",
]
