"""Deterministic failover: detection → election → promotion → redispatch.

The protocol a :class:`ClusterManager` runs when a ``crash`` fault kills
a virtual host:

1. **Failure detection** — virtual-time heartbeats every
   ``HEARTBEAT_INTERVAL`` tu; a host is declared dead after
   ``miss_threshold`` consecutive missed beats.  Heartbeats are modeled
   (they never enter the event schedule), so detection time is a pure
   function of the crash time, the interval and the threshold —
   deterministic, and strictly positive.
2. **Leader election** — among the dead primary's live followers, the
   one with the highest applied LSN wins; ties break on the smallest
   host id.  No randomness, no real clocks: two runs elect identically.
3. **Promotion** — the winner catches up any LSN gap from the durable
   WAL (the measured RPO exposure), copies its state into the live
   database object, and the cluster's placement routes the database
   to the new primary.
4. **Redispatch** — the in-flight message the crash interrupted is
   parked in the dead-letter queue during the failover and redispatched
   (with its pristine copy) once the new primary serves.

RTO is ``detection + election + promotion (modeled) + (first served
completion − crash)`` — reported out of band, like recovery time, so
the schedule itself stays byte-identical to the fault-free run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.replica import DatabaseReplica

#: Modeled election cost per candidate follower considered (engine units).
ELECTION_COST_PER_CANDIDATE = 0.25


@dataclass(frozen=True)
class HeartbeatConfig:
    """The failure detector's knobs (times in engine units)."""

    interval: float = 5.0
    miss_threshold: int = 2

    def detection_delay(self, crash_at: float) -> float:
        """Virtual time from the crash to the dead declaration.

        Beats land at ``k * interval`` for ``k >= 1``; the first beat
        strictly after the crash is missed, and the declaration comes
        ``miss_threshold`` missed beats later.
        """
        first_missed = (math.floor(crash_at / self.interval) + 1) * self.interval
        detected_at = first_missed + (self.miss_threshold - 1) * self.interval
        return detected_at - crash_at


def elect(candidates: "Sequence[DatabaseReplica]") -> "DatabaseReplica":
    """Max-LSN election with host-id tiebreak (deterministic)."""
    return sorted(candidates, key=lambda r: (-r.applied_lsn, r.host))[0]


@dataclass
class FailoverReport:
    """What one failover did, and what it cost (picklable).

    Times are engine units; the Monitor scales them to tu.  ``rto_eu``
    and ``first_served_at`` are filled once the first redispatched
    request completes; ``rpo_records`` counts the LSNs the elected
    follower had not yet applied at election time — 0 under sync
    shipping, lag-bounded under async (the gap is then recovered from
    the durable WAL, so it is measured exposure, not silent loss).
    """

    index: int
    period: int
    dead_host: str
    crash_at: float
    detected_at: float
    detection_eu: float
    #: ``(db_name, old_primary, new_primary, lsn at promotion)`` tuples.
    promoted: tuple = ()
    #: Databases on surviving hosts rolled back to the committed state
    #: (their primaries lost only the in-doubt, uncommitted work).
    rolled_back: int = 0
    #: Databases recovered from checkpoint + WAL redo because no live
    #: follower survived (degraded path; 0 on a healthy cluster).
    rebuilt_from_log: int = 0
    #: Database routes (placement entries) repointed at new primaries.
    rerouted: int = 0
    rpo_records: int = 0
    catchup_records: int = 0
    rows_restored: int = 0
    replicas_reseeded: int = 0
    redispatched: int = 0
    modeled_cost_eu: float = 0.0
    first_served_at: float | None = None
    rto_eu: float | None = None
    wall_ms: float = 0.0
    #: Live-host set after this failover, for post-mortems.
    alive_hosts: tuple = field(default_factory=tuple)

    def complete(self, first_served_at: float) -> None:
        """Close the RTO clock at the first successfully served request."""
        self.first_served_at = first_served_at
        self.rto_eu = self.modeled_cost_eu + max(
            0.0, first_served_at - self.crash_at
        )

    def describe(self) -> str:
        rto = f"{self.rto_eu:.2f}" if self.rto_eu is not None else "?"
        names = ", ".join(entry[0] for entry in self.promoted) or "none"
        return (
            f"failover #{self.index} p{self.period}: host {self.dead_host} "
            f"died at t={self.crash_at:.1f}, detected after "
            f"{self.detection_eu:.1f} eu; promoted {len(self.promoted)} "
            f"database(s) [{names}], rolled back {self.rolled_back}, "
            f"rerouted {self.rerouted} catalog route(s); "
            f"RPO={self.rpo_records} record(s), RTO={rto} eu "
            f"({self.rows_restored} rows restored, "
            f"{self.catchup_records} records caught up)"
        )
