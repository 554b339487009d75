"""The cost model: categories, unit prices and per-instance breakdowns.

Section V adopts the cost model of [22]: integration-process costs fall
into *communication* C_c (waiting for external systems), *internal
management* C_m (plan creation, reorganization — not correlated to a
concrete instance) and *processing* C_p (all control- and data-flow
processing steps).  All three are included in the performance metric.

In our virtual-time substrate, C_p is priced from the work units the
operators report (rows, XML events, control steps), C_c comes from the
network model, and C_m is assembled from a per-instance plan-creation
price plus a load-dependent share that grows with the engine's queue
length — the paper's "shorter interval … reduces the time for
self-management and thus reduces the performance of the system".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineError
from repro.mtm.context import WORK_CONTROL, WORK_KINDS, WORK_RELATIONAL, WORK_XML

_KNOWN_KINDS = frozenset(WORK_KINDS)


@dataclass(frozen=True)
class CostParameters:
    """Unit prices (in tu) turning reported work into processing cost.

    The two engine realizations differ exactly here: the federated DBMS
    executes relational work cheaply (its optimizer covers it) but pays a
    high price for XML work (proprietary functions outside the optimizer),
    plus a queue-table overhead per received message.
    """

    relational_unit: float = 0.02
    xml_unit: float = 0.05
    control_unit: float = 0.5
    #: C_m: fixed plan-creation/lookup price per instance.
    plan_cost: float = 1.0
    #: C_m: additional management price per instance already queued when
    #: a new instance arrives (self-management pressure).
    reorg_per_queued: float = 0.4
    #: C_m: extra fixed price per received message (the federated
    #: queue-table insert, an ETL tool's per-message pickup; 0.0 for
    #: the interpreter and the EAI server).
    receive_overhead: float = 0.0

    def processing_cost(self, work_units: dict[str, float]) -> float:
        """Price reported work units into C_p."""
        if not _KNOWN_KINDS.issuperset(work_units):
            unknown = set(work_units) - _KNOWN_KINDS
            raise EngineError(f"unknown work kinds {sorted(unknown)}")
        return (
            work_units.get(WORK_RELATIONAL, 0.0) * self.relational_unit
            + work_units.get(WORK_XML, 0.0) * self.xml_unit
            + work_units.get(WORK_CONTROL, 0.0) * self.control_unit
        )

    def management_cost(self, queue_length: int) -> float:
        """Price C_m for an instance arriving with ``queue_length`` waiting."""
        if queue_length < 0:
            raise EngineError(f"negative queue length: {queue_length}")
        return self.plan_cost + self.reorg_per_queued * queue_length


#: Cost profile of a dedicated integration system (interpreter engine):
#: balanced prices, no queue-table overhead.
INTERPRETER_COSTS = CostParameters()

#: Cost profile of the federated DBMS reference implementation:
#: relational work is optimizer-covered (cheap), XML work is proprietary
#: and unoptimized (expensive), and every received message pays the
#: queue-table insert + trigger dispatch (Fig. 9a).
FEDERATED_COSTS = CostParameters(
    relational_unit=0.012,
    xml_unit=0.22,
    control_unit=0.7,
    plan_cost=1.5,
    reorg_per_queued=0.5,
    receive_overhead=1.2,
)


@dataclass
class CostBreakdown:
    """Per-instance costs in the three categories of the model."""

    communication: float = 0.0
    management: float = 0.0
    processing: float = 0.0

    @property
    def total(self) -> float:
        return self.communication + self.management + self.processing
