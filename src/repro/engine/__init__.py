"""Integration engines: the systems under test.

Four engines execute the platform-independent MTM process definitions
through one instance body (:meth:`IntegrationEngine._execute_instance`)
and differ by price list and trigger:

* :class:`MtmInterpreterEngine` — a dedicated integration system that
  interprets operator trees directly,
* :class:`EaiEngine` and :class:`EtlEngine` — the same interpreter with
  an EAI server's and a batch ETL tool's prices,
* :class:`FederatedEngine` — the paper's reference realization on a
  federated DBMS (Section VI, Fig. 9): event-type-E1 processes become a
  queue table plus an AFTER INSERT trigger, event-type-E2 processes become
  stored procedures.  Its cost profile mirrors the paper's observation
  that relational operators "could be well-optimized" while the
  "proprietary XML functionalities … are apparently not included in the
  optimizer".

All run in virtual time: per-instance costs are assembled from the
three categories of the paper's cost model — communication C_c,
management C_m and processing C_p — and instances queue for a bounded
worker pool, which is where the schedule-pressure effects of the time
scale factor come from.
"""

from repro.engine.costs import CostBreakdown, CostParameters
from repro.engine.base import InstanceRecord, IntegrationEngine, ProcessEvent
from repro.engine.interpreter import MtmInterpreterEngine
from repro.engine.federated import FederatedEngine
from repro.engine.eai import EaiEngine, EtlEngine

#: Engine catalog: the CLI, the parallel sweep executor and the
#: benchmarks all resolve engine names through this one registry.
ENGINES: dict[str, type[IntegrationEngine]] = {
    "interpreter": MtmInterpreterEngine,
    "federated": FederatedEngine,
    "eai": EaiEngine,
    "etl": EtlEngine,
}

__all__ = [
    "CostParameters",
    "CostBreakdown",
    "ProcessEvent",
    "InstanceRecord",
    "IntegrationEngine",
    "MtmInterpreterEngine",
    "FederatedEngine",
    "EaiEngine",
    "EtlEngine",
    "ENGINES",
]
