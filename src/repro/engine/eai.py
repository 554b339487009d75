"""EAI-server and ETL-tool realizations (the paper's announced further
reference implementations: "we currently realize experiments with EAI
servers and ETL tools").

An Enterprise Application Integration server is message-oriented
middleware: messages are its native currency, so XML handling is cheap
and highly concurrent — but it has no relational engine of its own, so
set-oriented work (joins, unions, bulk loads) runs row-at-a-time through
the message layer at a steep premium.

An ETL tool is the opposite pole: a batch engine with a heavily
optimized bulk-relational pipeline and cheap-ish XML staging, but a
substantial *job-startup* price per process instance — fine for the
scheduled E2 loads it was built for, punishing for per-message E1
traffic.

Together with the MTM interpreter and the federated DBMS this spans the
realization space the paper sketches; each engine wins exactly where its
substrate is native, which is the comparability story the benchmark
exists to tell.
"""

from __future__ import annotations

from repro.engine.costs import CostParameters
from repro.engine.interpreter import MtmInterpreterEngine

#: Cost profile of a message-oriented EAI server: native XML pipeline
#: (cheap, streaming), lightweight routing (cheap control), but
#: row-at-a-time relational processing (expensive) and per-message
#: broker dispatch instead of plan caching.
EAI_COSTS = CostParameters(
    relational_unit=0.08,
    xml_unit=0.018,
    control_unit=0.3,
    plan_cost=0.6,
    reorg_per_queued=0.25,
    receive_overhead=0.0,
)


#: Cost profile of a batch ETL tool: the cheapest bulk-relational
#: pipeline of all realizations and decent XML staging, but every
#: process instance pays a job-startup price, and per-message dispatch
#: adds pickup overhead — the E1 anti-pattern.
ETL_COSTS = CostParameters(
    relational_unit=0.008,
    xml_unit=0.06,
    control_unit=0.9,
    plan_cost=5.0,
    reorg_per_queued=0.3,
    receive_overhead=2.0,
)


class EaiEngine(MtmInterpreterEngine):
    """Message-oriented middleware as the system under test.

    Structurally an MTM interpreter (EAI servers execute integration
    flows natively) with the EAI cost profile.
    """

    engine_name = "eai-server"
    cost_parameters = EAI_COSTS


class EtlEngine(MtmInterpreterEngine):
    """A batch ETL tool as the system under test.

    Structurally an MTM interpreter with the ETL cost profile and a
    lower parallel efficiency — ETL jobs are few and fat, not many and
    thin.  Its ``receive_overhead`` models the per-message pickup (the
    file-drop / polling overhead) an ETL tool pays when misused as an
    online message handler.
    """

    engine_name = "etl-tool"
    cost_parameters = ETL_COSTS
    parallel_efficiency = 0.8
