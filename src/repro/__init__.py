"""DIPBench reproduction: a benchmark for data-intensive integration processes.

This library reproduces *DIPBench* (Boehm, Habich, Lehner, Wloka -- IEEE
ICDE Workshops 2008): a scalable, platform-independent benchmark for
integration systems (ETL tools, EAI servers, replication and federated
DBMS), together with every substrate it needs, implemented from scratch
in pure Python.

Quickstart::

    from repro.parallel import RunSpec, client_from_spec

    client = client_from_spec(RunSpec(datasize=0.05, time=1.0, periods=5))
    result = client.run()
    print(result.metrics.as_table())
    print(client.monitor.performance_plot())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.db` -- in-memory relational engine (tables, triggers,
  stored procedures, materialized views),
* :mod:`repro.xmlkit` -- XML documents, XSD validation, XPath subset,
  STX-like streaming transformations,
* :mod:`repro.services` -- simulated network + web-service endpoints,
* :mod:`repro.datagen` -- seeded distributions and data generators,
* :mod:`repro.mtm` -- the Message Transformation Model process language,
* :mod:`repro.engine` -- the integration engines under test,
* :mod:`repro.scenario` -- the DIPBench scenario (schemas, topology,
  the 15 process types),
* :mod:`repro.metrics` -- cost normalization and the NAVG+ metric,
* :mod:`repro.optimizer` -- rule-based process rewrites (ablations),
* :mod:`repro.toolsuite` -- Initializer, Client, Monitor, verification.
"""

from repro.engine import (
    FederatedEngine,
    InstanceRecord,
    IntegrationEngine,
    MtmInterpreterEngine,
    ProcessEvent,
)
from repro.metrics import compute_metrics
from repro.scenario import PROCESS_TABLE, Scenario, build_processes, build_scenario
from repro.toolsuite import (
    BenchmarkClient,
    BenchmarkResult,
    Initializer,
    Monitor,
    ScaleFactors,
    build_schedule,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "build_scenario",
    "build_processes",
    "PROCESS_TABLE",
    "Scenario",
    "MtmInterpreterEngine",
    "FederatedEngine",
    "IntegrationEngine",
    "InstanceRecord",
    "ProcessEvent",
    "BenchmarkClient",
    "BenchmarkResult",
    "Initializer",
    "Monitor",
    "ScaleFactors",
    "build_schedule",
    "compute_metrics",
]
