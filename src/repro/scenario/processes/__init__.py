"""The 15 benchmark process types of Table I, plus the P14 subprocesses.

====== ===== ================================================  =====
group  id    description (Table I)                             event
====== ===== ================================================  =====
A      P01   Master data exchange Asia                         E1
A      P02   Master data subscription Europe                   E1
A      P03   Local data consolidation America                  E2
B      P04   Receive messages from Vienna                      E1
B      P05   Extract data from Berlin                          E2
B      P06   Extract data from Paris                           E2
B      P07   Extract data from Trondheim                       E2
B      P08   Receive messages from Hongkong                    E1
B      P09   Extract wrapped data from Beijing and Seoul       E2
B      P10   Receive error-prone messages from San Diego       E1
B      P11   Extract data from CDB America                     E2
C      P12   Bulk-loading data warehouse master data           E2
C      P13   Bulk-loading data warehouse movement data         E2
D      P14   Refreshing data mart data                         E2
D      P15   Refreshing data mart materialized views           E2
====== ===== ================================================  =====

:func:`build_processes` returns every deployable process type (P01–P15
and the P14 subprocess family) as engine-agnostic MTM definitions, fresh
trees at every call; :func:`resident_processes` is the set a benchmark
client deploys, one per process.  The modeled flows are intentionally
*suboptimal* exactly where the paper says so ("we explicitly point out
that the modeled processes are suboptimal") —
e.g. P05/P06 extract full tables and filter in the process, which is what
:mod:`repro.optimizer` later improves in the ablation benchmarks.
"""

from __future__ import annotations

import threading

from repro.mtm.process import ProcessType
from repro.scenario.processes.group_a import build_p01, build_p02, build_p03
from repro.scenario.processes.group_b import (
    build_p04,
    build_p05,
    build_p06,
    build_p07,
    build_p08,
    build_p09,
    build_p10,
    build_p11,
)
from repro.scenario.processes.group_c import build_p12, build_p13
from repro.scenario.processes.group_d import (
    build_p14,
    build_p14_subprocesses,
    build_p15,
)

#: Table I, as data: (group, id, description).
PROCESS_TABLE: list[tuple[str, str, str]] = [
    ("A", "P01", "Master data exchange Asia"),
    ("A", "P02", "Master data subscription Europe"),
    ("A", "P03", "Local data consolidation America"),
    ("B", "P04", "Receive messages from Vienna"),
    ("B", "P05", "Extract data from Berlin"),
    ("B", "P06", "Extract data from Paris"),
    ("B", "P07", "Extract data from Trondheim"),
    ("B", "P08", "Receive messages from Hongkong"),
    ("B", "P09", "Extract wrapped data from Beijing and Seoul"),
    ("B", "P10", "Receive error-prone messages from San Diego"),
    ("B", "P11", "Extract data from CDB America"),
    ("C", "P12", "Bulk-loading data warehouse master data"),
    ("C", "P13", "Bulk-loading data warehouse movement data"),
    ("D", "P14", "Refreshing data mart data"),
    ("D", "P15", "Refreshing data mart materialized views"),
]


def build_processes() -> dict[str, ProcessType]:
    """Every deployable process type, keyed by process id."""
    processes = [
        build_p01(),
        build_p02(),
        build_p03(),
        build_p04(),
        build_p05(),
        build_p06(),
        build_p07(),
        build_p08(),
        build_p09(),
        build_p10(),
        build_p11(),
        build_p12(),
        build_p13(),
        build_p14(),
        build_p15(),
    ]
    processes.extend(build_p14_subprocesses())
    return {p.process_id: p for p in processes}


_resident: dict[str, ProcessType] = {}
_resident_lock = threading.Lock()


def resident_processes() -> dict[str, ProcessType]:
    """The process's deploy-ready set, built at the first call.

    What :class:`~repro.toolsuite.client.BenchmarkClient` deploys: a
    built definition is a value (docs/architecture.md), so every client
    of every thread deploys the same trees and what is bound on them —
    stylesheet path plans, schema tables, projection plans, column
    parsers — outlives a session.  A memo filled at first use by two
    threads at once is built twice from the same fields, and either
    copy serves.
    """
    if not _resident:
        with _resident_lock:
            if not _resident:
                _resident.update(build_processes())
    return _resident


__all__ = ["PROCESS_TABLE", "build_processes", "resident_processes"]
