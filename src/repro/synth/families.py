"""Process-family classification and per-family cost reporting.

Synthesized process ids are prefixed (``SYU3``, ``SYC0``, ``SYS``, …);
:func:`family_of_process` maps any process id — synthesized or classic —
to a human-readable workload family so the Monitor, ``repro profile``
and the sweep tables never fall back to raw P-ids for generated
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.engine.base import InstanceHistory, InstanceRecord
from repro.metrics.navg import compute_metrics

#: Synthesized process-id prefixes → family, longest prefix wins.
#:
#: ``SYU`` order feeds and ``SYP`` consolidations are the pipeline family;
#: ``SYT`` transaction feeds and ``SYC`` replication pulls are CDC;
#: ``SYM`` master-data updates and ``SYS`` the dimension apply are SCD;
#: ``SYD`` is the dedup/entity-matching task of the dirty family.
_PREFIX_FAMILY = {
    "SYU": "pipeline",
    "SYP": "pipeline",
    "SYT": "cdc",
    "SYC": "cdc",
    "SYM": "scd",
    "SYS": "scd",
    "SYD": "dirty",
}

#: Classic DIPBench process groups, for uniform labeling.
_CLASSIC_FAMILY = {
    "P01": "source-mgmt", "P02": "source-mgmt", "P03": "source-mgmt",
    "P04": "consolidation", "P05": "consolidation", "P06": "consolidation",
    "P07": "consolidation", "P08": "consolidation", "P09": "consolidation",
    "P10": "consolidation", "P11": "consolidation",
    "P12": "warehouse", "P13": "warehouse",
    "P14": "marts", "P15": "marts",
}


def is_synthesized(process_id: str) -> bool:
    return process_id.startswith("SY")


def family_of_process(process_id: str) -> str:
    """Workload family of a process id, ``""`` when unknown."""
    if is_synthesized(process_id):
        for prefix in sorted(_PREFIX_FAMILY, key=len, reverse=True):
            if process_id.startswith(prefix):
                return _PREFIX_FAMILY[prefix]
        return ""
    base = process_id.split("_")[0]
    return _CLASSIC_FAMILY.get(base, "")


def label_process(process_id: str) -> str:
    """``"SYC0 [cdc]"`` — the id plus its family, when one is known."""
    family = family_of_process(process_id)
    return f"{process_id} [{family}]" if family else process_id


@dataclass(frozen=True)
class FamilyRow:
    """Aggregate cost row of one workload family."""

    family: str
    process_types: int
    instances: int
    errors: int
    navg_plus_total: float
    mean_communication: float
    mean_management: float
    mean_processing: float


def family_breakdown(
    records: Iterable[InstanceRecord], time_scale: float = 1.0
) -> list[FamilyRow]:
    """Per-family aggregate of a run's instance records.

    NAVG+ is computed per process type (as always) and summed within
    each family; mean cost components are over the family's successful
    instances, reported in tu like the Monitor does.
    """
    history = InstanceHistory.of(records)
    process_ids = set(history.column("process_id"))
    family_of = {p: family_of_process(p) or "other" for p in process_ids}
    rows: list[FamilyRow] = []
    for family in sorted(set(family_of.values())):
        members = history.where("process_id", lambda p: family_of[p] == family)
        report = compute_metrics(members)
        ok = members.where("status", lambda status: status == "ok")
        count = max(len(ok), 1)
        rows.append(
            FamilyRow(
                family=family,
                process_types=len(set(members.column("process_id"))),
                instances=len(members),
                errors=len(members) - len(ok),
                navg_plus_total=(
                    sum(m.navg_plus for m in report.rows()) * time_scale
                ),
                mean_communication=(
                    sum(ok.column("communication")) / count * time_scale
                ),
                mean_management=(
                    sum(ok.column("management")) / count * time_scale
                ),
                mean_processing=(
                    sum(ok.column("processing")) / count * time_scale
                ),
            )
        )
    return rows


def format_family_table(rows: list[FamilyRow]) -> str:
    """Fixed-width per-family cost table (tu)."""
    header = (
        f"{'family':<14}{'types':>6}{'inst':>7}{'err':>5}"
        f"{'NAVG+Σ':>12}{'C_c':>10}{'C_m':>10}{'C_p':>10}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.family:<14}{row.process_types:>6}{row.instances:>7}"
            f"{row.errors:>5}{row.navg_plus_total:>12.2f}"
            f"{row.mean_communication:>10.2f}{row.mean_management:>10.2f}"
            f"{row.mean_processing:>10.2f}"
        )
    return "\n".join(lines)
