"""The five workloads: parameter points of one generator, made from ``--seed``.

A workload is *inputs only*: a :class:`~repro.parallel.RunSpec` (period
workloads) or a list of ``dipbench.session/v1`` documents (served).  The
measuring child receives the :class:`Plan` and never the workload name,
so the program cannot tell which benchmark row it is producing.

Units: one ``run_period`` on the period workloads, one cold session
(``POST /sessions`` → report fetched) on ``served``.  A run executes
units for ``--seconds`` seconds; period indexes wrap at 100 (the paper's
run length), session documents never repeat inside the cold phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.parallel.spec import RunSpec
from repro.resilience import FaultEvent, FaultSpec

#: Engines a served run cycles through, in session order.
SERVED_ENGINES = ("interpreter", "federated", "eai", "etl")
SERVED_TENANTS = ("acme", "globex")
#: Cold sessions re-posted verbatim after the cold phase (cache hits).
SERVED_REPEATS = 40
#: More cold documents than any machine finishes in the 60 s cap.
SERVED_DOCS = 4000
#: A quarter of the end-of-period working set at d=0.05 (5184 rows,
#: benchmarks/results/BENCH_partition.json).
BUDGET_ROWS = 1296
#: Per-instance work dominates: ~1.2k small instances per period.
SYNTH_KNOBS = (
    "sources=4,depth=6,fan_out=4,mix=relational,update=0.8,"
    "scale=3,rounds=2,msgs=16"
)

WHY = {
    "classic": (
        "the paper's full run at d=0.05: per-period re-initialization makes "
        "db.write and xmlkit.stx do most of the work; partition, storage, "
        "serve and synth do none"
    ),
    "synth": (
        "~1.2k small synthesized instances per period: engine/mtm/services "
        "per-instance overhead dominates, xmlkit.stx is bypassed and db.write "
        "runs its update/upsert/delete/observer paths"
    ),
    "budget": (
        "classic under a quarter-working-set memory budget: the only workload "
        "where db.partition spills and db.read has its highest share; output "
        "identical to classic"
    ),
    "durable": (
        "classic with snapshot+wal and one commit-point crash and recovery "
        "per period: the only workload where storage journals, checkpoints "
        "and redoes; output identical to classic"
    ),
    "served": (
        "cold single-period sessions over HTTP, 2 closed-loop connections on "
        "2 pool workers, all four engines, then 40 exact repeats: the only "
        "workload where serve and parallel work"
    ),
}


@dataclass(frozen=True)
class Plan:
    """Everything one measuring child is given."""

    #: Period workloads: the spec whose periods are the units.
    spec: RunSpec | None = None
    #: The plain twin whose first periods must fingerprint identically.
    reference: RunSpec | None = None
    #: Served: cold session documents in submit order, then how many of
    #: the first ones are re-posted as cache hits.
    sessions: tuple[dict, ...] = ()
    repeats: int = 0


def _classic(seed: int) -> RunSpec:
    return RunSpec(
        engine="interpreter", datasize=0.05, time=1.0, distribution=0,
        periods=100, seed=seed, jitter=0.0,
    )


def _session_doc(seed: int, index: int) -> dict:
    return {
        "contract": "dipbench.session/v1",
        "tenant": SERVED_TENANTS[index % len(SERVED_TENANTS)],
        "spec": {
            "engine": SERVED_ENGINES[index % len(SERVED_ENGINES)],
            "datasize": 0.02,
            "periods": 1,
            "seed": seed * 100_000 + index,
        },
    }


def build(name: str, seed: int) -> Plan:
    """The inputs of workload ``name`` at ``seed`` (same seed, same inputs)."""
    classic = _classic(seed)
    if name == "classic":
        return Plan(spec=classic, reference=classic)
    if name == "synth":
        spec = replace(classic, synth=SYNTH_KNOBS)
        return Plan(spec=spec, reference=spec)
    if name == "budget":
        return Plan(
            spec=replace(classic, mem_budget=BUDGET_ROWS), reference=classic
        )
    if name == "durable":
        crash = FaultEvent(at=300.0, kind="crash", point="commit")
        return Plan(
            spec=replace(
                classic,
                durability="snapshot+wal",
                checkpoint_every=50.0,
                faults=FaultSpec(name="bench-durable", events=(crash,)),
            ),
            reference=classic,
        )
    if name == "served":
        return Plan(
            sessions=tuple(_session_doc(seed, i) for i in range(SERVED_DOCS)),
            repeats=SERVED_REPEATS,
        )
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
