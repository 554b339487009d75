"""Operation counters for the relational kernel of :mod:`repro.db`.

Every operator has one implementation, built on four techniques:
operators share row dicts (copy-on-write: only ``project``/``extend``/
``join``/``group_by`` build new dicts because only they produce new
values), predicates run as compiled closures or columnar mask kernels,
joins probe existing table indexes, and materialized views maintain
their snapshots incrementally.  Which rung of an operator's ladder runs
(index probe → partition-wise → mask/column kernel → compiled scalar
loop) is decided only from what the code observes — input size, the
source table's generation, residency, the predicate's grammar — never
from a user-settable switch.

The reference the implementation is held to lives outside ``src/``:
``tests/oracle/relational.py`` re-materializes every row per operator
and walks the expression tree per row (the original, obviously-correct
implementation).  Production must produce byte-identical relations
*and* byte-identical ``rows_read``/``rows_written`` counters — the
engine's cost model and the golden NAVG+ tables are pinned on them.
The differential suites under ``tests/db/`` hold every rung to that
oracle on randomized inputs.

:data:`STATS` counts *operations*, not time: how many row dicts were
materialized, how many expressions were lowered to closures, how many
joins went through a table index, how many MV refreshes were applied as
deltas.  These counts are deterministic for a given workload, which is
what lets CI gate performance regressions without trusting wall clocks
on shared runners.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class FastpathStats:
    """Deterministic operation counters for the relational kernel."""

    #: Row dicts materialized (built key by key or via ``dict(row)``).
    rows_copied: int = 0
    #: Row dicts passed between operators by reference instead of copied.
    rows_shared: int = 0
    #: Expression trees lowered to closures (LRU-cache misses).
    expr_compiled: int = 0
    #: Joins that probed an existing table index instead of building one.
    index_joins: int = 0
    #: Joins that built a per-call hash index over the right side.
    hash_joins: int = 0
    #: Equality predicates answered through ``Table`` index probes.
    pushdowns: int = 0
    #: Materialized-view refreshes applied as insert deltas.
    mv_incremental: int = 0
    #: Materialized-view refreshes that fell back to a full recompute.
    mv_full_recompute: int = 0
    #: Fact rows folded into MV snapshots by delta maintenance.
    mv_delta_rows: int = 0
    #: Selections answered by a columnar bitmask instead of a row loop.
    vector_filters: int = 0
    #: Joins built and probed over column arrays instead of row dicts.
    vector_joins: int = 0
    #: Always 0 (group-by has one row-streaming body); the field stays
    #: because ``bench/metrics.py`` reads it by name.
    vector_group_bys: int = 0
    #: Predicates lowered to fused mask kernels (cache misses).
    masks_compiled: int = 0
    #: Columnar table images (re)built from the row store.
    column_builds: int = 0
    #: Vectorized evaluations that fell back to the scalar row loop.
    vector_fallbacks: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def __sub__(self, other: "FastpathStats") -> "FastpathStats":
        return FastpathStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def copy(self) -> "FastpathStats":
        return FastpathStats(**self.snapshot())


#: Process-global operation counters (read via ``STATS.snapshot()``).
STATS = FastpathStats()
