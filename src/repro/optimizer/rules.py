"""The rewrite rules.

Rules operate on Sequence step lists and rebuild the tree bottom-up;
the original process object is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.db.expressions import Expression
from repro.mtm.blocks import Fork, Sequence, Subprocess, Switch, SwitchCase
from repro.mtm.operators import Invoke, Operator, Projection, Selection, Validate
from repro.mtm.process import ProcessType
from repro.scenario.processes import helpers

@dataclass
class OptimizationReport:
    """What the optimizer changed, for logging and the ablation bench."""

    selections_pushed: int = 0
    projections_merged: int = 0
    forks_introduced: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def total_rewrites(self) -> int:
        return (
            self.selections_pushed
            + self.projections_merged
            + self.forks_introduced
        )


def _is_plain_query(op: Operator) -> bool:
    return (
        isinstance(op, Invoke)
        and getattr(op.request_builder, "kind", "") == "query"
        and getattr(op.request_builder, "predicate", None) is None
    )


# ------------------------------------------------------------ selection pushdown

def _push_down_in_steps(steps: list[Operator], report: OptimizationReport) -> list[Operator]:
    out: list[Operator] = []
    index = 0
    while index < len(steps):
        op = steps[index]
        nxt = steps[index + 1] if index + 1 < len(steps) else None
        if (
            _is_plain_query(op)
            and isinstance(nxt, Selection)
            and op.output == nxt.input
        ):
            builder = helpers.query_request(
                op.request_builder.table,
                predicate=nxt.predicate,
                columns=op.request_builder.columns,
            )
            fused = Invoke(
                op.service,
                builder,
                output=nxt.output,
                work_kind=op.work_kind,
                name=f"{op.name}_pushed",
            )
            out.append(fused)
            report.selections_pushed += 1
            report.notes.append(
                f"pushed {nxt.name} into extract {op.name} on {op.service}"
            )
            index += 2
            continue
        out.append(op)
        index += 1
    return out


# ------------------------------------------------------------- projection merge

def _merge_projections_in_steps(
    steps: list[Operator], report: OptimizationReport
) -> list[Operator]:
    out: list[Operator] = []
    index = 0
    while index < len(steps):
        op = steps[index]
        nxt = steps[index + 1] if index + 1 < len(steps) else None
        if (
            isinstance(op, Projection)
            and isinstance(nxt, Projection)
            and op.output == nxt.input
            # Composition through expressions would need substitution;
            # merge only pure-rename outer projections.
            and all(not isinstance(src, Expression) for src in nxt.mapping.values())
        ):
            composed = {
                out_name: op.mapping[in_name]
                for out_name, in_name in nxt.mapping.items()
            }
            out.append(
                Projection(
                    op.input,
                    nxt.output,
                    composed,
                    name=f"{op.name}+{nxt.name}",
                )
            )
            report.projections_merged += 1
            index += 2
            continue
        out.append(op)
        index += 1
    return out


# -------------------------------------------------------- extract parallelization

def _op_reads_writes(op: Operator) -> tuple[set[str], set[str]]:
    from repro.mtm.process import _reads_of, _writes_of

    reads: set[str] = set()
    writes: set[str] = set()
    for node in op.iter_tree():
        reads.update(_reads_of(node))
        writes.update(_writes_of(node))
    return reads, writes


def _parallelize_in_steps(
    steps: list[Operator], report: OptimizationReport, min_group: int = 2
) -> list[Operator]:
    """Group maximal runs of pairwise-independent steps into Forks.

    Two steps are independent when neither reads or writes what the other
    writes.  Terminal Signals and control operators are left in place.
    """
    out: list[Operator] = []
    run: list[tuple[Operator, set[str], set[str]]] = []

    def flush() -> None:
        if len(run) >= min_group:
            out.append(
                Fork([op for op, _, _ in run], name="parallelized_extracts")
            )
            report.forks_introduced += 1
            report.notes.append(
                f"parallelized {len(run)} independent steps into a fork"
            )
        else:
            out.extend(op for op, _, _ in run)
        run.clear()

    for op in steps:
        if isinstance(op, (Fork, Switch, Subprocess, Validate)):
            flush()
            out.append(op)
            continue
        reads, writes = _op_reads_writes(op)
        independent = all(
            writes.isdisjoint(other_writes)
            and reads.isdisjoint(other_writes)
            and other_reads.isdisjoint(writes)
            for _, other_reads, other_writes in run
        )
        if independent:
            run.append((op, reads, writes))
        else:
            flush()
            run.append((op, reads, writes))
    flush()
    return out


# ------------------------------------------------------------------ tree walking

def _rewrite_tree(
    op: Operator,
    report: OptimizationReport,
    pushdown: bool,
    merge: bool,
    parallelize: bool,
) -> Operator:
    if isinstance(op, Sequence):
        steps = [
            _rewrite_tree(step, report, pushdown, merge, parallelize)
            for step in op.steps
        ]
        if pushdown:
            steps = _push_down_in_steps(steps, report)
        if merge:
            steps = _merge_projections_in_steps(steps, report)
        if parallelize:
            steps = _parallelize_in_steps(steps, report)
        return Sequence(steps, name=op.name)
    if isinstance(op, Switch):
        cases = [
            SwitchCase(
                case.guard,
                _rewrite_tree(case.body, report, pushdown, merge, parallelize),
                case.label,
            )
            for case in op.cases
        ]
        otherwise = (
            _rewrite_tree(op.otherwise, report, pushdown, merge, parallelize)
            if op.otherwise is not None
            else None
        )
        return Switch(cases, otherwise, name=op.name)
    if isinstance(op, Fork):
        return Fork(
            [
                _rewrite_tree(branch, report, pushdown, merge, parallelize)
                for branch in op.branches
            ],
            name=op.name,
        )
    return op


def push_down_selections(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the selection-pushdown rule."""
    return optimize_process(process, pushdown=True, merge=False, parallelize=False)


def merge_projections(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the projection-merge rule."""
    return optimize_process(process, pushdown=False, merge=True, parallelize=False)


def parallelize_extracts(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the extract-parallelization rule."""
    return optimize_process(process, pushdown=False, merge=False, parallelize=True)


def optimize_process(
    process: ProcessType,
    pushdown: bool = True,
    merge: bool = True,
    parallelize: bool = False,
) -> tuple[ProcessType, OptimizationReport]:
    """Rewrite one process; returns (new process, report).

    Parallelization is off by default: it changes the engine's pricing
    model (fork branches cost max instead of sum) and is meant for the
    dedicated ablation rather than blanket use.
    """
    report = OptimizationReport()
    new_root = _rewrite_tree(process.root, report, pushdown, merge, parallelize)
    optimized = ProcessType(
        process.process_id,
        process.group,
        process.description,
        process.event_type,
        new_root,
        subprocess_only=process.subprocess_only,
    )
    return optimized, report
