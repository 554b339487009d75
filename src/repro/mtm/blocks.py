"""Structured operator blocks: sequence, switch, fork, subprocess.

The paper's process diagrams are structured flows: linear sequences with
SWITCH branching (P02, Fig. 4) and concurrent threads (P14's three
parallel data-mart loads).  We model processes as trees of these blocks
rather than arbitrary graphs — the same restriction BPEL-style engines
make, and sufficient for all 15 process types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ProcessDefinitionError, ProcessRuntimeError
from repro.mtm.context import WORK_CONTROL, ExecutionContext
from repro.mtm.message import Message
from repro.mtm.operators import Operator, _ValidationHandled


class Sequence(Operator):
    """Run the child operators in order.

    A Validate child that routes to its failure branch ends the sequence
    early (the P10 pattern: failed data is recorded, the normal flow does
    not continue).
    """

    kind = "sequence"
    profile_leaf = False

    def __init__(self, steps: Sequence[Operator], name: str = ""):
        if not steps:
            raise ProcessDefinitionError("Sequence needs at least one step")
        super().__init__(name)
        self.steps = list(steps)

    def children(self) -> Sequence[Operator]:
        return tuple(self.steps)

    def execute(self, context: ExecutionContext) -> None:
        try:
            if context.operator_log is None and not context.trace_enabled:
                # Nothing observes the steps: what is left of
                # ``Operator._run`` is the count.
                for step in self.steps:
                    context.operators_executed += 1
                    step.execute(context)
            else:
                for step in self.steps:
                    step._run(context)
        except _ValidationHandled:
            context.trace(f"sequence:{self.name}: stopped by failed validation")


@dataclass
class SwitchCase:
    """One SWITCH branch: a guard over the context plus a body."""

    guard: Callable[[ExecutionContext], bool]
    body: Operator
    label: str = ""


class Switch(Operator):
    """Evaluate cases in order; run the first whose guard holds.

    ``otherwise`` is the diagram's *else* branch (P02 routes unknown
    Custkey ranges to Trondheim via the else arm).  With no matching case
    and no otherwise, SWITCH is a no-op — matching the tolerant routing
    semantics of subscription systems.
    """

    kind = "switch"
    profile_leaf = False

    def __init__(
        self,
        cases: Sequence[SwitchCase],
        otherwise: Operator | None = None,
        name: str = "",
    ):
        if not cases:
            raise ProcessDefinitionError("Switch needs at least one case")
        super().__init__(name)
        self.cases = list(cases)
        self.otherwise = otherwise

    def children(self) -> Sequence[Operator]:
        out = [case.body for case in self.cases]
        if self.otherwise is not None:
            out.append(self.otherwise)
        return tuple(out)

    def execute(self, context: ExecutionContext) -> None:
        context.charge_work(WORK_CONTROL, 1.0)
        for case in self.cases:
            if case.guard(context):
                if context.trace_enabled:
                    context.trace(f"switch:{self.name} -> {case.label or 'case'}")
                case.body._run(context)
                return
        if self.otherwise is not None:
            if context.trace_enabled:
                context.trace(f"switch:{self.name} -> otherwise")
            self.otherwise._run(context)


class Fork(Operator):
    """Concurrent branches (P14's "three concurrent threads").

    Branch executions are logically concurrent: each branch sees the
    variables bound before the fork, and writes made by one branch are not
    visible to its siblings (data races are a modeling error, not a
    feature).  After all branches finish, their new/changed variables are
    merged back; two branches writing the same variable is rejected.

    The engine prices a Fork's elapsed time as the *maximum* over branches
    rather than the sum — see the engine's cost assembly — which is how
    the benchmark rewards parallel data-mart refreshes (P15).
    """

    kind = "fork"
    profile_leaf = False

    def __init__(self, branches: Sequence[Operator], name: str = ""):
        if len(branches) < 2:
            raise ProcessDefinitionError("Fork needs at least two branches")
        super().__init__(name)
        self.branches = list(branches)

    def children(self) -> Sequence[Operator]:
        return tuple(self.branches)

    def execute(self, context: ExecutionContext) -> None:
        context.charge_work(WORK_CONTROL, 1.0)
        base_variables = dict(context.variables)
        merged: dict[str, Message] = {}
        writers: dict[str, int] = {}
        branch_costs: list[tuple[float, dict[str, float]]] = []

        for branch_index, branch in enumerate(self.branches):
            # Give each branch an isolated view rooted at the pre-fork state.
            context.variables = dict(base_variables)
            communication_before = context.communication_cost
            work_before = dict(context.work_units)
            branch._run(context)
            for name, message in context.variables.items():
                if base_variables.get(name) is message:
                    continue
                previous_writer = writers.get(name)
                if previous_writer is not None:
                    raise ProcessRuntimeError(
                        f"FORK {self.name}: branches {previous_writer} and "
                        f"{branch_index} both write variable {name!r}"
                    )
                writers[name] = branch_index
                merged[name] = message
            branch_costs.append(
                (
                    context.communication_cost - communication_before,
                    {
                        kind: context.work_units[kind] - work_before[kind]
                        for kind in context.work_units
                    },
                )
            )

        context.variables = dict(base_variables)
        context.variables.update(merged)

        # Parallel-time pricing: concurrent branches overlap, so the fork
        # should cost its *longest* branch, not the sum.  We credit back
        # (sum - max) per cost bucket, scaled by the engine's parallel
        # efficiency (1.0 = perfectly parallel data marts, 0.0 = serial).
        efficiency = getattr(context, "parallel_efficiency", 1.0)
        if efficiency > 0.0 and branch_costs:
            comm_sum = sum(c for c, _ in branch_costs)
            comm_max = max(c for c, _ in branch_costs)
            context.communication_cost -= (comm_sum - comm_max) * efficiency
            for kind in context.work_units:
                kind_sum = sum(w[kind] for _, w in branch_costs)
                kind_max = max(w[kind] for _, w in branch_costs)
                context.work_units[kind] -= (kind_sum - kind_max) * efficiency
        if context.trace_enabled:
            context.trace(
                f"fork:{self.name}: {len(self.branches)} branches, "
                f"costs={[round(c, 3) for c, _ in branch_costs]}"
            )


class Subprocess(Operator):
    """Invoke another process type synchronously (P14 ↔ P14_S1…S4).

    ``input`` optionally names the variable passed as the child's inbound
    message; ``output`` optionally receives the child's result message.
    The child's costs are folded into the calling instance by the engine.
    """

    kind = "subprocess"
    profile_leaf = False

    def __init__(
        self,
        process_id: str,
        input: str | None = None,
        output: str | None = None,
        name: str = "",
    ):
        super().__init__(name)
        self.process_id = process_id
        self.input = input
        self.output = output

    def execute(self, context: ExecutionContext) -> None:
        context.charge_work(WORK_CONTROL, 1.0)
        message = context.get(self.input) if self.input else None
        result = context.run_subprocess(self.process_id, message)
        if self.output is not None:
            if result is None:
                raise ProcessRuntimeError(
                    f"SUBPROCESS {self.process_id} returned no message but "
                    f"{self.output!r} expects one"
                )
            context.set(self.output, result)
