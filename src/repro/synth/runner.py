"""SynthClient: the benchmark client's period body for a synthesized workload.

Only the four period hooks are overridden; the phase machinery of
:class:`~repro.toolsuite.client.BenchmarkClient` is shared, so every run
knob acts on a synthesized run as on the classic one.

Each period uninitializes the landscape (change feed cursors go back to
zero with their tables), replants the plan's initial populations, then executes
``spec.rounds`` rounds: the round's E1 message streams drain through one
deadline-ordered scheduler, after which the dependent E2 processes run
serialized at the running completion frontier — consolidations, CDC
pulls, the SCD apply, the dedup — "serialized in order to ensure the
correct results", exactly like streams C and D of the classic schedule.
"""

from __future__ import annotations

from functools import partial

from repro.engine.base import InstanceRecord, IntegrationEngine, ProcessType
from repro.simtime.clock import VirtualClock
from repro.simtime.scheduler import EventScheduler
from repro.synth.generator import SynthWorkload
from repro.toolsuite.client import BenchmarkClient
from repro.toolsuite.schedule import ScaleFactors
from repro.toolsuite.verification import VerificationReport

#: Virtual-time layout of one period, in tu: rounds are spaced far
#: enough apart that a round's E1 arrivals never collide with the
#: previous round's, and messages within a stream stay ordered.
_ROUND_SPACING_TU = 200.0
_MESSAGE_SPACING_TU = 2.0
_STREAM_OFFSET_TU = 0.13


class SynthClient(BenchmarkClient):
    """Benchmark client for synthesized workloads.

    ``knobs`` are :class:`BenchmarkClient`'s keyword arguments; ``seed``
    defaults to the workload's resolved seed.
    """

    streams = ("E1", "E2")

    def __init__(
        self,
        workload: SynthWorkload,
        engine: IntegrationEngine,
        factors: ScaleFactors | None = None,
        periods: int = 1,
        **knobs,
    ):
        knobs.setdefault("seed", workload.spec.seed)
        super().__init__(workload.scenario, engine, factors, periods, **knobs)
        self.workload = workload
        if self.storage is not None:
            for feed in workload.feeds.values():
                self.storage.attach_state(feed)

    def _processes(self) -> dict[str, ProcessType]:
        return self.workload.processes

    def _reinitialize(self, period: int) -> None:
        self.scenario.uninitialize()  # feed cursors clip to the truncate
        self.workload.populate(period)

    def _emit(self, period: int, records: list[InstanceRecord]) -> None:
        """Every round's E1 streams, then its E2 wave at the frontier."""
        workload = self.workload
        streams = workload.e1_streams()
        builders = {
            "orders": workload.order_message,
            "txns": workload.txn_message,
            "cust_updates": workload.customer_message,
        }
        for r, rnd in enumerate(workload.plan(period).rounds):
            round_base = r * _ROUND_SPACING_TU
            scheduler = EventScheduler(VirtualClock())
            for s, (process_id, source, kind) in enumerate(streams):
                rows = getattr(rnd, kind).get(source, ())
                for k, row in enumerate(rows):
                    deadline_tu = (
                        round_base
                        + _MESSAGE_SPACING_TU * k
                        + _STREAM_OFFSET_TU * s
                    )
                    scheduler.push(
                        self.factors.tu_to_engine(deadline_tu),
                        (process_id, partial(builders[kind], row)),
                    )
            frontier = self.factors.tu_to_engine(round_base)
            for event in scheduler.drain():
                process_id, build = event.payload
                record = self._dispatch(
                    process_id, event.deadline, period, "E1", build
                )
                records.append(record)
                frontier = max(frontier, record.completion)
            # The dependent wave, serialized at the completion frontier.
            for process_id in workload.e2_processes():
                record = self._dispatch(process_id, frontier, period, "E2")
                records.append(record)
                frontier = max(frontier, record.completion)

    def _verify(self, period: int) -> VerificationReport:
        from repro.synth.verify import verify_workload

        return verify_workload(self.workload, period)
