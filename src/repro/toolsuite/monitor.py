"""The Monitor: statistics store, metric computation, performance plots.

"The collected statistics and performance metrics are handled and stored
by the Monitor. In addition … it also provides plotting functions for the
generation of performance diagrams."  Costs are stored in engine units
and reported in tu (``tu = units * t``), matching the paper's plots
("NAVG+ [in tu]").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.base import InstanceHistory, InstanceRecord
from repro.errors import BenchmarkError
from repro.ioutil import write_text_atomic
from repro.metrics.navg import MetricReport, compute_metrics
from repro.observability import Observability
from repro.storage.recovery import RecoveryReport
from repro.toolsuite.plotting import performance_plot_ascii, performance_plot_svg

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.spec import RunOutcome


@dataclass(frozen=True)
class ResilienceSummary:
    """Degraded-run statistics over one monitor's records."""

    total: int
    ok: int
    recovered: int
    retries: int
    dead_lettered: int
    errors: int
    dead_letters_by_type: dict[str, int]

    def describe(self) -> str:
        parts = [
            f"instances={self.total}",
            f"ok={self.ok}",
            f"recovered={self.recovered}",
            f"retries={self.retries}",
            f"dead-lettered={self.dead_lettered}",
            f"errors={self.errors}",
        ]
        line = "resilience: " + " ".join(parts)
        if self.dead_letters_by_type:
            detail = ", ".join(
                f"{error_type}={count}"
                for error_type, count in sorted(
                    self.dead_letters_by_type.items()
                )
            )
            line += f"\n  dead-letter classes: {detail}"
        return line


@dataclass(frozen=True)
class RecoverySummary:
    """Durability statistics over one monitor's absorbed recoveries.

    Times are reported in tu (like NAVG+): the modeled recovery cost is
    scaled by the run's time factor, the wall-clock milliseconds are
    real measurements and pass through unscaled.
    """

    recoveries: int
    snapshot_rows: int
    redo_records: int
    commits_replayed: int
    mean_recovery_tu: float
    max_recovery_tu: float
    wall_ms: float

    def describe(self) -> str:
        if not self.recoveries:
            return "recovery: none (no crash recovered this run)"
        return (
            f"recovery: recoveries={self.recoveries} "
            f"snapshot_rows={self.snapshot_rows} "
            f"redo_records={self.redo_records} "
            f"commits_replayed={self.commits_replayed}\n"
            f"  modeled recovery time: mean={self.mean_recovery_tu:.2f}tu "
            f"max={self.max_recovery_tu:.2f}tu "
            f"({self.wall_ms:.1f} ms wall total)"
        )


@dataclass(frozen=True)
class FailoverSummary:
    """Cluster failover statistics over one monitor's absorbed reports.

    Times are reported in tu (like NAVG+): detection delays and RTOs are
    modeled in engine units and scaled by the run's time factor; the
    wall-clock milliseconds are real measurements and pass through
    unscaled.  ``rpo_records`` is the total LSN exposure across every
    election — exactly 0 under synchronous shipping.
    """

    failovers: int
    promoted: int
    rolled_back: int
    rebuilt_from_log: int
    rerouted: int
    rpo_records: int
    rpo_max: int
    catchup_records: int
    rows_restored: int
    redispatched: int
    mean_rto_tu: float
    max_rto_tu: float
    mean_detection_tu: float
    wall_ms: float

    def describe(self) -> str:
        if not self.failovers:
            return "failover: none (no primary lost this run)"
        return (
            f"failover: failovers={self.failovers} "
            f"promoted={self.promoted} rolled_back={self.rolled_back} "
            f"rebuilt={self.rebuilt_from_log} rerouted={self.rerouted} "
            f"redispatched={self.redispatched}\n"
            f"  RPO: {self.rpo_records} record(s) total, "
            f"max {self.rpo_max} per failover; "
            f"{self.catchup_records} record(s) caught up, "
            f"{self.rows_restored} rows restored\n"
            f"  RTO: mean={self.mean_rto_tu:.2f}tu "
            f"max={self.max_rto_tu:.2f}tu "
            f"detection mean={self.mean_detection_tu:.2f}tu "
            f"({self.wall_ms:.1f} ms wall total)"
        )


#: The percentile points every latency report in this codebase uses.
LATENCY_POINTS = (50, 95, 99)


def percentile(values: Sequence[float], point: float) -> float:
    """Nearest-rank percentile of ``values`` (``point`` in (0, 100]).

    Deterministic and distribution-free: sorts a copy and picks the
    ``ceil(point/100 * n)``-th smallest value, which is the classic
    nearest-rank definition — no interpolation, so the result is always
    an actually observed value.
    """
    if not values:
        return 0.0
    if not 0 < point <= 100:
        raise BenchmarkError(f"percentile point must be in (0, 100]: {point}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * point // 100))  # ceil division
    return ordered[int(rank) - 1]


def latency_percentiles(
    values: Sequence[float], points: Sequence[int] = LATENCY_POINTS
) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over ``values``.

    The shared helper behind :meth:`Monitor.latency_percentiles` (engine
    instance latencies in tu) and the serving layer's per-tenant reports
    (session round-trip latencies in wall seconds) — one definition, so
    the two kinds of percentile are comparable in shape.
    """
    return {f"p{point:g}": percentile(values, point) for point in points}


@dataclass(frozen=True)
class SweepRow:
    """One grid point's aggregate line in the sweep summary."""

    engine: str
    datasize: float
    time: float
    distribution: int
    seed: int
    status: str
    instances: int
    errors: int
    navg_plus_total: float
    digest: str
    error_type: str = ""
    #: p95 instance latency (arrival → completion) in tu; 0 when the
    #: grid point produced no records.
    p95_latency_tu: float = 0.0
    #: Synthesized-workload knob string; empty for classic grid points.
    workload: str = ""

    def format(self) -> str:
        detail = (
            self.digest[:16] if self.status == "ok" else self.error_type
        )
        line = (
            f"{self.engine:<12}{self.datasize:>8g}{self.time:>6g}"
            f"{self.distribution:>3}{self.seed:>8}  {self.status:<8}"
            f"{self.instances:>7}{self.errors:>5}"
            f"{self.navg_plus_total:>12.2f}{self.p95_latency_tu:>10.2f}"
            f"  {detail}"
        )
        # Classic rows stay byte-identical; synthesized grid points name
        # their workload instead of leaving the reader to guess from
        # SY-prefixed process ids.
        if self.workload:
            line += f"  workload={self.workload}"
        return line


def sweep_rows(outcomes: "Sequence[RunOutcome]") -> list[SweepRow]:
    """Per-grid-point aggregates, in the sweep's (grid) order."""
    rows = []
    for outcome in outcomes:
        result = outcome.result
        p95 = 0.0
        if result is not None and result.records:
            p95 = percentile(
                [e * outcome.spec.time for e in result.records.elapsed()], 95
            )
        rows.append(
            SweepRow(
                engine=outcome.spec.engine,
                datasize=outcome.spec.datasize,
                time=outcome.spec.time,
                distribution=outcome.spec.distribution,
                seed=outcome.spec.seed,
                status=outcome.status,
                instances=result.total_instances if result else 0,
                errors=result.error_instances if result else 0,
                navg_plus_total=outcome.navg_plus_total(),
                digest=outcome.landscape_digest,
                error_type=outcome.error_type,
                p95_latency_tu=p95,
                workload=getattr(outcome.spec, "synth", ""),
            )
        )
    return rows


def sweep_table(outcomes: "Sequence[RunOutcome]") -> str:
    """Fixed-width summary of a sweep, one line per grid point.

    The Monitor-side merge view of a parallel sweep: every grid point's
    instance counts, total NAVG+ (in tu), p95 instance latency and
    landscape digest, in deterministic grid order regardless of which
    worker finished first.
    """
    header = (
        f"{'engine':<12}{'d':>8}{'t':>6}{'f':>3}{'seed':>8}  "
        f"{'status':<8}{'inst':>7}{'err':>5}{'NAVG+Σ':>12}{'p95':>10}"
        f"  digest/error"
    )
    lines = [header, "-" * len(header)]
    lines.extend(row.format() for row in sweep_rows(outcomes))
    return "\n".join(lines)


class Monitor:
    """Collects instance records and produces reports and plots."""

    def __init__(
        self,
        time_scale: float = 1.0,
        observability: Observability | None = None,
    ):
        self.time_scale = time_scale
        self.records = InstanceHistory()
        self.recoveries: list[RecoveryReport] = []
        #: Cluster failover reports (see :mod:`repro.cluster.failover`).
        self.failovers: list = []
        self.observability = observability or Observability()

    def absorb(self, records: Iterable[InstanceRecord]) -> None:
        """Book records; a history's rows are kept as they are."""
        records = InstanceHistory.of(records)
        self.records.extend(records)
        metrics = self.observability.metrics
        if metrics is not None and records:
            metrics.counter(
                "monitor_records_absorbed_total",
                help="Instance records absorbed by the Monitor",
            ).inc(len(records))

    def absorb_recovery(self, report: RecoveryReport) -> None:
        """Book one crash recovery performed by the client."""
        self.recoveries.append(report)

    def absorb_failover(self, report) -> None:
        """Book one cluster failover (a :class:`FailoverReport`)."""
        self.failovers.append(report)

    def absorb_outcome(self, outcome: "RunOutcome") -> None:
        """Absorb everything one sweep grid point produced.

        The outcome's records are in engine units of *its* run; pooling
        only makes sense across grid points that share the time scale
        factor, so mismatching outcomes are rejected rather than
        silently mis-scaled.
        """
        if outcome.result is None:
            return
        if outcome.spec.time != self.time_scale:
            raise BenchmarkError(
                f"cannot pool grid point {outcome.label!r} "
                f"(t={outcome.spec.time:g}) into a Monitor scaled at "
                f"t={self.time_scale:g}"
            )
        self.absorb(outcome.result.records)
        for report in outcome.result.recovery_reports:
            self.absorb_recovery(report)
        for report in outcome.result.failover_reports:
            self.absorb_failover(report)

    @classmethod
    def merged(cls, outcomes: "Sequence[RunOutcome]") -> "Monitor":
        """One Monitor pooling every completed grid point's records.

        All outcomes must share the time scale factor (see
        :meth:`absorb_outcome`); records merge in grid order, so the
        pooled statistics are identical whichever worker count produced
        the outcomes.
        """
        completed = [o for o in outcomes if o.result is not None]
        if not completed:
            return cls()
        monitor = cls(time_scale=completed[0].spec.time)
        for outcome in completed:
            monitor.absorb_outcome(outcome)
        return monitor

    # -- metrics --------------------------------------------------------------

    def _scaled(self, report: MetricReport) -> MetricReport:
        """Convert a report from engine units to tu (``tu = units * t``).

        Uses :func:`dataclasses.replace` so fields without a time
        dimension (counts, error counts, future additions) pass through
        untouched instead of being hand-copied.
        """
        if self.time_scale == 1.0:
            return report
        scaled = MetricReport()
        for process_id, m in report.per_type.items():
            scaled.per_type[process_id] = replace(
                m,
                navg=m.navg * self.time_scale,
                sigma=m.sigma * self.time_scale,
                navg_plus=m.navg_plus * self.time_scale,
                communication_mean=m.communication_mean * self.time_scale,
                management_mean=m.management_mean * self.time_scale,
                processing_mean=m.processing_mean * self.time_scale,
            )
        return scaled

    def metrics(self) -> MetricReport:
        """Per-process-type NAVG+ metrics, reported in tu."""
        return self._scaled(compute_metrics(self.records))

    def family_table(self) -> str:
        """Per-workload-family cost table (tu) over the absorbed records.

        Groups synthesized process ids (``SYC0`` → ``cdc``) and classic
        ones (``P05`` → ``consolidation``) by family, so reports over
        generated workloads read in workload terms instead of raw ids.
        Imported lazily: the Monitor stays usable without repro.synth.
        """
        from repro.synth.families import family_breakdown, format_family_table

        return format_family_table(
            family_breakdown(self.records, time_scale=self.time_scale)
        )

    def latency_percentiles(
        self, points: Sequence[int] = LATENCY_POINTS
    ) -> dict[str, float]:
        """p50/p95/p99 instance latency over the absorbed records, in tu.

        Latency is the instance's sojourn time — schedule arrival to
        completion, queue wait included — which is what a tenant of the
        serving layer experiences per process instance.  Reported in tu
        like every other Monitor time, and consumed by both the
        ``repro serve`` per-tenant reports and :func:`sweep_table`.
        """
        return latency_percentiles(
            [e * self.time_scale for e in self.records.elapsed()], points
        )

    def resilience_summary(self) -> ResilienceSummary:
        """Recovery/degradation statistics of the absorbed records.

        All zeroes (except ``total``/``ok``) on an undisturbed run;
        under fault injection this is the degraded-run report the
        NAVG+ table does not show: how many instances recovered via
        retries, and what was dead-lettered, by failure class.
        """
        dead = self.records.where("status", lambda s: s == "dead-letter")
        by_type: dict[str, int] = {}
        for error_type in dead.column("error_type"):
            key = error_type or "unknown"
            by_type[key] = by_type.get(key, 0) + 1
        statuses = self.records.column("status")
        return ResilienceSummary(
            total=len(self.records),
            ok=statuses.count("ok"),
            recovered=len(self.records.recovered()),
            retries=sum(a - 1 for a in self.records.column("attempts")),
            dead_lettered=len(dead),
            errors=statuses.count("error"),
            dead_letters_by_type=by_type,
        )

    def recovery_summary(self) -> RecoverySummary:
        """Aggregate recovery-time statistics, modeled times in tu.

        The durability counterpart of :meth:`resilience_summary`: crash
        runs report how much state recovery reloaded and replayed, and
        what that costs under the benchmark's recovery-time model.
        """
        costs = [r.modeled_cost * self.time_scale for r in self.recoveries]
        return RecoverySummary(
            recoveries=len(self.recoveries),
            snapshot_rows=sum(r.snapshot_rows for r in self.recoveries),
            redo_records=sum(r.redo_records for r in self.recoveries),
            commits_replayed=sum(
                r.commits_replayed for r in self.recoveries
            ),
            mean_recovery_tu=sum(costs) / len(costs) if costs else 0.0,
            max_recovery_tu=max(costs, default=0.0),
            wall_ms=sum(r.wall_ms for r in self.recoveries),
        )

    def failover_summary(self) -> FailoverSummary:
        """Aggregate cluster RTO/RPO statistics, modeled times in tu.

        The distributed counterpart of :meth:`recovery_summary`: how
        many primaries were lost, what the elections exposed (RPO) and
        how long the cluster was effectively headless (RTO), under the
        benchmark's out-of-band cost model.
        """
        reports = self.failovers
        rtos = [
            r.rto_eu * self.time_scale
            for r in reports
            if r.rto_eu is not None
        ]
        detections = [r.detection_eu * self.time_scale for r in reports]
        return FailoverSummary(
            failovers=len(reports),
            promoted=sum(len(r.promoted) for r in reports),
            rolled_back=sum(r.rolled_back for r in reports),
            rebuilt_from_log=sum(r.rebuilt_from_log for r in reports),
            rerouted=sum(r.rerouted for r in reports),
            rpo_records=sum(r.rpo_records for r in reports),
            rpo_max=max((r.rpo_records for r in reports), default=0),
            catchup_records=sum(r.catchup_records for r in reports),
            rows_restored=sum(r.rows_restored for r in reports),
            redispatched=sum(r.redispatched for r in reports),
            mean_rto_tu=sum(rtos) / len(rtos) if rtos else 0.0,
            max_rto_tu=max(rtos, default=0.0),
            mean_detection_tu=(
                sum(detections) / len(detections) if detections else 0.0
            ),
            wall_ms=sum(r.wall_ms for r in reports),
        )

    # -- plots ------------------------------------------------------------------

    def performance_plot(
        self, title: str = "DIPBench Performance Plot", width: int = 72
    ) -> str:
        """ASCII rendering of the Fig. 10/11 bar plot (NAVG vs NAVG+)."""
        return performance_plot_ascii(self.metrics(), title=title, width=width)

    def performance_plot_svg(
        self, title: str = "DIPBench Performance Plot"
    ) -> str:
        """Standalone SVG rendering of the same plot."""
        return performance_plot_svg(self.metrics(), title=title)

    def save_plot(self, path: str, title: str = "DIPBench Performance Plot") -> None:
        """Write the SVG plot to ``path``."""
        write_text_atomic(path, self.performance_plot_svg(title))
