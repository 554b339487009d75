"""The benchmark Client: phases, periods, streams (Figs. 6 and 7).

The client owns the autonomic benchmark execution:

* **phase pre** — build/verify the landscape, deploy all process types;
* **phase work** — the measured part: ``periods`` benchmark periods, each
  uninitializing all external systems, re-initializing the sources, then
  driving the four streams: A and B concurrently (their E1 events merged
  into one deadline-ordered queue), the dependent E2 extractions resolved
  from actual completions, then stream C, then stream D — "the streams C
  and D are serialized in order to ensure the correct results";
* **phase post** — functional verification of the integrated data plus
  metric computation.

Every workload runs through this client: a period's body is four hooks
(deploy set, re-initialization, event emission, verification) that
:class:`repro.synth.runner.SynthClient` overrides; everything else —
resilience, durability, cluster, spans, recovery — is shared.

Scale-factor handling: deadlines are generated in tu and converted to
engine time units with ``1 tu = 1/t``, so raising t compresses arrivals
against constant processing costs; the Monitor converts measured costs
back into tu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.cluster import (
    ClusterConfig,
    ClusterManager,
    FailoverReport,
    ReplicationStats,
)
from repro.db import fastpath, partition
from repro.declare import refuse
from repro.engine import ENGINES
from repro.engine.base import (
    InstanceHistory, InstanceRecord, ProcessEvent, ProcessType,
)
from repro.errors import BenchmarkError, EngineCrashed, FaultSpecError
from repro.metrics.navg import MetricReport
from repro.observability import Observability, Span
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.mtm.message import Message
from repro.resilience import (
    CircuitBreakerBoard,
    DeadLetter,
    DeadLetterQueue,
    FaultInjector,
    ResilienceContext,
    RetryPolicy,
)
from repro.scenario.messages import MessageFactory
from repro.scenario.topology import Scenario, build_scenario
from repro.scenario.xmlschemas import message_schemas
from repro.simtime.scheduler import EventScheduler
from repro.storage import RecoveryManager, RecoveryReport, StorageManager
from repro.toolsuite.initializer import Initializer
from repro.toolsuite.monitor import Monitor
from repro.toolsuite.schedule import ScaleFactors, build_schedule
from repro.toolsuite.verification import VerificationReport, verify_period

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.spec import RunSpec

#: Stream membership of the scheduled process types.
_STREAM_OF = {
    "P01": "A", "P02": "A", "P03": "A",
    "P04": "B", "P05": "B", "P06": "B", "P07": "B",
    "P08": "B", "P09": "B", "P10": "B", "P11": "B",
    "P12": "C", "P13": "C",
    "P14": "D", "P15": "D",
}


@dataclass
class BenchmarkResult:
    """Everything a benchmark run produced."""

    factors: ScaleFactors
    periods: int
    records: InstanceHistory
    metrics: MetricReport
    verification: VerificationReport
    engine_name: str
    #: Poison messages / exhausted retries, when resilience was on.
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: One report per crash recovery performed during the run.
    recovery_reports: list[RecoveryReport] = field(default_factory=list)
    #: One report per cluster failover (empty off-cluster runs).
    failover_reports: list[FailoverReport] = field(default_factory=list)
    #: Log-shipping statistics when the run was clustered.
    replication: ReplicationStats | None = None

    @property
    def total_instances(self) -> int:
        return len(self.records)

    @property
    def error_instances(self) -> int:
        return len(self.records) - self.records.column("status").count("ok")

    @property
    def total_retries(self) -> int:
        return sum(a - 1 for a in self.records.column("attempts"))

    @property
    def recoveries(self) -> int:
        """Crash recoveries performed during the run."""
        return len(self.recovery_reports)

    @property
    def failovers(self) -> int:
        """Cluster failovers performed during the run."""
        return len(self.failover_reports)


class BenchmarkClient:
    """Drives one engine through the DIPBench schedule.

    The constructor is the one place a run is wired from its
    :class:`~repro.parallel.spec.RunSpec`: it refuses a spec with
    problems, then builds the landscape, the engine, observability, the
    memory budget of every database, resilience, storage and the
    cluster.  No state is shared between clients, which is what makes a
    parallel sweep byte-identical to the serial one.
    """

    #: The streams a period opens trace spans for.
    streams: tuple[str, ...] = ("A", "B", "C", "D")

    def __init__(self, spec: "RunSpec"):
        refuse(BenchmarkError, "run spec", spec.problems())
        self.spec = spec
        self.factors = spec.factors
        self.scenario = self._landscape()
        self.engine = ENGINES[spec.engine](
            self.scenario.registry, worker_count=spec.engine_workers
        )
        if spec.mem_budget is not None:
            for db in (*self.scenario.all_databases.values(),
                       *self.engine.durable_databases()):
                db.set_memory_budget(spec.mem_budget)
        #: One observability context for the whole run; threaded through
        #: the engine, network, initializer, and monitor so every layer
        #: reports into the same tracer and metrics registry.
        self.observability = Observability(
            tracer=Tracer() if spec.collect_trace else None,
            metrics=MetricsRegistry() if spec.collect_metrics else None,
        )
        self.engine.observability = self.observability
        metrics = self.observability.metrics
        if metrics is not None:
            self.scenario.registry.network.bind_metrics(metrics)
        self.monitor = Monitor(
            time_scale=self.factors.time, observability=self.observability
        )
        #: Fault injection + recovery policies, attached exactly when the
        #: spec carries a fault timeline; otherwise the engine keeps its
        #: classic fail-fast path.
        faults = spec.faults
        self.resilience: ResilienceContext | None = None
        if faults is not None:
            refuse(FaultSpecError, "fault spec", faults.validate(
                hosts=self.scenario.registry.network.hosts,
                services=self.scenario.registry.service_names,
            ))
            breakers = CircuitBreakerBoard(metrics=metrics)
            self.resilience = ResilienceContext(
                policy=RetryPolicy(max_attempts=spec.max_attempts),
                injector=FaultInjector(
                    faults,
                    registry=self.scenario.registry,
                    factors=self.factors,
                    schemas=message_schemas(),
                    metrics=metrics,
                ),
                breakers=breakers,
                dead_letters=DeadLetterQueue(metrics=metrics),
                metrics=metrics,
                seed=spec.seed + faults.seed,
            )
            self.engine.resilience = self.resilience
            self.scenario.registry.breakers = breakers
        #: Durability layer: "off" keeps the classic volatile run
        #: (byte-identical, zero overhead); "wal" / "snapshot+wal"
        #: journal every landscape and engine database and make crash
        #: recovery possible.  ``checkpoint_every`` is in tu, converted
        #: to engine units like every other schedule quantity.
        self.storage: StorageManager | None = None
        if spec.durability != "off":
            self.storage = StorageManager(
                mode=spec.durability,
                checkpoint_every=(
                    self.factors.tu_to_engine(spec.checkpoint_every)
                    if spec.checkpoint_every is not None
                    else None
                ),
                metrics=metrics,
            )
            for db in self.scenario.all_databases.values():
                self.storage.attach(db)
            self.storage.attach_engine(self.engine)
        #: The multi-host overlay: consistent-hash placement, WAL
        #: log-shipping replicas and crash failover, replicating the
        #: durability layer's WALs (``problems()`` requires it).
        self.cluster: ClusterManager | None = None
        if spec.cluster_hosts:
            self.cluster = ClusterManager(
                ClusterConfig(
                    hosts=spec.cluster_hosts,
                    replicas=spec.cluster_replicas,
                    mode=spec.repl_mode,
                    repl_lag=spec.repl_lag,
                    repl_batch=spec.repl_batch,
                ),
                self.storage,
                self.scenario.registry.network,
                self.factors,
                seed=spec.seed,
                metrics=metrics,
            )
        self.recovery_reports: list[RecoveryReport] = []
        self._last_period: int | None = None
        self._last_factory: MessageFactory | None = None
        #: Global virtual-time offset: each period's clock restarts at
        #: zero, so finished periods push this forward to keep all spans
        #: on one monotone timeline.
        self._trace_offset = 0.0
        self._run_span: Span | None = None
        self._stream_spans: dict[str, Span] = {}

    @cached_property
    def initializer(self) -> Initializer:
        """The classic landscape's per-period data loader."""
        return Initializer(
            self.scenario, d=self.factors.datasize, f=self.factors.distribution,
            seed=self.spec.seed, observability=self.observability,
        )

    def _landscape(self) -> Scenario:
        """The landscape the run drives: the Fig. 1 scenario."""
        return build_scenario(jitter=self.spec.jitter, seed=self.spec.seed)

    @staticmethod
    def from_spec(spec: "RunSpec"):
        """The client of one :class:`RunSpec`: see
        :func:`repro.parallel.spec.client_from_spec`."""
        from repro.parallel.spec import client_from_spec

        return client_from_spec(spec)

    # -- phase work ---------------------------------------------------------------

    def run(self, verify: bool = True) -> BenchmarkResult:
        """Execute phases pre/work/post and return the result."""
        tracer = self.observability.tracer
        # Fast-path counters are process-global; report per-run deltas so
        # gauges stay identical whether runs share a process (serial
        # sweep) or get one each (parallel sweep workers).
        fastpath_base = fastpath.STATS.copy()
        partition_base = partition.STATS.copy()
        if tracer is not None:
            tracer.time_offset = 0.0
            self._run_span = tracer.begin(
                "run",
                start=self._trace_offset,
                kind="run",
                attributes={
                    "engine": self.engine.engine_name,
                    "datasize": self.factors.datasize,
                    "time": self.factors.time,
                    "distribution": self.factors.distribution,
                    "periods": self.spec.periods,
                    "seed": self.spec.seed,
                },
            )
        self._phase_pre()
        for period in range(self.spec.periods):
            self.run_period(period)
        if self._run_span is not None:
            tracer.time_offset = 0.0
            self._run_span.end(self._trace_offset)
            self._run_span = None
        verification = self._phase_post(verify)
        registry = self.observability.metrics
        if registry is not None:
            delta = fastpath.STATS - fastpath_base
            registry.gauge("db_rows_copied").set(float(delta.rows_copied))
            registry.gauge("db_rows_shared").set(float(delta.rows_shared))
            registry.gauge("expr_compiled").set(float(delta.expr_compiled))
            registry.gauge("db_index_joins").set(float(delta.index_joins))
            registry.gauge("db_pushdowns").set(float(delta.pushdowns))
            registry.gauge("mv_full_recompute").set(
                float(delta.mv_full_recompute)
            )
            # Spill activity gauges only exist on budgeted runs, so
            # unbudgeted exporter output is unchanged.
            spill_delta = partition.STATS - partition_base
            for key, value in spill_delta.snapshot().items():
                if value:
                    registry.gauge(f"partition_{key}").set(float(value))
        metrics = self.monitor.metrics()
        return BenchmarkResult(
            factors=self.factors,
            periods=self.spec.periods,
            records=self.monitor.records[:],
            metrics=metrics,
            verification=verification,
            engine_name=self.engine.engine_name,
            dead_letters=(
                list(self.resilience.dead_letters)
                if self.resilience is not None
                else []
            ),
            recovery_reports=list(self.recovery_reports),
            failover_reports=(
                list(self.cluster.failover_reports)
                if self.cluster is not None
                else []
            ),
            replication=(
                self.cluster.shipper.stats
                if self.cluster is not None
                else None
            ),
        )

    def _phase_pre(self) -> None:
        """Deploy the benchmark processes if the engine lacks them."""
        if not self.engine.deployed_ids:
            self.engine.deploy_all(self._processes().values())

    def _phase_post(self, verify: bool) -> VerificationReport:
        if not verify:
            return VerificationReport(checks=[], failures=[])
        if self._last_period is None:
            raise BenchmarkError("phase post before any period ran")
        return self._verify(self._last_period)

    # -- the period body: four hooks a workload overrides (SynthClient) --------------

    def _processes(self) -> dict[str, ProcessType]:
        """The process types phase pre deploys."""
        from repro.scenario.processes import resident_processes

        return resident_processes()

    def _reinitialize(self, period: int) -> None:
        """Uninitialize every external system, then load the period's
        sources and build its message factory."""
        self.initializer.uninitialize_all()
        self._last_factory = MessageFactory(
            self.initializer.initialize_sources(period),
            seed=self.spec.seed + 7919 * period,
            error_rate=self.spec.sandiego_error_rate,
        )

    def _verify(self, period: int) -> VerificationReport:
        """Functional verification of the last period's integrated data."""
        return verify_period(
            self.scenario, self.engine, self._last_factory
        )

    # -- one period (Fig. 7) ----------------------------------------------------------

    def run_period(self, period: int) -> list[InstanceRecord]:
        """Re-initialize the landscape, then emit the period's events
        (classic: streams A∥B → C → D); returns the period's records as
        the engine built them."""
        self._phase_pre()  # idempotent: deploys only when nothing is deployed
        tracer = self.observability.tracer
        period_span: Span | None = None
        if tracer is not None:
            # Each period's virtual clock restarts at zero: shift this
            # period's spans past everything already recorded.
            tracer.time_offset = self._trace_offset
            period_span = tracer.begin(
                f"period-{period}",
                start=0.0,
                kind="period",
                parent=self._run_span,
                attributes={"period": period},
            )
        if self.storage is not None:
            # Bulk (re)initialization is unlogged: the period-begin
            # checkpoint below is the recovery baseline instead.
            self.storage.pause()
        self._reinitialize(period)
        self._last_period = period
        self.engine.reset_workers()
        if self.resilience is not None:
            # Arm this period's fault timeline on a clean slate (prior
            # partitions healed, endpoints restored, breakers reset).
            self.resilience.begin_period(period)
        if self.storage is not None:
            # Baseline checkpoint over the freshly initialized landscape;
            # journaling is live from here until period end.
            self.storage.begin_period(period, self.engine)
        if self.cluster is not None:
            # Seed this period's replicas from the baseline checkpoint
            # and revive whatever failovers the last period killed.
            self.cluster.begin_period(period)
        records_before = len(self.engine.records)
        if tracer is not None:
            self._stream_spans = {
                stream: tracer.begin(
                    stream, start=0.0, kind="stream",
                    parent=period_span, activate=False,
                    attributes={"stream": stream, "period": period},
                )
                for stream in self.streams
            }

        new_records: list[InstanceRecord] = []
        self._emit(period, new_records)
        if self.resilience is not None:
            # Heal whatever the spec never recovered so phase post and
            # the next period start from an intact landscape.
            self.resilience.end_period()
        if self.cluster is not None:
            # Replication barrier: lagging followers drain so every
            # period ends with byte-comparable replicas.
            self.cluster.end_period()

        self.monitor.absorb(self.engine.records[records_before:])
        if period_span is not None:
            duration = max((r.completion for r in new_records), default=0.0)
            for stream, span in self._stream_spans.items():
                span.end(
                    max(
                        (r.completion for r in new_records
                         if r.stream == stream),
                        default=0.0,
                    )
                )
            self._stream_spans = {}
            errors = sum(1 for r in new_records if r.status != "ok")
            period_span.set_attribute("instances", len(new_records))
            period_span.set_attribute("errors", errors)
            period_span.end(
                duration, status="ok" if not errors else "error",
            )
            self._trace_offset += duration
        metrics = self.observability.metrics
        if metrics is not None:
            metrics.counter(
                "client_periods_total", help="Benchmark periods executed"
            ).inc()
        return new_records

    def _dispatch(
        self,
        process_id: str,
        deadline: float,
        period: int,
        stream: str,
        build: Callable[[], Message] | None = None,
    ) -> InstanceRecord:
        """Run one event of ``stream``; ``build`` makes an E1 message at
        its arrival, after the fault events due by then are applied, so
        an armed corruption hits it as it is built."""
        message = None
        if build is not None:
            res = self.resilience
            if res is not None:
                res.injector.advance_to(deadline)
            message = build()
            if res is not None:
                res.injector.maybe_corrupt(process_id, message)
        return self._handle_in_stream(
            ProcessEvent(process_id, deadline, message, period, stream)
        )

    def _handle_in_stream(self, event: ProcessEvent) -> InstanceRecord:
        """Run one event with its stream span as the span parent.

        An exception escaping ``handle_event`` itself (deployment or
        configuration errors — instance failures are already absorbed
        inside it) must not abort the whole benchmark run: it becomes an
        error record and the period continues.
        """
        stream_span = self._stream_spans.get(event.stream)
        try:
            if stream_span is None:
                return self.engine.handle_event(event)
            with self.observability.tracer.use_parent(stream_span):
                return self.engine.handle_event(event)
        except EngineCrashed as crash:
            return self._recover_and_resume(event, crash)
        except Exception as exc:
            return self.engine.record_failure(event, exc)

    def _recover_and_resume(
        self, event: ProcessEvent, crash: EngineCrashed
    ) -> InstanceRecord:
        """Durable recovery after an injected engine crash.

        Protocol: redeploy the (now empty) engine, re-bind its rebuilt
        internal databases to the existing WALs, run redo recovery, then
        re-dispatch the interrupted event — with the pristine message
        copy when the crash hit at the commit point, so the re-executed
        instance sees exactly the original input.  Recovery cost is
        reported out of band; the schedule itself is untouched, which is
        what lets the recovered run converge byte-identically.
        """
        if self.storage is None:  # unreachable: RunSpec.problems() refuses it
            raise BenchmarkError(
                "engine crashed but durability is off"
            ) from crash
        if self.cluster is not None:
            return self._failover_and_resume(event, crash)
        self._phase_pre()  # the crash wiped deployments: redeploy
        self.storage.reattach_engine(self.engine)
        report = RecoveryManager(self.storage).recover(self.engine)
        self.recovery_reports.append(report)
        self.monitor.absorb_recovery(report)
        retry_event = (
            replace(event, message=crash.pristine_message)
            if crash.pristine_message is not None
            else event
        )
        return self._handle_in_stream(retry_event)

    def _failover_and_resume(
        self, event: ProcessEvent, crash: EngineCrashed
    ) -> InstanceRecord:
        """Cluster failover after a crash fault killed a primary host.

        The distributed variant of :meth:`_recover_and_resume`: redeploy
        and reattach as usual, park the interrupted message in the
        dead-letter queue, run the failover protocol (detection →
        election → promotion → reroute), then redispatch the
        parked message — with the pristine copy when the crash hit at
        the commit point.  The first served completion closes the
        failover's RTO clock.
        """
        assert self.cluster is not None and self.storage is not None
        self._phase_pre()  # the crash wiped deployments: redeploy
        self.storage.reattach_engine(self.engine)
        self.cluster.park(event, crash)
        letter = self.cluster.parking[-1][0]
        dlq = (
            self.resilience.dead_letters
            if self.resilience is not None
            else None
        )
        if dlq is not None:
            # The in-flight message waits out the failover in the
            # dead-letter queue; redispatch removes it again below.
            dlq.push(letter)
        report = self.cluster.failover(self.engine, crash)
        self.monitor.absorb_failover(report)
        retry_event = self.cluster.pop_parked() or event
        if crash.pristine_message is not None:
            retry_event = replace(retry_event, message=crash.pristine_message)
        record = self._handle_in_stream(retry_event)
        self.cluster.complete_failover(report, record.completion)
        if dlq is not None and letter in dlq.entries:
            dlq.entries.remove(letter)
        return record

    def _emit(self, period: int, records: list[InstanceRecord]) -> None:
        """Streams A∥B → C → D (Fig. 7): A's and B's E1 events merged
        in deadline order, the T1-dependent E2 chain, then C, then D."""
        factory = self._last_factory
        schedule = build_schedule(period, self.factors)
        scheduler = EventScheduler(metrics=self.observability.metrics)

        builders = {
            "P01": lambda: factory.beijing_master_data(),
            "P02": factory.mdm_customer_update,
            "P04": factory.vienna_order,
            "P08": factory.hongkong_order,
            "P10": factory.sandiego_order,
        }
        for process_id in ("P01", "P02", "P04", "P08", "P10"):
            for deadline_tu in schedule.series(process_id):
                scheduler.push(
                    self.factors.tu_to_engine(deadline_tu), process_id
                )

        completions: dict[str, float] = {}
        for event in scheduler.drain():
            process_id = event.payload
            record = self._dispatch(
                process_id, event.deadline, period,
                _STREAM_OF[process_id], builders[process_id],
            )
            records.append(record)
            completions[process_id] = max(
                completions.get(process_id, 0.0), record.completion
            )

        def run_at(process_id: str, deadline: float) -> InstanceRecord:
            record = self._dispatch(
                process_id, deadline, period, _STREAM_OF[process_id]
            )
            records.append(record)
            completions[process_id] = record.completion
            return record

        # Stream A tail: P03 after the last P01 and P02 instances.
        t_p03 = max(completions.get("P01", 0.0), completions.get("P02", 0.0))
        run_at("P03", t_p03)

        # Stream B tail: the serialized European extraction chain and the
        # Asian/American consolidations.
        run_at("P05", completions.get("P04", 0.0))
        run_at("P06", completions["P05"])
        run_at("P07", completions["P06"])
        run_at("P09", completions.get("P08", 0.0))
        # P11 at T1(StreamB): after every other stream-B process.
        t_p11 = max(
            completions.get(pid, 0.0)
            for pid in ("P04", "P05", "P06", "P07", "P08", "P09", "P10")
        )
        run_at("P11", t_p11)

        # Stream C starts when A and B have fully completed.
        t_c = max(
            completions.get(pid, 0.0)
            for pid in ("P01", "P02", "P03", "P04", "P05", "P06",
                        "P07", "P08", "P09", "P10", "P11")
        )
        record_p12 = run_at("P12", t_c)
        # Table II: P13 = T0(StreamC) + 10 tu; serialized behind P12 for
        # correct results (movement cleansing needs clean master data).
        t_p13 = max(t_c + self.factors.tu_to_engine(10.0), record_p12.completion)
        record_p13 = run_at("P13", t_p13)

        # Stream D after C; P15 after P14.
        record_p14 = run_at("P14", record_p13.completion)
        run_at("P15", record_p14.completion)
