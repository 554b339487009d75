"""Command-line front-end for the toolsuite.

Mirrors how the original DIPBench toolsuite was operated: one command to
execute the benchmark autonomously, plus inspection helpers.

Usage (also available as ``python -m repro``)::

    python -m repro run --engine federated --datasize 0.05 --periods 5
    python -m repro sweep --workers 4 --grid d=0.02,0.05 --grid f=0,1 \\
        --engines interpreter,federated --periods 2 --out sweep.json
    python -m repro run --plot plot.svg --report report.txt
    python -m repro run --trace-out trace.json --metrics-out metrics.prom
    python -m repro run --faults examples/faults_basic.json
    python -m repro run --durability snapshot+wal --checkpoint-every 50 \\
        --faults examples/faults_crash.json
    python -m repro recover --engine federated --crash-at 300
    python -m repro cluster run --hosts 3 --replicas 1 --crashes 2
    python -m repro cluster topology --hosts 3 --replicas 1
    python -m repro trace --engine interpreter --periods 2 --out trace.json
    python -m repro profile --engine interpreter --periods 2 --out prof.json
    python -m repro serve --port 8321 --tenant acme:rate=20:active=4
    python -m repro storm --clients 1000 --tenants acme,globex --rate 500
    python -m repro storm --clients 200 --model closed --identity-check
    python -m repro schedule --period 0 --datasize 0.05
    python -m repro faults examples/faults_basic.json
    python -m repro processes
    python -m repro validate

Exit status is non-zero when the post-phase verification fails, so the
command composes with CI pipelines.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import replace
from typing import Sequence

from repro.db import partition as db_partition
from repro.engine import ENGINES
from repro.declare import choices_of, fields_of, from_text, knob_type
from repro.declare import problems as declared_problems
from repro.errors import (
    ClusterError,
    FaultSpecError,
    ReproError,
    ScaleFactorError,
    ServeError,
)
from repro.ioutil import write_json_atomic, write_text_atomic
from repro.mtm.process import validate_definition
from repro.observability.export import export_prometheus
from repro.parallel import (
    RunSpec,
    SweepError,
    SweepExecutor,
    client_from_spec,
    grid_from_axes,
    parse_grid_axes,
    prove_convergence,
)
from repro.resilience import FaultEvent, FaultSpec
from repro.scenario import PROCESS_TABLE, build_processes, build_scenario
from repro.serve.manager import ServeConfig
from repro.serve.storm import StormConfig
from repro.storage import DURABILITY_MODES, landscape_digest
from repro.toolsuite import ScaleFactors, sweep_table
from repro.toolsuite.schedule import build_schedule


class _UsageError(Exception):
    """What the user typed cannot be run: printed as ``error: ...``, exit 2."""


def _spec_options(parser, spec, names: str, **overrides) -> None:
    """Add the options of the named fields of a declared ``spec`` class.

    Flag, type, choices, default and help come from the field's
    declaration (:func:`repro.declare.knob`); ``overrides`` holds what
    this command does differently — a bare value is its default, a dict
    is merged into the ``add_argument`` keywords (``flag`` respells the
    option).  :func:`_spec_from_args` reads the values back by the same
    names.
    """
    dests = {}
    for name in names.split():
        declared = fields_of(spec)[name]
        knob = declared.metadata
        override = overrides.get(name, {})
        if not isinstance(override, dict):
            override = {"default": override}
        default = declared.default
        if knob.get("action") == "append":
            default = []
        elif isinstance(default, tuple):
            default = knob["split"].join(default)
        options = {"default": default, "help": knob["help"]}
        choices = choices_of(declared)
        if choices is not None:
            options["choices"] = choices
        options.update((k, knob[k]) for k in ("metavar", "action") if k in knob)
        options.update(override)
        flag = options.pop("flag", knob["flag"])
        parsed_as = knob_type(declared)
        if parsed_as in (int, float):
            options["type"] = parsed_as
        if parsed_as is bool:
            options.update(action="store_true", default=False)
        elif options["default"] not in (None, "", []):
            options["help"] += " (default %(default)s)"
        dests[name] = parser.add_argument(flag, **options).dest
    parser.set_defaults(
        spec_dests={**(parser.get_default("spec_dests") or {}), spec: dests}
    )


def _spec_from_args(
    args: argparse.Namespace, spec: type = RunSpec, check=RunSpec.problems,
    **fixed,
):
    """The ``spec`` a namespace filled by :func:`_spec_options` describes.

    A RunSpec is refused with what ``check`` finds in it: every problem
    of a run, or (:func:`repro.declare.problems`) only the declared
    ranges, for a command that inspects a run without starting one.
    """
    values, found = {}, []
    try:
        for name, dest in args.spec_dests[spec].items():
            knob, value = fields_of(spec)[name], getattr(args, dest)
            if knob_type(knob) is bool and knob.default is True:
                value = not value  # spelled --no-...
            elif isinstance(value, str) and "split" in knob.metadata:
                value = from_text(knob, value, found)
            if "parse" in knob.metadata and value is not None:
                value = knob.metadata["parse"](value)
            values[name] = value
        # The serve configs refuse bad values; a RunSpec lists them.
        built = spec(**{**values, **fixed})
    except ReproError as exc:
        raise _UsageError(str(exc)) from None
    if found:
        raise _UsageError("; ".join(found))
    if isinstance(built, RunSpec):
        found = check(built)
    if found:
        raise _UsageError("invalid run spec: " + "; ".join(found))
    return built


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIPBench: benchmark data-intensive integration processes",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    #: Crash-and-converge commands always run durable.
    durable = {"default": "snapshot+wal", "choices": DURABILITY_MODES}

    run = commands.add_parser("run", help="execute the benchmark")
    _spec_options(
        run, RunSpec,
        "engine datasize time distribution periods seed jitter "
        "engine_workers faults max_attempts durability checkpoint_every "
        "mem_budget",
        periods=5,
    )
    run.add_argument("--plot", metavar="FILE.svg",
                     help="write the performance plot as SVG")
    run.add_argument("--report", metavar="FILE.txt",
                     help="write the metric table to a file")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the ASCII plot")
    run.add_argument("--trace-out", metavar="FILE.json",
                     help="write a Chrome trace_event JSON of the run "
                          "(open in chrome://tracing or ui.perfetto.dev)")
    run.add_argument("--metrics-out", metavar="FILE.prom",
                     help="write the run's metrics registry as "
                          "Prometheus text")

    sweep = commands.add_parser(
        "sweep",
        help="fan a scale-factor grid out across worker processes and "
             "merge the results in deterministic grid order",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (1 = serial; the "
                            "merged output is byte-identical either way)")
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="AXIS=V1,V2,...",
                       help="grid axis values: d=... (datasize), t=... "
                            "(time), f=... (distribution); repeat per "
                            "axis (defaults: d=0.05 t=1 f=0)")
    sweep.add_argument("--engines", default="interpreter",
                       help="comma-separated engine variants to sweep "
                            f"(choose from {','.join(sorted(ENGINES))})")
    sweep.add_argument("--seeds", default="42",
                       help="comma-separated seed replicas (default 42)")
    # Every grid point shares these; --synth is repeatable and sweeps as
    # one more grid axis (also spellable as --grid synth=K1/K2).
    _spec_options(
        sweep, RunSpec,
        "periods jitter engine_workers faults max_attempts durability "
        "checkpoint_every mem_budget verify synth",
        engine_workers={"flag": "--engine-workers"},
        synth={"action": "append", "default": []},
    )
    sweep.add_argument("--out", metavar="FILE.json",
                       help="write the merged sweep (digests, NAVG+, "
                            "fingerprints; no wall-clock fields) as JSON")
    sweep.add_argument("--metrics-out", metavar="FILE.prom",
                       help="collect per-worker metrics shards, merge "
                            "them in grid order and write Prometheus "
                            "text")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the per-point table")

    recover = commands.add_parser(
        "recover",
        help="crash the engine mid-period, recover from snapshot+WAL and "
             "verify byte-identical convergence against a fault-free run",
    )
    _spec_options(
        recover, RunSpec,
        "engine datasize time periods seed engine_workers durability "
        "checkpoint_every faults mem_budget",
        durability=durable, checkpoint_every=50.0,
    )
    recover.add_argument("--crash-at", type=float, default=300.0,
                         metavar="T",
                         help="engine time of the crash in period 0, "
                              "unless --faults is given (default 300)")
    recover.add_argument("--crash-point", choices=("arrival", "commit"),
                         default="commit",
                         help="kill before admission or right after the "
                              "instance commits (default commit)")
    recover.add_argument("--metrics-out", metavar="FILE.prom",
                         help="write the crash run's metrics registry "
                              "as Prometheus text")
    recover.add_argument("--jobs", type=int, default=1,
                         help="run the fault-free baseline and the "
                              "crash run in parallel worker processes "
                              "(default 1 = serial)")

    trace = commands.add_parser(
        "trace",
        help="run the benchmark with tracing on and export the span tree",
    )
    _spec_options(
        trace, RunSpec,
        "engine datasize time distribution periods seed engine_workers "
        "jitter",
        periods=2,
    )
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="trace output path (default trace.json)")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="chrome trace_event JSON (default) or one "
                            "span per line as JSONL")
    trace.add_argument("--metrics-out", metavar="FILE.prom",
                       help="also write the metrics registry as "
                            "Prometheus text")

    profile = commands.add_parser(
        "profile",
        help="run the benchmark and print a per-operator cost breakdown "
             "(plus partition_* spill counters under --mem-budget and a "
             "per-family breakdown under --synth)",
    )
    _spec_options(
        profile, RunSpec,
        "engine datasize time distribution periods seed engine_workers "
        "mem_budget synth",
        periods=2,
    )
    profile.add_argument("--out", metavar="FILE.json",
                         help="also write the breakdown as JSON")

    schedule = commands.add_parser(
        "schedule", help="print the Table II event series for one period"
    )
    schedule.add_argument("--period", type=int, default=0)
    _spec_options(schedule, RunSpec, "datasize time")

    serve = commands.add_parser(
        "serve",
        help="run the benchmark-as-a-service HTTP API "
             "(POST /sessions, GET /sessions/{id}[/report], /healthz)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (default 8321; 0 picks a free one)")
    _spec_options(
        serve, ServeConfig,
        "engine_slots queue_capacity dispatcher tenants cache",
    )
    serve.add_argument("--closed", action="store_true",
                       help="closed enrollment: reject tenants not "
                            "declared via --tenant (default: open, any "
                            "tenant gets the default policy)")

    storm = commands.add_parser(
        "storm",
        help="drive seeded virtual clients against a serve endpoint and "
             "report per-tenant throughput, latency percentiles and "
             "backpressure accounting",
    )
    # Tenants, arrival and think times derive from --seed; pool seeds
    # are seed * 1000 + k.
    _spec_options(
        storm, StormConfig,
        "clients tenants model rate concurrency seed distinct engine "
        "datasize time synth",
        clients=1000, rate=500.0,
    )
    storm.add_argument("--host",
                       help="target a running server instead of "
                            "self-hosting one in-process")
    storm.add_argument("--port", type=int)
    # The self-hosted server's own knobs.
    _spec_options(
        storm, ServeConfig, "engine_slots queue_capacity tenants",
        tenants={"flag": "--tenant-policy", "dest": "tenant_policies"},
    )
    storm.add_argument("--identity-check", action="store_true",
                       help="after the storm, run every pooled spec "
                            "directly through BenchmarkClient and fail "
                            "unless the served reports are byte-identical")
    storm.add_argument("--out", metavar="FILE.json",
                       help="write the storm report as JSON (atomic, "
                            "parents created)")
    storm.add_argument("--quiet", action="store_true",
                       help="suppress the per-tenant table")

    faults = commands.add_parser(
        "faults",
        help="validate and describe a fault-injection spec file",
    )
    faults.add_argument("spec", metavar="SPEC.json",
                        help="fault spec file to check")

    cluster = commands.add_parser(
        "cluster",
        help="multi-host cluster: failover runs with measured RTO/RPO, "
             "and topology inspection",
    )
    cluster_cmds = cluster.add_subparsers(dest="cluster_command",
                                          required=True)
    crun = cluster_cmds.add_parser(
        "run",
        help="run a sharded cluster through primary crashes, fail over "
             "to log-shipped replicas and verify byte-identical "
             "convergence against a fault-free single-host run",
    )
    _spec_options(
        crun, RunSpec,
        "engine datasize time periods seed engine_workers cluster_hosts "
        "cluster_replicas repl_mode repl_lag repl_batch durability "
        "checkpoint_every faults",
        engine="federated", cluster_hosts=3, durability=durable,
        checkpoint_every=200.0,
    )
    crun.add_argument("--crashes", type=int, default=2,
                      help="primary crashes to schedule in period 0 "
                           "(default 2)")
    crun.add_argument("--crash-at", type=float, default=40.0, metavar="T",
                      help="time of the first crash in tu, unless "
                           "--faults is given (default 40)")
    crun.add_argument("--crash-spacing", type=float, default=80.0,
                      metavar="TU",
                      help="tu between scheduled crashes (default 80)")
    crun.add_argument("--metrics-out", metavar="FILE.prom",
                      help="write the cluster run's metrics registry as "
                           "Prometheus text")
    crun.add_argument("--out", metavar="FILE.json",
                      help="write the failover summary (RTO/RPO, "
                           "replication stats, fingerprints) as JSON")
    crun.add_argument("--jobs", type=int, default=1,
                      help="run baseline and cluster run in parallel "
                           "worker processes (default 1 = serial)")
    ctopo = cluster_cmds.add_parser(
        "topology",
        help="print the consistent-hash ring placement and shard map "
             "of the initialized landscape",
    )
    _spec_options(
        ctopo, RunSpec, "cluster_hosts cluster_replicas seed datasize",
        cluster_hosts=3,
    )

    synth = commands.add_parser(
        "synth",
        help="parameterized workload synthesis: generate, describe or "
             "run seeded integration scenarios (CDC/SCD/dirty-data "
             "process families)",
    )
    synth.add_argument("action", choices=("generate", "describe", "run"),
                       help="generate = print the scenario manifest and "
                            "its content digest; describe = human "
                            "summary; run = execute the workload")
    _spec_options(
        synth, RunSpec,
        "synth engine distribution time periods seed engine_workers",
        synth={"flag": "--knobs", "help": "knob string, e.g. sources=3,"
               "depth=2,noise=0.3,families=cdc+scd+dirty (empty = all "
               "defaults)"},
    )
    synth.add_argument("--conformance", action="store_true",
                       help="run differentially on every engine and "
                            "assert digest/status/verification equality")
    synth.add_argument("--out", metavar="FILE.json",
                       help="write the manifest (generate) or the run/"
                            "conformance report as JSON")
    synth.add_argument("--quiet", action="store_true",
                       help="suppress the per-family cost table")

    commands.add_parser("processes", help="list the benchmark process types")
    commands.add_parser(
        "validate", help="statically validate all process definitions"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    observed = bool(args.trace_out or args.metrics_out)
    spec = _spec_from_args(
        args, collect_metrics=observed, collect_trace=observed
    )
    try:
        client = client_from_spec(spec)
    except FaultSpecError as exc:
        raise _UsageError(f"invalid fault spec {args.faults}: {exc}") from None
    observability = client.observability
    result = client.run()

    table = result.metrics.as_table()
    print(
        f"engine={result.engine_name} d={args.datasize} t={args.time} "
        f"f={args.distribution} periods={result.periods} "
        f"instances={result.total_instances} errors={result.error_instances}"
    )
    print(result.verification.summary())
    if spec.faults is not None:
        print(client.monitor.resilience_summary().describe())
        if result.dead_letters:
            print("  dead letters:")
            for letter in result.dead_letters:
                print(
                    f"    {letter.process_id} period={letter.period} "
                    f"t={letter.time:.1f} attempts={letter.attempts} "
                    f"{letter.error}"
                )
    if client.storage is not None:
        stats = client.storage.stats()
        print(
            f"durability: mode={stats['mode']} commits={stats['commits']} "
            f"flushes={stats['flushes']} wal_records={stats['wal_records']} "
            f"checkpoints={stats['checkpoints']} crashes={stats['crashes']}"
        )
        print(client.monitor.recovery_summary().describe())
        for report in result.recovery_reports:
            print(f"  {report.describe()}")
    print()
    print(table)
    if not args.quiet:
        print()
        print(client.monitor.performance_plot(
            title=f"DIPBench Performance Plot [sfTime={args.time}, "
                  f"sfDatasize={args.datasize}] ({result.engine_name})"
        ))
    if args.report:
        write_text_atomic(
            args.report, result.verification.summary() + "\n\n" + table + "\n"
        )
        print(f"\nreport written to {args.report}")
    if args.plot:
        client.monitor.save_plot(args.plot)
        print(f"plot written to {args.plot}")
    if args.trace_out:
        observability.write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"({len(observability.tracer.spans)} spans; open in "
              "chrome://tracing or ui.perfetto.dev)")
    if args.metrics_out:
        observability.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0 if result.verification.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Parallel scale-grid sweep with deterministic merged output."""
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        raise _UsageError(
            f"unknown engines {unknown}; choose from {sorted(ENGINES)}"
        )
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        axes = parse_grid_axes(args.grid)
        if args.synth:
            axes["synth"] = axes.get("synth", []) + args.synth
        # What every grid point shares, checked once as a spec of its own.
        common = _spec_from_args(args, synth="")
        specs = grid_from_axes(
            axes,
            engines=engines,
            seeds=seeds,
            collect_metrics=bool(args.metrics_out),
            **{
                name: getattr(common, name)
                for name in args.spec_dests[RunSpec] if name != "synth"
            },
        )
        # Each grid point is checked before any worker is spawned.
        problems = dict.fromkeys(p for spec in specs for p in spec.problems())
        if problems:
            raise SweepError("invalid grid point: " + "; ".join(problems))
        executor = SweepExecutor(workers=args.workers)
    except (SweepError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    result = executor.run(specs)

    print(
        f"sweep: {len(result)} grid points, workers={result.workers} "
        f"[{result.start_method}], {result.total_instances} instances, "
        f"{result.wall_seconds:.2f}s wall"
    )
    if not args.quiet:
        print()
        print(sweep_table(result.outcomes))
        print()
    for outcome in result.failed:
        print(f"FAILED {outcome.label}: [{outcome.error_type}] "
              f"{outcome.error}")
    print(f"sweep fingerprint: {result.fingerprint()}")
    if args.out:
        write_json_atomic(args.out, result.to_json())
        print(f"sweep written to {args.out}")
    if args.metrics_out:
        write_text_atomic(
            args.metrics_out, export_prometheus(result.merged_metrics())
        )
        print(f"merged metrics written to {args.metrics_out}")
    return 0 if result.ok else 1


def _convergence_spec(args: argparse.Namespace, name: str, crashes) -> RunSpec:
    """The faulted spec of a convergence command, refused before any run:
    its ``--faults``, else the crash timeline it synthesizes from flags."""
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    spec = _spec_from_args(args, collect_metrics=bool(args.metrics_out))
    if spec.faults is None:
        spec = replace(spec, faults=FaultSpec(
            name=name,
            seed=args.seed,
            events=tuple(
                FaultEvent(at=at, kind="crash", point=point, period=0)
                for at, point in crashes
            ),
        ))
        problems = spec.faults.validate()
        if problems:
            raise _UsageError("invalid fault spec: " + "; ".join(problems))
        problems = spec.problems()
        if problems:
            raise _UsageError("invalid run spec: " + "; ".join(problems))
    return spec


def _faulted_vs_baseline(
    args: argparse.Namespace, spec: RunSpec, name: str, counter: str
):
    """Run ``spec`` against its fault-free twin; print what both commands
    print: the two summaries, every recovery / failover event of the
    faulted run, the metrics export.  None when a run did not complete.
    """
    report = prove_convergence(spec, jobs=args.jobs)
    if report.incomplete is not None:
        outcome = report.incomplete
        print(f"error: {outcome.label} did not complete: "
              f"[{outcome.error_type}] {outcome.error}", file=sys.stderr)
        return None
    base, faulted = report.baseline.result, report.faulted.result
    print(f"  baseline: instances={base.total_instances} "
          f"verification={'ok' if base.verification.ok else 'FAILED'}")
    print(f"  {name}: instances={faulted.total_instances} "
          f"{counter}={getattr(faulted, counter)} "
          f"verification={'ok' if faulted.verification.ok else 'FAILED'}")
    for event in (*faulted.recovery_reports, *faulted.failover_reports):
        print(f"  {event.describe()}")
    if faulted.replication is not None:
        print(f"  {faulted.replication.describe()}")
    if args.metrics_out and report.faulted.metrics_shard is not None:
        write_text_atomic(
            args.metrics_out, export_prometheus(report.faulted.metrics_shard)
        )
        print(f"  metrics written to {args.metrics_out}")
    print(f"records byte-identical: {'yes' if report.records_equal else 'NO'}")
    print(f"landscape digest equal: {'yes' if report.digests_equal else 'NO'}")
    return report


def _cmd_recover(args: argparse.Namespace) -> int:
    """Crash + recover, then prove convergence against a clean run.

    Two runs at the same seed and scale: a fault-free baseline and a run
    that hard-kills the engine at ``--crash-at`` and recovers from the
    durability logs.  Convergence is byte-identity of the final landscape
    digest and of every per-instance record (hence identical NAVG+).
    """
    spec = _convergence_spec(
        args, "recover-cli", [(args.crash_at, args.crash_point)]
    )
    print(f"baseline: engine={args.engine} seed={args.seed} "
          f"d={args.datasize} t={args.time} periods={args.periods}")
    print(f"crash run: kind=crash point={args.crash_point} "
          f"at={args.crash_at} durability={args.durability} "
          f"checkpoint_every={args.checkpoint_every} jobs={args.jobs}")
    report = _faulted_vs_baseline(args, spec, "crash run", "recoveries")
    if report is None:
        return 2
    if report.faulted.result.recoveries == 0:
        print("DIVERGED: the fault schedule produced no recovery "
              "(crash time outside the period?)")
        return 1
    if report.converged:
        print("CONVERGED: crash recovery reproduced the fault-free run "
              "byte-identically")
        return 0
    print("DIVERGED: recovery did not reproduce the fault-free run")
    return 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "topology":
        return _cmd_cluster_topology(args)
    return _cmd_cluster_run(args)


def _cmd_cluster_topology(args: argparse.Namespace) -> int:
    """Print ring placement and shard map of an initialized landscape."""
    from repro.cluster import ClusterConfig, HashRing, ShardMap
    from repro.cluster.manager import VNODES
    from repro.toolsuite.initializer import Initializer

    spec = _spec_from_args(args, check=declared_problems)
    try:
        config = ClusterConfig(hosts=spec.cluster_hosts,
                               replicas=spec.cluster_replicas)
        ring = HashRing(config.host_names, seed=spec.seed, vnodes=VNODES)
    except ClusterError as exc:
        raise _UsageError(str(exc)) from None
    scenario = build_scenario(seed=spec.seed)
    Initializer(scenario, d=spec.datasize, seed=spec.seed).initialize_sources(0)
    shard_map = ShardMap.build(scenario.all_databases.values(), ring)
    print(f"cluster topology: {spec.cluster_hosts} host(s) x "
          f"{spec.cluster_replicas} replica(s), {VNODES} vnode(s)/host, "
          f"seed {spec.seed}")
    for name in sorted(scenario.all_databases):
        placement = ring.preference(name, 1 + spec.cluster_replicas)
        print(f"  {name}: primary {placement[0]}, "
              f"followers {', '.join(placement[1:]) or 'none'}")
    print(shard_map.describe())
    return 0


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """Crash primaries, fail over, then prove byte-identical convergence.

    Two runs at the same seed and scale: a fault-free single-host
    baseline and a clustered run that loses ``--crashes`` primary hosts
    to crash faults and fails over to the log-shipped replicas each
    time.  Convergence is byte-identity of the landscape digest, every
    per-instance record, and the full run fingerprint; the cluster run
    additionally reports RTO per failover and asserts RPO=0 under
    synchronous shipping.
    """
    if args.faults is None and args.crashes < 1:
        raise _UsageError("--crashes must be >= 1")
    spec = _convergence_spec(args, "cluster-cli", [
        (args.crash_at + index * args.crash_spacing,
         ("arrival", "commit")[index % 2])
        for index in range(args.crashes)
    ])
    crashes = sum(1 for e in spec.faults.events if e.kind == "crash")
    print(f"baseline: engine={args.engine} seed={args.seed} "
          f"d={args.datasize} t={args.time} periods={args.periods} "
          f"(single host, fault-free)")
    print(f"cluster run: hosts={args.hosts} replicas={args.replicas} "
          f"mode={args.mode} repl_lag={args.repl_lag} "
          f"crashes={crashes} "
          f"durability={args.durability} jobs={args.jobs}")
    report = _faulted_vs_baseline(args, spec, "cluster run", "failovers")
    if report is None:
        return 2
    clustered = report.faulted.result
    fingerprints_equal = report.fingerprints_equal
    rpo_total = sum(r.rpo_records for r in clustered.failover_reports)
    rtos = [r.rto_eu for r in clustered.failover_reports
            if r.rto_eu is not None]
    print(f"fingerprints equal: {'yes' if fingerprints_equal else 'NO'}")
    print(f"RPO total: {rpo_total} record(s); "
          f"RTO: {', '.join(f'{r * args.time:.2f}tu' for r in rtos) or 'n/a'}")
    if args.out:
        write_json_atomic(args.out, {
            "hosts": args.hosts,
            "replicas": args.replicas,
            "mode": args.mode,
            "repl_lag": args.repl_lag,
            "failovers": [
                {
                    "dead_host": r.dead_host,
                    "crash_at": r.crash_at,
                    "detection_eu": r.detection_eu,
                    "promoted": len(r.promoted),
                    "rpo_records": r.rpo_records,
                    "rto_tu": (r.rto_eu * args.time
                               if r.rto_eu is not None else None),
                }
                for r in clustered.failover_reports
            ],
            "rpo_total": rpo_total,
            "records_equal": report.records_equal,
            "digests_equal": report.digests_equal,
            "fingerprints_equal": fingerprints_equal,
            "baseline_fingerprint": report.baseline.fingerprint(),
            "cluster_fingerprint": report.faulted.fingerprint(),
        })
        print(f"  summary written to {args.out}")
    if clustered.failovers == 0:
        print("DIVERGED: the fault schedule produced no failover "
              "(crash time outside the period?)")
        return 1
    if args.mode == "sync" and rpo_total != 0:
        print(f"DIVERGED: synchronous shipping must have RPO=0, "
              f"measured {rpo_total}")
        return 1
    if report.converged and fingerprints_equal:
        print("CONVERGED: cluster failover reproduced the fault-free "
              "single-host run byte-identically")
        return 0
    print("DIVERGED: failover did not reproduce the fault-free run")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    client = client_from_spec(
        _spec_from_args(args, collect_metrics=True, collect_trace=True)
    )
    observability = client.observability
    result = client.run()

    if args.format == "chrome":
        observability.write_chrome_trace(args.out)
    else:
        observability.write_spans_jsonl(args.out)
    tracer = observability.tracer
    instance_spans = tracer.spans_of_kind("instance")
    print(
        f"engine={result.engine_name} periods={result.periods} "
        f"instances={result.total_instances} errors={result.error_instances}"
    )
    print(
        f"{len(tracer.spans)} spans "
        f"({len(instance_spans)} instances, "
        f"{len(tracer.spans_of_kind('operator'))} operators, "
        f"{len(tracer.spans_of_kind('network'))} network) "
        f"written to {args.out} [{args.format}]"
    )
    if args.format == "chrome":
        print("open in chrome://tracing or https://ui.perfetto.dev")
    if args.metrics_out:
        observability.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0 if result.verification.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run once with observability on; aggregate cost per operator kind.

    The engines already log one OperatorObservation per leaf operator
    and emit them as kind="operator" spans whose duration is the
    operator's priced share of the instance; the profile sums those per
    operator kind and pairs them with the relational kernel's fast-path
    operation counters for the same run.
    """
    from repro.db import fastpath

    client = client_from_spec(
        _spec_from_args(args, collect_metrics=True, collect_trace=True)
    )
    observability = client.observability
    stats_base = fastpath.STATS.copy()
    partition_base = db_partition.STATS.copy()
    result = client.run()
    stats = (fastpath.STATS - stats_base).snapshot()
    partition_stats = {
        key: value
        for key, value in (db_partition.STATS - partition_base)
        .snapshot()
        .items()
        if value
    }
    # Which table thrashes: each store's own share of the counters
    # above, for every store-backed table that faulted at all.
    partition_tables = sorted(
        (
            {
                "table": f"{db.name}.{name}",
                "reloads": store.reloads,
                "spills": store.spills,
                "segment_reuses": store.segment_reuses,
            }
            for db in (
                *client.scenario.all_databases.values(),
                *client.engine.durable_databases(),
            )
            for name in db.table_names
            if (store := db.table(name).partition_store) is not None
            and (store.reloads or store.spills or store.segment_reuses)
        ),
        key=lambda entry: (-entry["reloads"], entry["table"]),
    )

    breakdown: dict[str, dict[str, float]] = {}
    for span in observability.tracer.spans_of_kind("operator"):
        op_kind = span.name.split(":", 1)[0]
        entry = breakdown.setdefault(
            op_kind,
            {"count": 0, "cost": 0.0, "work": 0.0, "communication": 0.0,
             "vectorized": 0},
        )
        entry["count"] += 1
        entry["cost"] += span.duration
        entry["communication"] += float(
            span.attributes.get("communication", 0.0)
        )
        entry["work"] += sum(
            float(value)
            for key, value in span.attributes.items()
            if key.startswith("work_")
        )
        # Per-operator columnar joins (db_* attributes are the
        # fast-path counter deltas the operator charged).
        entry["vectorized"] += int(span.attributes.get("db_vector_joins", 0))

    print(
        f"engine={result.engine_name} d={args.datasize} t={args.time} "
        f"periods={result.periods}"
        + (f" workload={args.synth}" if args.synth else "")
    )
    if args.synth:
        # Generated workloads report in family terms, not raw SY-ids.
        print()
        print(client.monitor.family_table())
        print()
    print(
        f"{'operator':<16}{'count':>8}{'cost':>12}{'work':>12}{'comm':>10}"
        f"{'vect':>8}"
    )
    for op_kind in sorted(
        breakdown, key=lambda k: breakdown[k]["cost"], reverse=True
    ):
        entry = breakdown[op_kind]
        print(
            f"{op_kind:<16}{int(entry['count']):>8}{entry['cost']:>12.2f}"
            f"{entry['work']:>12.1f}{entry['communication']:>10.1f}"
            f"{int(entry['vectorized']):>8}"
        )
    print("fast-path counters:")
    for key, value in stats.items():
        print(f"  {key:<20}{value:>10}")
    if partition_stats:
        print("partition spill counters:")
        for key, value in partition_stats.items():
            print(f"  {key:<20}{value:>10}")
        for entry in partition_tables:
            print(
                f"  {entry['table']:<34}reloads={entry['reloads']:<6}"
                f"spills={entry['spills']:<6}"
                f"segment_reuses={entry['segment_reuses']}"
            )
    if args.out:
        payload = {
            "engine": result.engine_name,
            "factors": {
                "datasize": args.datasize,
                "time": args.time,
                "distribution": args.distribution,
            },
            "periods": result.periods,
            "mem_budget": args.mem_budget,
            "operators": breakdown,
            "fastpath": stats,
            "partition": partition_stats,
            "partition_tables": partition_tables,
        }
        if args.synth:
            payload["workload"] = args.synth
        write_json_atomic(args.out, payload)
        print(f"breakdown written to {args.out}")
    return 0 if result.verification.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the benchmark-as-a-service HTTP front end until interrupted."""
    from repro.serve import HttpServer, SessionManager

    config = _spec_from_args(
        args, ServeConfig, **({"default_policy": None} if args.closed else {})
    )
    if not 0 <= args.port <= 65535:
        raise _UsageError(f"--port must be in [0, 65535], got {args.port}")

    async def _serve() -> None:
        server = HttpServer(SessionManager(config))
        await server.start(host=args.host, port=args.port)
        tenants = ", ".join(sorted(config.tenants)) or (
            "closed enrollment" if args.closed else "open enrollment"
        )
        print(
            f"serving DIPBench sessions on http://{server.host}:"
            f"{server.port} ({config.dispatcher} dispatcher, "
            f"{config.engine_slots} slot(s), queue {config.queue_capacity}, "
            f"tenants: {tenants})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop(drain=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


async def _storm_identity_check(config, client) -> list[str]:
    """Prove served reports equal direct BenchmarkClient execution.

    For every spec in the storm's pool: submit it as a session, fetch the
    served report, run the identical spec directly through ``run_spec``,
    and byte-compare the shared report core (landscape digest, run
    fingerprint, NAVG+ table, latency percentiles).
    """
    from repro.parallel.spec import run_spec
    from repro.serve import CONTRACT_V1, parse_session_request, report_core
    from repro.toolsuite.monitor import Monitor

    loop = asyncio.get_running_loop()
    problems: list[str] = []
    for spec_doc in config.spec_pool():
        doc = {"contract": CONTRACT_V1, "tenant": "identity",
               "spec": spec_doc}
        posted = await client.post_session(doc)
        if posted.status != 202 or posted.doc is None:
            problems.append(
                f"identity session rejected ({posted.status}): {spec_doc}"
            )
            continue
        served = await client.get_report(
            posted.doc["id"], "identity", wait=60.0
        )
        if served.status != 200 or served.doc is None:
            problems.append(
                f"no served report ({served.status}): {spec_doc}"
            )
            continue
        spec = parse_session_request(doc).spec
        outcome = await loop.run_in_executor(None, run_spec, spec)
        direct = json.dumps(
            report_core(outcome, Monitor.merged([outcome])), sort_keys=True
        )
        served_core = json.dumps(
            {k: served.doc.get(k) for k in json.loads(direct)},
            sort_keys=True,
        )
        if served_core != direct:
            problems.append(
                f"served report diverges from direct run for {spec.label}: "
                f"served={served_core} direct={direct}"
            )
    return problems


def _cmd_storm(args: argparse.Namespace) -> int:
    """Seeded virtual-client storm; self-hosts a server unless --host."""
    from repro.serve import HttpServer, ServeClient, SessionManager, Storm

    config = _spec_from_args(args, StormConfig)
    serve_config = _spec_from_args(args, ServeConfig)
    if args.host is not None and args.port is None:
        raise _UsageError("--host needs --port")

    async def _run():
        server = None
        host, port = args.host, args.port
        if host is None:
            server = HttpServer(SessionManager(serve_config))
            await server.start(host="127.0.0.1", port=0)
            host, port = server.host, server.port
        try:
            storm = Storm(config, ServeClient(host, port))
            report = await storm.run()
            mismatches = []
            if args.identity_check:
                mismatches = await _storm_identity_check(
                    config, ServeClient(host, port)
                )
            return report, mismatches
        finally:
            if server is not None:
                await server.stop(drain=True)

    report, mismatches = asyncio.run(_run())
    if not args.quiet:
        print(report.format())
    try:
        report.check()
    except ServeError as exc:
        print(f"ACCOUNTING BROKEN: {exc}", file=sys.stderr)
        return 1
    print(
        f"accounting: {report.submitted} submitted = {report.accepted} "
        f"accepted + {report.rejected} rejected + {report.errors} errors"
    )
    if args.identity_check:
        for problem in mismatches:
            print(f"IDENTITY MISMATCH: {problem}", file=sys.stderr)
        if not mismatches:
            print(
                f"identity check: {len(config.spec_pool())} spec(s) served "
                f"byte-identical to direct execution"
            )
    if args.out:
        write_json_atomic(args.out, report.to_json())
        print(f"storm report written to {args.out}")
    return 1 if mismatches else 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, check=declared_problems)
    factors = spec.factors
    try:
        schedule = build_schedule(args.period, factors)
    except ScaleFactorError as exc:
        raise _UsageError(str(exc)) from None
    print(
        f"period k={args.period}, d={spec.datasize}, t={spec.time} "
        f"(deadlines in engine units; 1 tu = 1/t units)"
    )
    for pid in ("P01", "P02", "P04", "P08", "P10"):
        series = [factors.tu_to_engine(x) for x in schedule.series(pid)]
        preview = ", ".join(f"{x:.1f}" for x in series[:5])
        if len(series) > 5:
            preview += f", ... {series[-1]:.1f}"
        print(f"  {pid}: n={len(series):>4}  [{preview}]")
    print("  P03/P05-P07/P09/P11-P15: resolved from completions (T1 terms)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    try:
        spec = FaultSpec.load(args.spec)
    except FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scenario = build_scenario()
    problems = spec.validate(
        hosts=scenario.network.hosts,
        services=scenario.registry.service_names,
        processes=set(build_processes()),
    )
    print(spec.describe())
    if problems:
        print()
        print(f"INVALID: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print()
    print("spec is valid for the benchmark scenario")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    """Generate, describe or run one synthesized integration workload."""
    from repro.synth import (
        SynthSpec,
        SynthSpecError,
        build_manifest,
        manifest_digest,
        manifest_to_json,
        run_differential,
        synthesize,
    )
    from repro.synth.families import label_process

    try:
        spec = SynthSpec.parse(args.knobs).resolve(args.seed)
    except SynthSpecError as exc:
        print(
            f"invalid --knobs: {len(exc.problems)} problem(s)",
            file=sys.stderr,
        )
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    if args.action == "run" and args.conformance:
        report = run_differential(
            spec, f=args.distribution, periods=args.periods, time=args.time
        )
        print(report.summary())
        for outcome in report.outcomes:
            status = "ok" if outcome.verification_ok else "FAILED"
            print(
                f"  {outcome.engine:<14} digest={outcome.digest[:12]} "
                f"verification={status}"
            )
        if args.out:
            write_json_atomic(
                args.out,
                {
                    "spec": spec.canonical(),
                    "spec_digest": spec.digest(),
                    "distribution": args.distribution,
                    "ok": report.ok,
                    "problems": report.problems,
                    "engines": {
                        o.engine: {
                            "digest": o.digest,
                            "verification_ok": o.verification_ok,
                        }
                        for o in report.outcomes
                    },
                },
            )
            print(f"conformance report written to {args.out}")
        return 0 if report.ok else 1

    workload = synthesize(spec, f=args.distribution)
    manifest = build_manifest(workload, periods=args.periods)
    digest_of_manifest = manifest_digest(manifest)

    if args.action == "generate":
        if args.out:
            write_text_atomic(args.out, manifest_to_json(manifest) + "\n")
            print(f"spec: {spec.to_string() or '<defaults>'}")
            print(f"manifest digest: {digest_of_manifest}")
            print(f"manifest written to {args.out}")
        else:
            # Bare generate keeps stdout pipe-clean JSON; the digest
            # goes to stderr so `repro synth generate > m.json` works.
            print(manifest_to_json(manifest))
            print(f"manifest digest: {digest_of_manifest}", file=sys.stderr)
        return 0

    if args.action == "describe":
        print(f"spec:       {spec.to_string() or '<defaults>'}")
        print(f"canonical:  {json.dumps(spec.canonical(), sort_keys=True)}")
        print(f"spec digest:     {spec.digest()}")
        print(f"manifest digest: {digest_of_manifest}")
        print(f"distribution f={args.distribution}  seed={spec.seed}")
        print(f"families: {', '.join(spec.families)}")
        print(f"source groups: {workload.groups}")
        print("databases:")
        for name, doc in sorted(manifest["databases"].items()):
            tables = ", ".join(sorted(doc["tables"]))
            print(f"  {name:<16} {tables}")
        print("processes:")
        for pid, doc in sorted(manifest["processes"].items()):
            ops = len(doc["operators"])
            print(
                f"  {label_process(pid):<14} {doc['event_type']:<4} "
                f"{ops:>2} operators"
            )
        print("plans:")
        for period, doc in sorted(manifest["plans"].items()):
            truth = doc["ground_truth"]
            print(
                f"  period {period}: {doc['messages']} messages, "
                f"{truth['duplicate_pairs']} duplicate pairs, "
                f"{truth['corrupted_rows']} corrupted rows"
            )
        return 0

    # action == "run"
    client = client_from_spec(
        _spec_from_args(args), workload=workload
    )
    result = client.run()
    digest = landscape_digest(workload.scenario.all_databases.values())
    print(
        f"engine={result.engine_name} spec={spec.to_string() or '<defaults>'} "
        f"f={args.distribution} periods={result.periods}"
    )
    print(
        f"instances={result.total_instances} "
        f"errors={result.error_instances} landscape={digest[:12]}"
    )
    if not args.quiet:
        print()
        print(client.monitor.family_table())
        print()
    print(result.verification.summary())
    if args.out:
        write_json_atomic(
            args.out,
            {
                "spec": spec.canonical(),
                "spec_digest": spec.digest(),
                "manifest_digest": digest_of_manifest,
                "engine": result.engine_name,
                "distribution": args.distribution,
                "periods": result.periods,
                "instances": result.total_instances,
                "errors": result.error_instances,
                "landscape_digest": digest,
                "verification_ok": result.verification.ok,
                "failures": list(result.verification.failures),
            },
        )
        print(f"run report written to {args.out}")
    return 0 if result.verification.ok else 1


def _cmd_processes(_args: argparse.Namespace) -> int:
    processes = build_processes()
    print(f"{'Group':<7}{'ID':<8}{'Event':<7}{'Ops':>5}  Name")
    for group, pid, name in PROCESS_TABLE:
        process = processes[pid]
        print(
            f"{group:<7}{pid:<8}{process.event_type.value:<7}"
            f"{process.operator_count():>5}  {name}"
        )
    subs = sorted(p for p in processes if processes[p].subprocess_only)
    print(f"subprocesses: {', '.join(subs)}")
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    processes = build_processes()
    known = set(processes)
    failures = 0
    for pid in sorted(processes):
        errors = validate_definition(processes[pid], known_processes=known)
        status = "ok" if not errors else "INVALID"
        print(f"{pid:<8}{status}")
        for error in errors:
            print(f"    {error}")
            failures += 1
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "recover": _cmd_recover,
        "cluster": _cmd_cluster,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "storm": _cmd_storm,
        "schedule": _cmd_schedule,
        "faults": _cmd_faults,
        "synth": _cmd_synth,
        "processes": _cmd_processes,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
