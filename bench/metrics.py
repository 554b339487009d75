"""Metric definitions and their computation from a child's result.

``BENCHMARK.json`` lists the same names (``bench/tests`` keeps the two
in step).  Every per-layer metric carries the interaction prediction the
choosing-metrics guide asks for: which end-to-end metric it should move
(``moves``) and on which workloads (``on``).

Conventions for a traced run of N units:

* ``*.self_ms`` / ``mtm.*_ms`` — the layer's exclusive time per unit
  (total self time / N), so runs of different length compare;
* counts (``unit == "count"``) — totals over the first
  ``count_units`` traced units only, so they repeat exactly for a seed
  however many units the time box allowed;
* ``*_p50`` — median over the spans or samples named.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench.calibrate import slowdown
from bench.stats import median, percentile

#: The tail percentile a 20 s run supports with >= 10 samples beyond it
#: on every workload (>= 50 units); p90 would need >= 100 units.
TAIL = 80


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move ...
    moves: str
    #: ... and the workloads on which it should (others: no change).
    on: str


END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.20,
             "child start to first unit: imports, landscape, engine, deploy "
             "(served: plus server and worker pool until /healthz is ok); "
             "median of 4 fresh processes"),
    EndToEnd("unit_ms_p50", "ms", "lower", 0.10,
             "median wall time of one unit (period / cold session)"),
    EndToEnd(f"unit_ms_p{TAIL}", "ms", "lower", 0.20,
             f"p{TAIL} of the same samples (>= 10 samples beyond it)"),
    EndToEnd("instances_per_s", "1/s", "higher", 0.10,
             "process instances completed per second of units + "
             "verification + NAVG+ (served: of the cold phase)"),
    EndToEnd("cpu_s", "s", "lower", 0.10,
             "user+sys CPU seconds of the child and its children per unit "
             "(a time-boxed run has no fixed total)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the child (served: server + largest worker)"),
]

_P = PerLayer
_CLASSIC3 = "classic,budget,durable"
_ALL = "classic,synth,budget,durable,served"
PER_LAYER = [
    _P("scenario.build_ms", "ms", "lower", "setup_s", _CLASSIC3),
    _P("engine.deploy_ms", "ms", "lower", "setup_s", _ALL),
    _P("synth.generate_ms", "ms", "lower", "setup_s", "synth"),
    _P("parallel.pool_start_ms", "ms", "lower", "setup_s", "served"),
    _P("toolsuite.initializer.total_ms_p50", "ms", "lower", "unit_ms_p50", _CLASSIC3),
    _P("toolsuite.initializer.self_ms", "ms", "lower", "unit_ms_p50", _CLASSIC3),
    _P("datagen.self_ms", "ms", "lower", "unit_ms_p50", _CLASSIC3),
    _P("datagen.rows", "count", "lower", "unit_ms_p50", _CLASSIC3),
    _P("db.write.self_ms", "ms", "lower", "unit_ms_p50", _ALL),
    _P("db.write.calls", "count", "lower", "unit_ms_p50", _ALL),
    _P("db.write.rows", "count", "lower", "unit_ms_p50", _ALL),
    _P("db.write.ns_per_row", "ns", "lower", "unit_ms_p50", "classic"),
    _P("db.read.self_ms", "ms", "lower", "unit_ms_p50", "budget"),
    _P("db.read.calls", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.read.rows_read", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.read.rows_copied", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.read.rows_shared", "count", "higher", "unit_ms_p50", "budget"),
    _P("db.read.index_joins", "count", "higher", "unit_ms_p50", "budget"),
    _P("db.read.hash_joins", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.read.pushdowns", "count", "higher", "unit_ms_p50", "budget"),
    _P("db.vector.batches", "count", "higher", "unit_ms_p50", "none"),
    _P("db.vector.fallbacks", "count", "lower", "unit_ms_p50", "none"),
    _P("db.vector.fallback_ratio", "ratio", "lower", "unit_ms_p50", "none"),
    _P("db.vector.column_builds", "count", "lower", "unit_ms_p50", "none"),
    _P("db.active.self_ms", "ms", "lower", "unit_ms_p50", "served,synth"),
    _P("db.active.trigger_fires", "count", "lower", "unit_ms_p50", "served"),
    _P("db.active.procedure_calls", "count", "lower", "unit_ms_p50", "served,synth"),
    _P("db.active.mv_incremental", "count", "higher", "unit_ms_p50", "served"),
    _P("db.active.mv_full_recompute", "count", "lower", "unit_ms_p50", "served"),
    _P("db.partition.self_ms", "ms", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.spills", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.reloads", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.evictions", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.segment_reuses", "count", "higher", "unit_ms_p50", "budget"),
    _P("db.partition.segment_reuse_ratio", "ratio", "higher", "unit_ms_p50", "budget"),
    _P("db.partition.rows_spilled", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.rows_reloaded", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.grace_joins", "count", "lower", "unit_ms_p50", "budget"),
    _P("db.partition.peak_resident_rows", "count", "lower", "peak_rss_mb", "budget"),
    _P("xmlkit.stx.self_ms", "ms", "lower", "unit_ms_p50", "classic,budget,durable,served"),
    _P("xmlkit.stx.transforms", "count", "lower", "unit_ms_p50", "classic,budget,durable,served"),
    _P("xmlkit.stx.us_per_transform", "us", "lower", "unit_ms_p50", "classic"),
    _P("xmlkit.xsd.self_ms", "ms", "lower", "unit_ms_p50", "classic"),
    _P("xmlkit.xsd.validations", "count", "lower", "unit_ms_p50", "classic"),
    _P("xmlkit.doc.self_ms", "ms", "lower", "unit_ms_p50", "classic,served"),
    _P("engine.self_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("engine.instances", "count", "higher", "instances_per_s", _ALL),
    _P("engine.retries", "count", "lower", "instances_per_s", "none"),
    _P("mtm.self_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("mtm.op_calls", "count", "lower", "instances_per_s", "synth"),
    _P("mtm.invoke_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("mtm.translation_ms", "ms", "lower", "instances_per_s", "classic"),
    _P("mtm.convert_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("mtm.validate_ms", "ms", "lower", "instances_per_s", "classic"),
    _P("mtm.relational_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("services.self_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("services.calls", "count", "lower", "instances_per_s", "synth"),
    _P("services.network.self_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("services.network.transfers", "count", "lower", "instances_per_s", "synth"),
    _P("services.network.payload_units", "count", "lower", "instances_per_s", "synth"),
    _P("storage.self_ms", "ms", "lower", "unit_ms_p50", "durable"),
    _P("storage.checkpoint_ms_p50", "ms", "lower", "unit_ms_p50", "durable"),
    _P("storage.recovery_ms_p50", "ms", "lower", "unit_ms_p50", "durable"),
    _P("storage.wal_records", "count", "lower", "unit_ms_p50", "durable"),
    _P("storage.flushes", "count", "lower", "unit_ms_p50", "durable"),
    _P("storage.checkpoints", "count", "lower", "unit_ms_p50", "durable"),
    _P("storage.recoveries", "count", "lower", "unit_ms_p50", "durable"),
    _P("storage.redo_records", "count", "lower", "unit_ms_p50", "durable"),
    _P("resilience.self_ms", "ms", "lower", "unit_ms_p50", "durable"),
    _P("scenario.messages.self_ms", "ms", "lower", "unit_ms_p50", _CLASSIC3),
    _P("synth.workload.self_ms", "ms", "lower", "unit_ms_p50", "synth"),
    _P("toolsuite.monitor.self_ms", "ms", "lower", "instances_per_s", "none"),
    _P("simtime.self_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("landscape.digest.self_ms", "ms", "lower", "unit_ms_p50", "served"),
    _P("toolsuite.verification.ms", "ms", "lower", "instances_per_s", _CLASSIC3),
    _P("synth.verify_ms", "ms", "lower", "instances_per_s", "synth"),
    _P("metrics.navg_ms", "ms", "lower", "instances_per_s", "classic,synth,budget,durable"),
    _P("serve.overhead_ms_p50", "ms", "lower", "unit_ms_p50", "served"),
    _P("serve.translate_us_p50", "us", "lower", "unit_ms_p50", "served"),
    _P("serve.queue_wait_ms_p50", "ms", "lower", "unit_ms_p50", "served"),
    _P("serve.cached_ms_p50", "ms", "lower", "unit_ms_p50", "served"),
    _P("serve.cache_hit_ratio", "ratio", "higher", "unit_ms_p50", "served"),
    _P("serve.rejected", "count", "lower", "unit_ms_p50", "served"),
    _P("host.kernel_ms_p50", "ms", "lower", "unit_ms_p50", "none"),
    _P("host.unit_ms_p50_raw", "ms", "lower", "unit_ms_p50", "none"),
    _P("trace.overhead_ratio", "ratio", "lower", "unit_ms_p50", "none"),
    _P("trace.ns_per_call", "ns", "lower", "unit_ms_p50", "none"),
    _P("trace.unattributed_share", "ratio", "lower", "unit_ms_p50", "none"),
]

Metrics = dict[str, tuple[float, str]]

#: Timed per-layer metrics reported as the clock read them.
_UNSCALED = {
    "host.kernel_ms_p50", "host.unit_ms_p50_raw",
    "serve.overhead_ms_p50", "serve.queue_wait_ms_p50",
}


def accounting(result: dict) -> tuple[int, int]:
    """(attempted, failed): instances plus sessions, and everything
    that went wrong — bad instances, bad sessions, failed gates."""
    attempted = result["instances"] + result["sessions"]
    failed = (
        result["failed_instances"]
        + result["failed_sessions"]
        + sum(1 for ok in result["gates"].values() if not ok)
    )
    return max(attempted, 1), failed


def _reference_setup_s(setups: list[dict]) -> list[float]:
    return [s["setup_s"] / slowdown(s["setup_kernel_ns"]) for s in setups]


def end_to_end(result: dict, setups: list[dict], strict: bool = True) -> Metrics:
    """All times in reference units (see :mod:`bench.calibrate`);
    ``setups`` are the set-up results of every child of the run."""
    units = result["unit_ref_ms"]
    values = {
        "setup_s": median(_reference_setup_s(setups)),
        "unit_ms_p50": percentile(units, 50, strict),
        f"unit_ms_p{TAIL}": percentile(units, TAIL, strict),
        "instances_per_s": result["instances"] / result["work_ref_s"],
        "cpu_s": result["cpu_ref_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {m.name: (values[m.name], m.unit) for m in END_TO_END}


def raw_summary(result: dict, setups: list[dict]) -> dict[str, float]:
    """What the clocks said before normalisation, and the kernel's own
    time during the run (human tables and ``--out`` files, beside the
    metrics)."""
    return {
        "setup_s_raw": median([s["setup_s"] for s in setups]),
        "unit_ms_p50_raw": median(result["unit_ms"]),
        "instances_per_s_raw": result["instances"] / result["work_wall_s"],
        "cpu_s_raw": result["cpu_s"],
        "host_kernel_ms_p50": median(result["kernel_ms"]),
    }


def _span_ms(spans: list, name: str) -> list[float]:
    return [(end - start) / 1e6 for _id, n, start, end, _p, _u in spans if n == name]


def per_layer(result: dict) -> Metrics:
    trace = result["trace"]
    profiles = trace["profiles"]
    units = len(profiles)
    head = profiles[: trace["count_units"]]
    spans = trace["spans"]
    serve = result["serve"]

    def self_ms(prefix: str) -> float:
        """Exclusive ms per unit of the layer ``prefix`` and its sub-layers."""
        total = sum(
            ns for p in profiles for layer, ns in p["self_ns"].items()
            if layer == prefix or layer.startswith(prefix + ".")
        )
        return total / units / 1e6

    def calls(prefix: str, window=head) -> int:
        return sum(
            n for p in window for layer, n in p["calls"].items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    def count(key: str, window=head) -> float:
        """Σ of the counter ``key`` (or of every ``db.<name>.<key>``)."""
        return sum(
            v for p in window for k, v in p["counts"].items()
            if k == key or (k.startswith("db.") and k.endswith("." + key))
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    initializer_per_unit: dict[int, float] = {}
    for _id, name, start, end, _parent, unit in spans:
        if name == "initializer":
            initializer_per_unit[unit] = (
                initializer_per_unit.get(unit, 0.0) + (end - start) / 1e6
            )
    batches = sum(
        count(f"fastpath.vector_{kind}") for kind in ("filters", "joins", "group_bys")
    )
    fallbacks = count("fastpath.vector_fallbacks")
    evictions = count("partition.evictions")
    wall_ns = sum(p["wall_ns"] for p in profiles)
    host = result["run_slowdown"]
    synth = result["synth"]

    values = {
        "scenario.build_ms": median(_span_ms(spans, "scenario.build")),
        "engine.deploy_ms": median(_span_ms(spans, "engine.deploy")),
        "synth.generate_ms": median(_span_ms(spans, "synth.generate")),
        "parallel.pool_start_ms": median(_span_ms(spans, "parallel.pool_start")),
        "toolsuite.initializer.total_ms_p50": median(list(initializer_per_unit.values())),
        "toolsuite.initializer.self_ms": self_ms("toolsuite.initializer"),
        "datagen.self_ms": self_ms("datagen"),
        "datagen.rows": count("datagen.rows"),
        "db.write.self_ms": self_ms("db.write"),
        "db.write.calls": calls("db.write"),
        "db.write.rows": count("rows_written"),
        "db.write.ns_per_row": ratio(
            self_ms("db.write") * units * 1e6, count("rows_written", profiles)
        ),
        "db.read.self_ms": self_ms("db.read"),
        "db.read.calls": calls("db.read"),
        "db.read.rows_read": count("rows_read"),
        "db.read.rows_copied": count("fastpath.rows_copied"),
        "db.read.rows_shared": count("fastpath.rows_shared"),
        "db.read.index_joins": count("fastpath.index_joins"),
        "db.read.hash_joins": count("fastpath.hash_joins"),
        "db.read.pushdowns": count("fastpath.pushdowns"),
        "db.vector.batches": batches,
        "db.vector.fallbacks": fallbacks,
        "db.vector.fallback_ratio": ratio(fallbacks, batches + fallbacks),
        "db.vector.column_builds": count("fastpath.column_builds"),
        "db.active.self_ms": self_ms("db.active"),
        "db.active.trigger_fires": calls("db.active.trigger"),
        "db.active.procedure_calls": calls("db.active.procedure"),
        "db.active.mv_incremental": count("fastpath.mv_incremental"),
        "db.active.mv_full_recompute": count("fastpath.mv_full_recompute"),
        "db.partition.self_ms": self_ms("db.partition"),
        "db.partition.spills": count("partition.spills"),
        "db.partition.reloads": count("partition.reloads"),
        "db.partition.evictions": evictions,
        "db.partition.segment_reuses": count("partition.segment_reuses"),
        "db.partition.segment_reuse_ratio": ratio(
            count("partition.segment_reuses"), evictions
        ),
        "db.partition.rows_spilled": count("partition.rows_spilled"),
        "db.partition.rows_reloaded": count("partition.rows_reloaded"),
        "db.partition.grace_joins": count("partition.grace_joins"),
        "db.partition.peak_resident_rows": trace["peak_resident_rows"],
        "xmlkit.stx.self_ms": self_ms("xmlkit.stx"),
        "xmlkit.stx.transforms": calls("xmlkit.stx"),
        "xmlkit.stx.us_per_transform": ratio(
            self_ms("xmlkit.stx") * units * 1e3, calls("xmlkit.stx", profiles)
        ),
        "xmlkit.xsd.self_ms": self_ms("xmlkit.xsd"),
        "xmlkit.xsd.validations": calls("xmlkit.xsd"),
        "xmlkit.doc.self_ms": self_ms("xmlkit.doc"),
        "engine.self_ms": self_ms("engine.instance"),
        "engine.instances": count("engine.instances"),
        "engine.retries": count("engine.retries"),
        "mtm.self_ms": self_ms("mtm"),
        "mtm.op_calls": calls("mtm"),
        "mtm.invoke_ms": self_ms("mtm.invoke"),
        "mtm.translation_ms": self_ms("mtm.translation"),
        "mtm.convert_ms": self_ms("mtm.convert"),
        "mtm.validate_ms": self_ms("mtm.validate"),
        "mtm.relational_ms": self_ms("mtm.relational"),
        "services.self_ms": self_ms("services.registry"),
        "services.calls": calls("services.registry"),
        "services.network.self_ms": self_ms("services.network"),
        "services.network.transfers": calls("services.network"),
        "services.network.payload_units": count("services.network.payload_units"),
        "storage.self_ms": self_ms("storage"),
        "storage.checkpoint_ms_p50": median(_span_ms(spans, "checkpoint")),
        "storage.recovery_ms_p50": median(trace["recovery_ms"]),
        "storage.wal_records": count("storage.wal_records"),
        "storage.flushes": count("storage.flushes"),
        "storage.checkpoints": count("storage.checkpoints"),
        "storage.recoveries": count("storage.recoveries"),
        "storage.redo_records": count("storage.redo_records"),
        "resilience.self_ms": self_ms("resilience"),
        "scenario.messages.self_ms": self_ms("scenario.messages"),
        "synth.workload.self_ms": self_ms("synth.workload"),
        "toolsuite.monitor.self_ms": self_ms("toolsuite.monitor"),
        "simtime.self_ms": self_ms("simtime"),
        "landscape.digest.self_ms": self_ms("landscape.digest"),
        # Period workloads time these three from the harness, after the
        # units; a served session runs them inside run_spec (self time).
        "toolsuite.verification.ms": (
            (0.0 if synth else result["verify_ms"])
            + self_ms("toolsuite.verification")
        ),
        "synth.verify_ms": (
            (result["verify_ms"] if synth else 0.0) + self_ms("synth.verify")
        ),
        "metrics.navg_ms": result["navg_ms"] + self_ms("metrics.navg"),
        "serve.overhead_ms_p50": median(serve.get("overhead_ms", [])),
        "serve.translate_us_p50": median(serve.get("translate_us", [])),
        "serve.queue_wait_ms_p50": median(serve.get("queue_wait_ms", [])),
        "serve.cached_ms_p50": median(serve.get("cached_ms", [])),
        "serve.cache_hit_ratio": serve.get("cache_hit_ratio", 0.0),
        "serve.rejected": serve.get("rejected", 0),
        "trace.overhead_ratio": ratio(
            median(result["unit_ref_ms"]), median(trace["untraced_ref_ms"])
        ),
        "trace.ns_per_call": trace["ns_per_call"],
        "trace.unattributed_share": ratio(
            sum(p["unattributed_ns"] for p in profiles), wall_ns
        ),
    }
    values["host.kernel_ms_p50"] = median(result["kernel_ms"])
    values["host.unit_ms_p50_raw"] = median(result["unit_ms"])

    def reported(metric: PerLayer) -> float:
        """Times go out in reference units like the end-to-end ones (one
        slowdown for the whole run) — except the host's own readings and
        the served waits, which a slower host does not stretch."""
        value = float(values[metric.name])
        timed = metric.unit in ("ms", "us", "ns") and metric.name not in _UNSCALED
        return value / host if timed else value

    return {m.name: (reported(m), m.unit) for m in PER_LAYER}


def layer_table(result: dict) -> list[tuple[str, float, float, int]]:
    """(layer, self ms per unit, share of traced wall, calls per unit) for
    every leaf layer plus ``(unattributed)``; shares sum to 1."""
    profiles = result["trace"]["profiles"]
    units = len(profiles)
    wall_ns = sum(p["wall_ns"] for p in profiles)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for p in profiles:
        for layer, ns in p["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + ns
        for layer, n in p["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
    self_ns["(unattributed)"] = sum(p["unattributed_ns"] for p in profiles)
    rows = [
        (layer, ns / units / 1e6, ns / wall_ns, calls.get(layer, 0) // units)
        for layer, ns in self_ns.items()
    ]
    return sorted(rows, key=lambda row: -row[1])
