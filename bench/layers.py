"""Outside-in layer attribution: wrapper spans around each layer's calls.

The traced run replaces the public entry points of every layer (class
attributes and module functions of ``repro.*``) with timing wrappers,
installed from here only — nothing under ``src/`` knows about them —
and restored by :meth:`Tracer.uninstall`.

Accounting is the classic exclusive-time stack: every wrapper pushes a
frame, and on exit adds its elapsed time to its parent's *child* total,
so a layer's **self time** is its span minus the spans it caused.  Self
times of all layers plus the unit's own self time (``unattributed``)
therefore sum to the unit's wall time exactly.

Two kinds of wrapper keep the cost of tracing bounded:

* *fine* — call-heavy entry points (``Table.insert`` alone is ~60k
  calls per classic period) only accumulate ``self_ns``/``calls`` per
  layer per unit; a call nested directly inside a frame of its own
  layer opens no frame at all (it cannot change the attribution);
* *coarse* — unit, initializer, instance, checkpoint, recovery,
  session and the set-up steps additionally record a full span
  ``(id, name, start_ns, end_ns, parent id, unit)``, kept in memory.

Read a call-heavy layer's self time together with its ``calls`` and the
calibrated ``trace.ns_per_call``: the wrapper's own cost lands in the
*caller's* self time and inflates the parents of hot layers.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

_clock = time.perf_counter_ns

#: Layer of each MTM operator class; everything else is control flow.
_OPERATOR_KIND = {
    "Invoke": "mtm.invoke",
    "Translation": "mtm.translation",
    "Convert": "mtm.convert",
    "Validate": "mtm.validate",
    "ValidateRows": "mtm.validate",
    "Selection": "mtm.relational",
    "Projection": "mtm.relational",
    "Join": "mtm.relational",
    "Union": "mtm.relational",
}

#: Set-up steps, wrapped from child start in a traced run (a handful of
#: calls, so they cost nothing during the untraced reference units).
SETUP_TARGETS: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("scenario.build", "repro.scenario.topology", "", ("build_scenario",)),
    ("synth.generate", "repro.synth.generator", "", ("synthesize",)),
    ("engine.deploy", "repro.engine.base", "IntegrationEngine", ("deploy_all",)),
    ("parallel.pool_start", "repro.parallel.pool", "WorkerPool", ("__init__",)),
]

#: (layer, module, class or "" for module functions, names, coarse span
#: name or "").  Private names appear only where a layer has no public
#: call that isolates the work (partition reload / segment write).
LAYER_TARGETS: list[tuple[str, str, str, tuple[str, ...], str]] = [
    ("toolsuite.initializer", "repro.toolsuite.initializer", "Initializer",
     ("uninitialize_all", "initialize_sources"), "initializer"),
    ("datagen", "repro.datagen.generators", "DataGenerator",
     ("geography_rows", "customers", "product_dimension", "orders",
      "with_duplicates", "with_movement_errors", "with_corruption"), ""),
    ("db.write", "repro.db.table", "Table",
     ("insert", "insert_many", "upsert", "update", "delete", "truncate",
      "restore_rows", "redo"), ""),
    ("db.write", "repro.db.database", "Database",
     ("insert", "insert_many", "truncate_all", "redo"), ""),
    ("db.read", "repro.db.database", "Database", ("query",), ""),
    ("db.read", "repro.db.table", "Table",
     ("scan", "lookup", "get", "to_relation", "probe_candidates"), ""),
    ("db.read", "repro.db.relation", "Relation",
     ("select", "project", "join", "group_by", "order_by", "distinct",
      "extend", "keep", "union_all", "union_distinct", "limit",
      "to_dicts", "column_values"), ""),
    ("db.active.trigger", "repro.db.active", "Trigger", ("fire",), ""),
    ("db.active.procedure", "repro.db.active", "StoredProcedure", ("call",), ""),
    ("db.active.mv", "repro.db.active", "MaterializedView",
     ("refresh", "on_insert", "on_mutation"), ""),
    ("db.partition", "repro.db.partition", "MemoryBudget", ("rebalance",), ""),
    ("db.partition", "repro.db.partition", "PartitionStore",
     ("append", "__setitem__", "clear", "replace_all", "spill_partition",
      "_reload", "_write_segment", "detach"), ""),
    ("db.partition", "repro.db.partition", "PartitionView", ("_materialize",), ""),
    ("db.partition", "repro.db.partition", "_BucketSpool",
     ("add", "read", "close"), ""),
    ("db.partition", "repro.db.partition", "",
     ("partitioned_filter", "partitioned_group"), ""),
    ("xmlkit.stx", "repro.xmlkit.stx", "Stylesheet", ("transform",), ""),
    ("xmlkit.xsd", "repro.xmlkit.xsd", "XsdSchema", ("validate",), ""),
    ("xmlkit.doc", "repro.xmlkit.doc", "", ("parse_xml", "serialize_xml"), ""),
    ("xmlkit.doc", "repro.xmlkit.convert", "",
     ("rows_to_resultset", "relation_to_resultset", "resultset_to_rows"), ""),
    ("xmlkit.doc", "repro.xmlkit.xpath", "",
     ("xpath_all", "xpath_first", "xpath_text"), ""),
    ("engine.instance", "repro.engine.base", "IntegrationEngine",
     ("handle_event",), "instance"),
    ("engine.instance", "repro.engine.base", "IntegrationEngine",
     ("record_failure", "reset_workers", "crash", "runtime_state",
      "restore_runtime_state"), ""),
    ("services.registry", "repro.services.registry", "ServiceRegistry",
     ("call",), ""),
    ("services.network", "repro.services.network", "Network",
     ("transfer_cost",), ""),
    ("storage.manager", "repro.storage.manager", "StorageManager",
     ("begin_period", "commit_instance", "on_crash", "reattach_engine"), ""),
    ("storage.checkpoint", "repro.storage.manager", "StorageManager",
     ("take_checkpoint",), "checkpoint"),
    ("storage.recovery", "repro.storage.recovery", "RecoveryManager",
     ("recover",), "recovery"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog",
     ("append", "commit", "truncate", "discard_open"), ""),
    ("resilience", "repro.resilience.policy", "ResilienceContext",
     ("begin_period", "end_period", "at", "account"), ""),
    ("scenario.messages", "repro.scenario.messages", "MessageFactory",
     ("__init__", "vienna_order", "mdm_customer_update",
      "beijing_master_data", "hongkong_order", "sandiego_order"), ""),
    ("synth.workload", "repro.synth.generator", "SynthWorkload",
     ("plan", "populate", "order_message", "txn_message",
      "customer_message"), ""),
    ("toolsuite.monitor", "repro.toolsuite.monitor", "Monitor",
     ("absorb", "absorb_recovery"), ""),
    ("simtime", "repro.simtime.scheduler", "EventScheduler", ("push", "pop"), ""),
    ("scenario.reset", "repro.scenario.topology", "Scenario", ("uninitialize",), ""),
    # Inside a served session (run_spec) only; the period workloads time
    # these three from the harness, outside the units.
    ("toolsuite.verification", "repro.toolsuite.verification", "",
     ("verify_period",), ""),
    ("synth.verify", "repro.synth.verify", "", ("verify_workload",), ""),
    ("metrics.navg", "repro.metrics.navg", "", ("compute_metrics",), ""),
    ("landscape.digest", "repro.storage.digest", "", ("landscape_digest",), ""),
]


def _datagen_rows(args: tuple, kwargs: dict, result: Any) -> int:
    """Rows one DataGenerator call produced (a list, or a tuple of lists)."""
    if isinstance(result, list):
        return len(result)
    if isinstance(result, tuple):
        return sum(len(part) for part in result if isinstance(part, list))
    return 0


def _payload_units(args: tuple, kwargs: dict, result: Any) -> float:
    """``Network.transfer_cost(self, src, dst, payload_units)``."""
    return kwargs["payload_units"] if "payload_units" in kwargs else args[3]


#: Counts a wrapper derives from a call's arguments or result.
_MEASURES: dict[str, tuple[str, Callable[[tuple, dict, Any], float]]] = {
    "datagen": ("datagen.rows", _datagen_rows),
    "services.network": ("services.network.payload_units", _payload_units),
}


def all_layers() -> list[str]:
    """Every leaf layer a wrapper can charge, in table order."""
    seen = dict.fromkeys(t[0] for t in SETUP_TARGETS)
    seen.update(dict.fromkeys(t[0] for t in LAYER_TARGETS))
    seen.update(dict.fromkeys(_OPERATOR_KIND.values()))
    seen["mtm.control"] = None
    return list(seen)


class Tracer:
    """Exclusive-time accounting for one process."""

    def __init__(self) -> None:
        #: Open frames, innermost last: ``[layer, child_ns]``.
        self.stack: list[list] = [["<root>", 0]]
        self.self_ns: dict[str, int] = dict.fromkeys(all_layers(), 0)
        self.calls: dict[str, int] = dict.fromkeys(all_layers(), 0)
        #: Argument/result-derived counts (see :data:`_MEASURES`).
        self.measured: dict[str, float] = {
            key: 0 for key, _fn in _MEASURES.values()
        }
        #: Finished coarse spans: (id, name, start, end, parent id, unit).
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        #: Every live ``Database`` by name (latest object wins, so a
        #: crashed engine's rebuilt catalog replaces the dead one).
        self.databases: dict[str, Any] = {}
        self.unit = -1
        self._open_spans: list[int] = []
        self._next_span = 0
        self._unit_frame: list | None = None
        self._unit_name = ""
        self._unit_span = -1
        self._unit_start = 0
        self._counters_before: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------------

    def _fine(self, fn: Callable, layer: str) -> Callable:
        stack, self_ns, calls = self.stack, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            top = stack[-1]
            if top[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                top[1] += elapsed

        return wrapper

    def _coarse(self, fn: Callable, layer: str, span: str) -> Callable:
        """Fine accounting plus an optional full span and measured count."""
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        measured = self.measured
        measure_key, measure = _MEASURES.get(layer, ("", None))

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            top = stack[-1]
            frame = [layer, 0]
            stack.append(frame)
            span_id = self._open() if span else -1
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                elapsed = end - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                top[1] += elapsed
                if span:
                    self._close(span_id, span, start, end)
                if measure is not None:
                    measured[measure_key] += measure(args, kwargs, result)

        return wrapper

    def _open(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        self._open_spans.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: int, end: int) -> None:
        self._open_spans.pop()
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append((span_id, name, start, end, parent, self.unit))

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrapper(self, original: Callable, layer: str, span: str) -> Callable:
        if span or layer in _MEASURES:
            return self._coarse(original, layer, span)
        return self._fine(original, layer)

    def _wrap_method(self, cls: type, name: str, layer: str, span: str) -> None:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            raise LookupError(f"{cls.__qualname__}.{name} is not a plain method")
        self._patch(cls, name, self._wrapper(original, layer, span))

    def _wrap_function(self, module: Any, name: str, layer: str, span: str) -> None:
        """Wrap a module function wherever ``repro`` imported it by name."""
        original = vars(module)[name]
        wrapper = self._wrapper(original, layer, span)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _install(self, layer: str, module: str, cls: str, names, span: str) -> None:
        mod = importlib.import_module(module)
        for name in names:
            if cls:
                self._wrap_method(getattr(mod, cls), name, layer, span)
            else:
                self._wrap_function(mod, name, layer, span)

    def install_setup(self) -> None:
        """Stage 1: set-up spans and the database registry."""
        for layer, module, cls, names in SETUP_TARGETS:
            self._install(layer, module, cls, names, span=layer)
        from repro.db.database import Database

        init = Database.__dict__["__init__"]
        registry = self.databases

        def registering_init(db, name, *args, **kwargs):
            init(db, name, *args, **kwargs)
            registry[name] = db

        self._patch(Database, "__init__", registering_init)

    def install_layers(self) -> None:
        """Stage 2: the per-layer wrappers of the traced units."""
        for layer, module, cls, names, span in LAYER_TARGETS:
            self._install(layer, module, cls, names, span)
        from repro.mtm.operators import Operator

        pending = [Operator]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is not Operator and "execute" in cls.__dict__:
                layer = _OPERATOR_KIND.get(cls.__name__, "mtm.control")
                self._wrap_method(cls, "execute", layer, "")

    def uninstall(self) -> None:
        """Put every replaced attribute back (latest patch first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- units ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Deterministic operation counts as of now (process-global
        ``STATS`` blocks plus every registered database's counters)."""
        from repro.db import fastpath, partition

        out: dict[str, float] = {}
        for key, value in fastpath.STATS.snapshot().items():
            out[f"fastpath.{key}"] = value
        for key, value in partition.STATS.snapshot().items():
            out[f"partition.{key}"] = value
        for db in self.databases.values():
            stats = db.statistics()
            out[f"db.{db.name}.rows_read"] = stats.rows_read
            out[f"db.{db.name}.rows_written"] = stats.rows_written
        out.update(self.measured)
        return out

    def _zero(self) -> None:
        for key in self.self_ns:
            self.self_ns[key] = 0
            self.calls[key] = 0

    def begin_unit(self, unit: int, name: str = "unit") -> None:
        self._zero()  # set-up work before the first unit is not the unit's
        self.unit = unit
        self._counters_before = self.counters()
        self._unit_frame = ["<unit>", 0]
        self.stack.append(self._unit_frame)
        self._unit_name = name
        self._unit_span = self._open()
        self._unit_start = _clock()

    def end_unit(self) -> dict:
        """Close the unit; returns its profile and zeroes the accumulators."""
        end = _clock()
        frame = self.stack.pop()
        if frame is not self._unit_frame:
            raise RuntimeError("unbalanced layer frames at the end of a unit")
        self._close(self._unit_span, self._unit_name, self._unit_start, end)
        wall = end - self._unit_start
        after = self.counters()
        before = self._counters_before
        profile = {
            "unit": self.unit,
            "wall_ns": wall,
            "unattributed_ns": wall - frame[1],
            "self_ns": {k: v for k, v in self.self_ns.items() if v},
            "calls": {k: v for k, v in self.calls.items() if v},
            "counts": {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value - before.get(key, 0)
            },
        }
        self._zero()
        self.unit = -1
        return profile


def calibrate_ns_per_call(calls: int = 200_000) -> float:
    """Cost one fine wrapper adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._fine(noop, "engine.instance")
    tracer.stack.append(["<unit>", 0])
    start = _clock()
    for _ in range(calls):
        noop()
    bare = _clock() - start
    start = _clock()
    for _ in range(calls):
        wrapped()
    traced = _clock() - start
    return max(traced - bare, 0) / calls
