"""The instance path, counted: what a steady synth period no longer does.

``synth`` at the bench knobs (``bench/workloads.py::SYNTH_KNOBS``) runs
1 166 small instances a period; per-instance overhead is its cost.  This
file counts — no timer — what periods 2–3 of seed 5 on the interpreter
do *after* period 0–1 bound every plan:

* plans built: 0 ``ProjectionPlan`` / ``ColumnParsers`` constructions
  (the seed re-derived 2 380 mappings and 2 304 parser tables over the
  two periods);
* ``fastpath.expr_compiled``: the parent's own 578 cache misses (the
  request builders' fresh predicates), none beyond;
* Python-level heap comparisons: 0 ``ScheduledEvent.__lt__`` calls (the
  seed: 22 176) and no comparison of a payload on the tuple heap;
* message ids: one consecutive run of the process-global sequence, one
  id per ``Message`` constructed;
* Python-level calls per instance (``sys.setprofile`` ``call`` events,
  C calls not counted, this file's payload wrapper — one call per E1
  message — included), Python 3.11: **parent 195.0, change 165.4**.  The
  count repeats exactly per seed *and interpreter version* (3.12 inlines
  comprehensions and counts fewer), so the ceiling is kept per version,
  at the change's figure plus one call — the smallest part, the
  projection plan, is worth 1.1, ``Sequence``'s inline loop with the
  trace guard 9.7 — and gates only where a figure was recorded: CI runs
  this file on 3.11 for that reason.  The other four counts are asserted
  on every version.

A second gate runs 141 units and counts what the collector walks: after
``gc.collect()``, the tracked objects at period 40 exceed those at
period 5 by at most 2 000 (83 337 when each instance was kept as two
objects), the client's Monitor and engine hold one history of every
record, and no value stored in it is tracked.  Collections and
full-collection ms over the last 100 units go to the ledger beside the
parent's, as measurements, not gates.

A third gate counts bytes: with ``tracemalloc`` on from the start, what
a synth period retains from period 5 to 25 (after ``gc.collect()``)
stays at most 120 KB a period (725 KB when the engine and the Monitor
each kept a list of row tuples and every period's plan was memoized,
180 KB when the history kept a column per field).

The end-to-end claim belongs to ``python3 -m bench``
(docs/performance.md, "The instance path", "The instance history").
"""

import gc
import sys
import time
import tracemalloc

from benchmarks.conftest import ledger_append

from repro.db import fastpath
from repro.db.relation import ProjectionPlan
from repro.mtm import message as message_module
from repro.parallel.spec import RunSpec
from repro.simtime.scheduler import EventScheduler, ScheduledEvent
from repro.synth.runner import SynthClient
from repro.xmlkit.convert import ColumnParsers

SYNTH_KNOBS = (
    "sources=4,depth=6,fan_out=4,mix=relational,update=0.8,"
    "scale=3,rounds=2,msgs=16"
)
#: ``fastpath.expr_compiled`` over periods 2–3 at the parent commit.
PARENT_EXPR_COMPILED = 578
#: Python-level calls per instance, by interpreter version: see the
#: module docstring.  Record a version's figure before adding it here.
CALLS_PER_INSTANCE_CEILING = {(3, 11): 166.4}


class _Payload(tuple):
    """The runner's ``(process_id, kind, row)`` payload, un-orderable."""

    def __lt__(self, other):
        raise AssertionError("the event heap compared two payloads")

    __gt__ = __le__ = __ge__ = __lt__


def test_steady_synth_periods_rebind_nothing():
    client = SynthClient.from_spec(
        RunSpec(engine="interpreter", datasize=0.05, periods=4, seed=5,
                synth=SYNTH_KNOBS)
    )
    for period in (0, 1):
        client.run_period(period)

    built = {"ProjectionPlan": 0, "ColumnParsers": 0}
    counted = {
        ProjectionPlan.__init__.__code__: "ProjectionPlan",
        ColumnParsers.__init__.__code__: "ColumnParsers",
    }
    event_lt = ScheduledEvent.__lt__.__code__
    message_init = message_module.Message.__init__.__code__
    calls = heap_comparisons = messages = 0

    def profiler(frame, event, arg):
        nonlocal calls, heap_comparisons, messages
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        if code is event_lt:
            heap_comparisons += 1
        elif code is message_init:
            messages += 1
        elif code in counted:
            built[counted[code]] += 1

    push = EventScheduler.push
    EventScheduler.push = lambda self, deadline, payload: push(
        self, deadline, _Payload(payload)
    )
    compiled_before = fastpath.STATS.expr_compiled
    first_id = next(message_module._message_counter)
    sys.setprofile(profiler)
    try:
        records = client.run_period(2) + client.run_period(3)
    finally:
        sys.setprofile(None)
        EventScheduler.push = push
    last_id = next(message_module._message_counter)
    expr_compiled = fastpath.STATS.expr_compiled - compiled_before

    instances = len(records)
    assert instances == 2 * 1166
    assert all(r.status == "ok" for r in records)
    assert built == {"ProjectionPlan": 0, "ColumnParsers": 0}
    assert expr_compiled <= PARENT_EXPR_COMPILED
    assert heap_comparisons == 0
    # One id per message, nothing else drew from the sequence.
    assert last_id - first_id - 1 == messages > instances
    calls_per_instance = round(calls / instances, 1)
    ceiling = CALLS_PER_INSTANCE_CEILING.get(sys.version_info[:2])
    if ceiling is not None:
        assert calls_per_instance <= ceiling

    print(f"\npython calls/instance {calls_per_instance}, "
          f"expr_compiled {expr_compiled}, messages {messages}")
    ledger_append(
        "instance_path:synth_counts",
        {
            "config": "interpreter synth bench knobs seed 5, periods 2-3",
            "instances": instances,
            "plans_built": {"before": 2380 + 2304, "after": 0},
            "expr_compiled": {"before": PARENT_EXPR_COMPILED, "after": expr_compiled},
            "heap_comparisons": {"before": 22176, "after": heap_comparisons},
            "python_calls_per_instance": {
                "before": 195.0, "after": calls_per_instance,
                "python": ".".join(map(str, sys.version_info[:2])),
            },
        },
    )


# ------------------------------------ the history the collector skips

#: ``len(gc.get_objects())`` after ``gc.collect()``, period 40 minus
#: period 5, at the parent: an ``InstanceRecord`` and its
#: ``CostBreakdown`` held per instance, twice 1 166 a period.
PARENT_OBJECT_GROWTH = 83_337
#: What may still grow: allocator and cache noise (``SynthWorkload``
#: keeps the last period's plan only).
OBJECT_GROWTH_CEILING = 2_000
#: Units the collector is watched over, after period 40.
GC_UNITS = 100
#: The same units at the parent (CPython 3.11, 2-core container).
PARENT_COLLECTOR = {"collections_gen0_gen1_gen2": [759, 68, 6], "gen2_ms": 871.2}


def collector_runs(client, periods) -> dict:
    """Collections per generation, and ms spent in full collections,
    while ``client`` runs ``periods`` (``gc.callbacks``; wall time is
    reported, never gated)."""
    runs = [0, 0, 0]
    gen2_ns = started = 0

    def observe(phase, info):
        nonlocal gen2_ns, started
        if phase == "start":
            started = time.perf_counter_ns()
            return
        runs[info["generation"]] += 1
        if info["generation"] == 2:
            gen2_ns += time.perf_counter_ns() - started

    gc.callbacks.append(observe)
    try:
        for period in periods:
            client.run_period(period % 100)
    finally:
        gc.callbacks.remove(observe)
    return {"collections_gen0_gen1_gen2": runs, "gen2_ms": round(gen2_ns / 1e6, 1)}


def test_the_instance_history_is_invisible_to_the_collector():
    """A synth unit stops paying for the run so far: the history is typed
    columns the collector does not walk, so what a full collection walks
    does not grow with the instances kept (docs/performance.md, "The
    instance history")."""
    client = SynthClient.from_spec(
        RunSpec(engine="interpreter", datasize=0.05, periods=4, seed=5,
                synth=SYNTH_KNOBS)
    )
    tracked = {}
    for period in range(41):
        client.run_period(period)
        if period in (5, 40):
            gc.collect()
            tracked[period] = len(gc.get_objects())
    growth = tracked[40] - tracked[5]
    history = client.engine.records
    assert client.monitor.records is history
    assert len(history) == len(history.column("period")) == 41 * 1166
    stored = [value for column in history.columns if type(column) is list
              for value in column]
    assert not any(gc.is_tracked(value) for value in stored)
    assert growth <= OBJECT_GROWTH_CEILING

    collector = collector_runs(client, range(41, 41 + GC_UNITS))
    print(f"\ntracked objects +{growth} over periods 5-40, "
          f"collector over {GC_UNITS} units {collector}")
    ledger_append(
        "history:untracked_rows",
        {
            "config": "interpreter synth bench knobs seed 5; objects: "
                      "gc.get_objects() after gc.collect(), period 40 - "
                      f"period 5; collector: units 41-{40 + GC_UNITS}",
            "tracked_object_growth": {
                "before": PARENT_OBJECT_GROWTH, "after": growth,
            },
            "tracked_objects_at_period_40": tracked[40],
            "collector_per_100_units": {
                "before": PARENT_COLLECTOR, "after": collector,
                "python": ".".join(map(str, sys.version_info[:2])),
            },
        },
    )


# ------------------------------------ the bytes a period keeps

#: ``tracemalloc`` bytes a synth period retained over periods 5-25 when
#: the history kept one column per field, seven of them lists
#: (interpreter, bench knobs, seed 5); 742 093 before that, when the
#: engine and the Monitor each kept row tuples and every period's plan
#: was memoized.
PARENT_RETAINED_PER_PERIOD = 185_720
RETAINED_PER_PERIOD_CEILING = 120 * 1024


def test_a_synth_period_retains_what_the_run_must_keep():
    """One history, shared by the engine and the Monitor, as eight typed
    columns and a shape code a record, and one period plan: a period
    keeps its records' columns and little else (docs/performance.md,
    "The instance history")."""
    tracemalloc.start()
    try:
        client = SynthClient.from_spec(
            RunSpec(engine="interpreter", datasize=0.05, periods=4, seed=5,
                    synth=SYNTH_KNOBS)
        )
        traced = {}
        for period in range(26):
            client.run_period(period)
            if period in (5, 25):
                gc.collect()
                traced[period] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    retained = (traced[25] - traced[5]) / 20
    print(f"\nretained per synth period {retained / 1024:.1f} KB")
    assert retained <= RETAINED_PER_PERIOD_CEILING
    ledger_append(
        "history:retained_per_period",
        {
            "config": "interpreter synth bench knobs seed 5; tracemalloc "
                      "traced bytes after gc.collect(), (period 25 - "
                      "period 5) / 20",
            "bytes_per_period": {
                "before": PARENT_RETAINED_PER_PERIOD, "after": round(retained),
            },
        },
    )
