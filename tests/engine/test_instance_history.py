"""The instance history: records kept as typed columns and shape codes,
read back and aggregated.

``InstanceRecord.row`` / ``from_row`` must round-trip every kind of
record the four engines make — field for field, ``repr`` for ``repr``,
pickle for pickle — and so must the history.  A kept record owns no
object: its eight per-instance numbers are machine values in ``array``
columns, and the rest of it, its *shape*, one ``array('I')`` code into
the history's table of distinct shapes, whose tuples the collector
stops tracking; ≤ 80 bytes a record in all.  A field of another type
than declared is refused, never stored as (or merged into a shape
with) something that reads back differently; a ``where`` / ``groups``
selection is read-only.  ``compute_metrics`` reads the columns;
``tests/oracle/metrics.py`` is the record-object body it replaced, and
the two must agree bit for bit.
"""

import dataclasses
import functools
import gc
import pickle
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.base import InstanceHistory, InstanceRecord, ProcessEvent
from repro.engine.costs import CostBreakdown
from repro.errors import XsdValidationError
from repro.metrics.navg import compute_metrics
from repro.mtm.message import Message
from repro.parallel.spec import RunSpec
from repro.resilience import FaultSpec
from repro.toolsuite import BenchmarkClient
from repro.xmlkit.doc import XmlElement
from tests.oracle import metrics as oracle

ENGINES = ("interpreter", "federated", "eai", "etl")

#: Two poison P04 messages, two P10 instances that recover on retry and
#: one P10 (plus one P08) that exhausts its retries.
FAULTS = FaultSpec.from_dict({"name": "history", "seed": 7, "events": [
    {"at": 0.0, "kind": "corrupt", "process": "P04", "count": 2, "period": 0},
    {"at": 0.0, "kind": "engine_fault", "process": "P10", "count": 5, "period": 0},
    {"at": 0.0, "kind": "engine_fault", "process": "P08", "count": 1, "period": 0},
]})


@functools.cache
def built_records(engine: str) -> tuple[list[InstanceRecord], InstanceHistory]:
    """The records one engine built over a faulted period, a failing
    instance and a ``record_failure``, and the engine's history of them."""
    client = BenchmarkClient.from_spec(
        RunSpec(engine=engine, datasize=0.02, periods=1, seed=5, faults=FAULTS)
    )
    records = client.run_period(0)
    engine = client.engine
    engine.resilience = None  # fail fast: an "error" record, not a dead letter
    bad_order = Message(XmlElement("ViennaOrder"), "vienna_order")
    records.append(
        engine.handle_event(ProcessEvent("P04", 1.0, bad_order, stream="B"))
    )
    records.append(
        engine.record_failure(
            ProcessEvent("P10", 2.0, stream="B"),
            XsdValidationError("invalid", ["missing Kopf", "bad Datum"]),
        )
    )
    return records, engine.records


def _atomic(value) -> bool:
    if type(value) is tuple:
        return all(type(item) is str for item in value)
    return type(value) in (int, float, str)


@pytest.mark.parametrize("engine", ENGINES)
class TestRowsRoundTrip:
    def test_every_kind_of_record_is_covered(self, engine):
        records, _ = built_records(engine)
        assert {r.status for r in records} == {"ok", "error", "dead-letter"}
        assert any(r.recovered for r in records)
        assert any(r.status == "dead-letter" and r.attempts > 1 for r in records)
        assert any(r.status == "dead-letter" and r.error_violations for r in records)
        assert any(r.status == "error" and r.error_violations for r in records)
        assert any(r.fault_types for r in records)

    def test_a_record_comes_back_field_for_field(self, engine):
        records, _ = built_records(engine)
        for record in records:
            row = record.row()
            assert type(row) is tuple and all(_atomic(v) for v in row)
            back = InstanceRecord.from_row(row)
            assert back == record
            assert repr(back) == repr(record)
            assert pickle.dumps(back) == pickle.dumps(record)

    def test_the_engine_history_reads_as_the_records_it_built(self, engine):
        records, history = built_records(engine)
        assert history == records
        assert [repr(r) for r in history] == [repr(r) for r in records]
        assert history[-1] == records[-1]
        assert history[3:9] == records[3:9]
        assert history.column("status") == [r.status for r in records]
        assert history.elapsed() == [r.elapsed for r in records]
        parts = (history.column(n) for n in ("communication", "management", "processing"))
        assert [sum(costs) for costs in zip(*parts)] == [
            r.normalized_cost for r in records
        ]
        assert list(history.recovered()) == [r for r in records if r.recovered]
        assert pickle.loads(pickle.dumps(history)) == history

    def test_stored_rows_are_untracked_after_a_collection(self, engine):
        """No per-record object is stored: eight arrays of machine values
        and one array of shape codes, and a table of shapes, tuples of
        atomic values the collector no longer tracks."""
        records, _ = built_records(engine)
        history = InstanceHistory(records)
        assert history.column("status") == [r.status for r in records]
        gc.collect()
        gc.collect()  # a shape holding a tuple is untracked after it
        assert [(type(c), c.typecode) for c in history.columns] == [
            (array, code) for code in "qqddddddI"
        ]
        assert all(len(column) == len(records) for column in history.columns)
        assert list(history.columns[-1]) == [
            list(history.shapes).index(r.row()[1:4:2] + r.row()[10:]) for r in records
        ]
        assert len(history.shapes) < len(records)
        assert not any(gc.is_tracked(shape) for shape in history.shapes)


class TestHistory:
    def test_slicing_and_extending_keep_order(self):
        records, history = built_records("interpreter")
        tail = history[5:]
        assert tail == records[5:]
        assert all(a is not b for a, b in zip(tail.columns, history.columns))
        merged = InstanceHistory()
        merged.extend(tail)
        merged.extend(records[:2])
        merged.extend(history.where("status", lambda s: s != "ok")[1:3])
        errors = [r for r in records if r.status != "ok"]
        assert list(merged) == records[5:] + records[:2] + errors[1:3]
        assert [repr(r) for r in merged[-4:]] == [
            repr(r) for r in records[:2] + errors[1:3]
        ]

    def test_a_record_keeps_at_most_80_bytes(self):
        """Eight numbers and a code (68 B) plus the columns' growth slack
        and the shape table."""
        records, _ = built_records("interpreter")
        history = InstanceHistory()
        for i in range(10_000):
            history.append(records[i % len(records)])
        assert len(history.column("period")) == 10_000
        size = sum(sys.getsizeof(column) for column in history.columns)
        size += sys.getsizeof(history.shapes) + sum(map(sys.getsizeof, history.shapes))
        assert size / 10_000 <= 80

    @pytest.mark.parametrize("name, value", [
        ("arrival", 3), ("completion", True), ("processing", 7),
        ("attempts", True), ("period", False), ("instance_id", 2.0),
    ])
    def test_a_numeric_field_of_another_type_is_refused(self, name, value):
        """An ``int`` where a float is declared, a ``bool`` where an int
        is, would read back as another value of another ``repr``: the
        move into the columns refuses the record and keeps the rest."""
        records, _ = built_records("interpreter")
        record = records[3]
        if name == "processing":
            bad = dataclasses.replace(
                record, costs=dataclasses.replace(record.costs, processing=value)
            )
        else:
            bad = dataclasses.replace(record, **{name: value})
        history = InstanceHistory(records[:3])
        history.append(bad)
        history.append(records[4])
        with pytest.raises(TypeError, match=name):
            history.column("status")
        assert [repr(r) for r in history] == [
            repr(r) for r in records[:3] + records[4:5]
        ]

    def test_watermark_cut_and_extend(self):
        records, _ = built_records("interpreter")
        history = InstanceHistory(records[:10])
        del history[4:]
        history.extend(records[10:12])
        assert history == records[:4] + records[10:12]

    def test_groups_and_where_keep_history_order(self):
        records, history = built_records("federated")
        groups = history.groups("process_id")
        assert list(groups) == list(dict.fromkeys(r.process_id for r in records))
        for process_id, group in groups.items():
            assert group == [r for r in records if r.process_id == process_id]
        errors = history.where("status", lambda s: s != "ok")
        assert errors == [r for r in records if r.status != "ok"]


    def test_a_selection_is_read_only(self):
        """A selection shares its history's columns: appending to it, or
        cutting it, would write into the history."""
        records, _ = built_records("interpreter")
        history = InstanceHistory(records)
        selections = [history.where("status", lambda s: s == "ok"),
                      history.groups("process_id")["P01"], history[:]]
        for selection in selections[:2]:
            kept = len(selection)
            with pytest.raises(TypeError, match="read-only"):
                selection.append(records[0])
            with pytest.raises(TypeError, match="read-only"):
                selection.extend(records[:2])
            with pytest.raises(TypeError, match="read-only"):
                del selection[0:2]
            assert len(selection) == kept
        assert [repr(r) for r in history] == [repr(r) for r in records]
        selections[2].append(records[0])  # a slice is a history of its own
        assert len(selections[2]) == len(history) + 1

    @pytest.mark.parametrize("name, retype", [
        ("attempts", bool), ("validation_failures", bool),
        ("queue_length_at_arrival", float), ("operators_executed", float),
        ("process_id", lambda v: _Str(v)), ("status", lambda v: _Str(v)),
        ("error", lambda v: None), ("stream", len),
        ("error_violations", list), ("fault_types", lambda v: _Tuple(v)),
        ("error_violations", lambda v: v + (7,)),
        ("fault_types", lambda v: tuple(map(_Str, v))),
    ], ids=lambda p: getattr(p, "__name__", p))
    def test_a_shape_field_of_another_type_is_refused(self, name, retype):
        """A value equal to the one a kept shape holds but of another
        type (``True`` for 1, ``2.0`` for 2, a ``str`` subclass) would be
        merged into that shape and read back with another ``repr``: the
        move into the columns refuses the record and keeps the rest."""
        records, _ = built_records("interpreter")
        record = next(r for r in records if r.fault_types and r.error_violations)
        bad = dataclasses.replace(record, **{name: retype(getattr(record, name))})
        history = InstanceHistory([record])
        assert history.column("status") == [record.status]  # its shape is kept
        history.extend([bad, records[0]])
        with pytest.raises(TypeError, match=name):
            history.column("status")
        assert [repr(r) for r in history] == [repr(record), repr(records[0])]


class _Str(str):
    def __repr__(self):
        return f"_Str({str.__repr__(self)})"


class _Tuple(tuple):
    def __repr__(self):
        return f"_Tuple({tuple.__repr__(self)})"


_TEXT = st.one_of(st.sampled_from(["", "ok", "P01", "dead-letter"]), st.text(max_size=12))
_RECORDS = st.builds(
    InstanceRecord,
    instance_id=st.integers(-2**63, 2**63 - 1), process_id=_TEXT,
    period=st.integers(-2**63, 2**63 - 1), stream=_TEXT,
    arrival=st.floats(), start=st.floats(), completion=st.floats(),
    costs=st.builds(CostBreakdown, st.floats(), st.floats(), st.floats()),
    status=_TEXT, error=_TEXT, queue_length_at_arrival=st.integers(0, 3),
    operators_executed=st.integers(-1, 2**70), validation_failures=st.integers(0, 2),
    error_type=_TEXT, error_violations=st.lists(_TEXT, max_size=40).map(tuple),
    attempts=st.integers(1, 3), fault_types=st.lists(_TEXT, max_size=3).map(tuple),
)
#: A field and a value of the wrong type for it.
_WRONG = [
    ("attempts", True), ("period", False), ("arrival", 1), ("operators_executed", 1.0),
    ("status", _Str("ok")), ("process_id", b"P01"), ("error_violations", ["x"]),
    ("fault_types", ("x", 1)), ("fault_types", _Tuple()), ("error_type", None),
]


def _reprs(records) -> list[str]:
    return [repr(r) for r in records]


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_RECORDS, max_size=30), st.lists(_RECORDS, max_size=30),
           st.integers(0, 60), st.integers(0, 60), st.data())
    def test_every_surviving_record_reads_back(self, first, second, cut, start, data):
        """Two histories with different shape tables, through append,
        extend one into the other, pickle, slice, where / groups and a
        watermark cut: every record reads back ``repr`` for ``repr``."""
        one = InstanceHistory()
        for record in first:
            one.append(record)
        # A slice keeps its history's shape table: other's codes number
        # first's shapes in reverse before second's.
        other = InstanceHistory(first[::-1] + second)[len(first):]
        one.extend(other)
        kept = first + second
        assert _reprs(one) == _reprs(kept)
        one = pickle.loads(pickle.dumps(one))
        assert _reprs(one) == _reprs(kept)
        assert _reprs(one[start:cut]) == _reprs(kept[start:cut])
        name = data.draw(st.sampled_from(["process_id", "status", "attempts", "period"]))
        groups = one.groups(name)
        assert list(groups) == list(dict.fromkeys(getattr(r, name) for r in kept))
        for value, group in groups.items():
            assert _reprs(group) == _reprs(r for r in kept if getattr(r, name) == value)
        picked = one.where(name, lambda v: v == getattr(kept[0], name)) if kept else one
        assert _reprs(picked) == _reprs(r for r in kept if getattr(r, name) == getattr(kept[0], name))
        del one[cut:]
        one.extend(first[:2])
        assert _reprs(one) == _reprs(kept[:cut] + first[:2])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_RECORDS, st.none() | st.sampled_from(_WRONG)), max_size=30))
    def test_a_mistyped_field_is_refused_and_the_rest_kept(self, drawn):
        """Whatever shapes are kept already, a record with a field of
        another type is refused (one ``TypeError`` naming the field per
        such record) and every other record reads back."""
        history, kept, refused = InstanceHistory(), [], 0
        for record, wrong in drawn:
            if wrong is None:
                kept.append(record)
            else:
                record = dataclasses.replace(record, **dict([wrong]))
            history.append(record)
        while True:
            try:
                history.column("status")
                break
            except TypeError as error:
                assert any(f"{name} is" in str(error) for name, _ in _WRONG)
                refused += 1
        assert refused == len(drawn) - len(kept)
        assert _reprs(history) == _reprs(kept)


def assert_bit_equal(report, expected):
    assert list(report.per_type) == list(expected.per_type)
    for process_id, metrics in expected.per_type.items():
        got = report.per_type[process_id]
        for name, value in vars(metrics).items():
            if isinstance(value, float):
                assert getattr(got, name).hex() == value.hex(), (process_id, name)
            else:
                assert getattr(got, name) == value, (process_id, name)
    assert report.as_table() == expected.as_table()


class TestComputeMetricsMatchesTheOracle:
    def test_on_the_records_of_four_engines(self):
        records = [r for engine in ENGINES for r in built_records(engine)[0]]
        assert_bit_equal(compute_metrics(InstanceHistory(records)),
                         oracle.compute_metrics(records))
        # A list of records is encoded first and reads the same.
        assert_bit_equal(compute_metrics(records), oracle.compute_metrics(records))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["P01", "P02", "SYC0", "SYU3"]),
            st.sampled_from(["ok", "ok", "ok", "error", "dead-letter"]),
            st.lists(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=3, max_size=3,
            ),
            st.integers(1, 4),
        ),
        max_size=60,
    ))
    def test_on_drawn_records(self, drawn):
        records = [
            InstanceRecord(
                i, process_id, i % 3, "A", float(i), float(i), float(i) + sum(costs),
                CostBreakdown(*costs), status, attempts=attempts,
            )
            for i, (process_id, status, costs, attempts) in enumerate(drawn)
        ]
        assert_bit_equal(compute_metrics(InstanceHistory(records)),
                         oracle.compute_metrics(records))
