"""Fault specs: validation, JSON round-trips, timelines, corruption."""

import json
import math
import random
import re

import pytest

from repro.cli import main
from repro.errors import FaultSpecError
from repro.resilience import FAULT_KINDS, FaultEvent, FaultSpec, corrupt_document
from repro.xmlkit.doc import XmlElement


class TestFaultEventValidation:
    def test_unknown_kind(self):
        problems = FaultEvent(at=1.0, kind="meteor").validate()
        assert problems and "unknown kind" in problems[0]

    def test_link_kinds_need_hosts(self):
        for kind in ("partition", "heal", "degrade", "restore_link"):
            assert FaultEvent(at=0.0, kind=kind).validate()
            assert not FaultEvent(
                at=0.0, kind=kind, src="A", dst="B"
            ).validate()

    def test_service_kinds_need_service(self):
        assert FaultEvent(at=0.0, kind="outage").validate()
        assert not FaultEvent(at=0.0, kind="outage", service="dwh").validate()

    def test_process_kinds_need_process(self):
        assert FaultEvent(at=0.0, kind="corrupt").validate()
        assert not FaultEvent(
            at=0.0, kind="engine_fault", process="P04"
        ).validate()

    def test_negative_time(self):
        problems = FaultEvent(
            at=-1.0, kind="outage", service="dwh"
        ).validate()
        assert any("time must be >= 0" in p for p in problems)

    def test_count_below_one(self):
        problems = FaultEvent(
            at=0.0, kind="corrupt", process="P04", count=0
        ).validate()
        assert any("count must be >= 1" in p for p in problems)

    def test_degrade_factor_below_one(self):
        problems = FaultEvent(
            at=0.0, kind="degrade", src="A", dst="B", factor=0.5
        ).validate()
        assert any("factor must be >= 1" in p for p in problems)

    def test_duration_only_on_recoverable_kinds(self):
        problems = FaultEvent(
            at=0.0, kind="engine_fault", process="P04", duration=5.0
        ).validate()
        assert any("duration only applies" in p for p in problems)

    def test_nonpositive_duration(self):
        problems = FaultEvent(
            at=0.0, kind="outage", service="dwh", duration=0.0
        ).validate()
        assert any("duration must be > 0" in p for p in problems)


class TestRecoveryExpansion:
    def test_partition_heals(self):
        event = FaultEvent(
            at=10.0, kind="partition", src="A", dst="B", duration=5.0
        )
        recovery = event.recovery()
        assert recovery.kind == "heal"
        assert recovery.at == 15.0
        assert recovery.duration is None
        assert (recovery.src, recovery.dst) == ("A", "B")

    def test_degrade_restores_link(self):
        recovery = FaultEvent(
            at=0.0, kind="degrade", src="A", dst="B", duration=2.0
        ).recovery()
        assert recovery.kind == "restore_link"

    def test_outage_restores(self):
        recovery = FaultEvent(
            at=0.0, kind="outage", service="dwh", duration=2.0
        ).recovery()
        assert recovery.kind == "restore"

    def test_no_duration_no_recovery(self):
        assert FaultEvent(
            at=0.0, kind="partition", src="A", dst="B"
        ).recovery() is None


class TestTimeline:
    def _spec(self):
        return FaultSpec(
            name="t",
            seed=1,
            events=(
                FaultEvent(at=30.0, kind="outage", service="dwh",
                           duration=10.0, period=0),
                FaultEvent(at=5.0, kind="partition", src="A", dst="B"),
                FaultEvent(at=5.0, kind="corrupt", process="P04", period=1),
            ),
        )

    def test_period_pinning(self):
        spec = self._spec()
        kinds_p0 = [e.kind for e in spec.timeline(0)]
        kinds_p1 = [e.kind for e in spec.timeline(1)]
        # outage+restore only in period 0, corrupt only in period 1,
        # the unpinned partition recurs in both.
        assert kinds_p0 == ["partition", "outage", "restore"]
        assert kinds_p1 == ["partition", "corrupt"]

    def test_timeline_sorted_with_stable_ties(self):
        spec = self._spec()
        times = [e.at for e in spec.timeline(1)]
        assert times == sorted(times)
        # Tie at t=5: declaration order preserved.
        assert [e.kind for e in spec.timeline(1)] == ["partition", "corrupt"]

    def test_recovery_expanded_at_right_time(self):
        restore = [e for e in self._spec().timeline(0) if e.kind == "restore"]
        assert restore and restore[0].at == 40.0


class TestJsonRoundTrip:
    def test_unknown_event_key_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown keys"):
            FaultEvent.from_dict({"at": 1.0, "kind": "outage", "sevrice": "x"})

    def test_missing_at_or_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="'at' and 'kind'"):
            FaultEvent.from_dict({"kind": "outage"})

    def test_events_must_be_list(self):
        with pytest.raises(FaultSpecError, match="must be a list"):
            FaultSpec.from_dict({"events": "nope"})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultSpecError, match="not valid JSON"):
            FaultSpec.from_json("{nope")

    def test_describe_lists_expanded_events(self):
        spec = FaultSpec(
            name="d", seed=0,
            events=(FaultEvent(at=1.0, kind="outage", service="dwh",
                               duration=4.0),),
        )
        text = spec.describe()
        assert "'d'" in text and "outage" in text and "restore" in text


OUTAGE = {"at": 1.0, "kind": "outage", "service": "sales_cleaning"}


@pytest.mark.parametrize(
    "doc,problem",
    [
        ({"events": [{**OUTAGE, "count": "x"}]}, "count: expected int"),
        ({"seed": None}, "seed: expected int"),
        ({"events": [1]}, "events[0]: expected a JSON object"),
        ({"events": [{**OUTAGE, "at": "abc"}]}, "at: expected float"),
        ({"events": [{**OUTAGE, "kind": 5}]}, "kind: expected str"),
        ({"name": ["n"]}, "name: expected str"),
    ],
    ids=["count-x", "seed-null", "event-1", "at-abc", "kind-5", "name-list"],
)
def test_a_malformed_spec_fails_closed(doc, problem, tmp_path, capsys):
    with pytest.raises(FaultSpecError, match=re.escape(problem)):
        FaultSpec.from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["faults", str(path)]) == 1
    assert main(["run", "--periods", "1", "--quiet", "--faults", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(
        line.startswith(f"error: cannot load fault spec {path}: ")
        and problem in line
        for line in err
    )


def test_every_problem_of_a_file_in_one_error():
    with pytest.raises(FaultSpecError) as err:
        FaultSpec.from_dict({"seed": None, "events": [1, {"kind": 5}]})
    assert str(err.value).count("; ") == 3


def test_a_nan_time_is_invalid_not_a_crash(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"name": "nan", "events": [{**OUTAGE, "at": math.nan}]}
    ))
    assert "NaN" in path.read_text()
    assert main(["faults", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID: 1 problem(s)" in out
    assert "got at=nan" in out


class TestSpecCrossValidation:
    def test_unknown_host_service_process(self):
        spec = FaultSpec(events=(
            FaultEvent(at=0.0, kind="partition", src="XX", dst="IS"),
            FaultEvent(at=0.0, kind="outage", service="ghost"),
            FaultEvent(at=0.0, kind="corrupt", process="P99"),
        ))
        problems = spec.validate(
            hosts=["IS", "ES"], services=["dwh"], processes=["P04"]
        )
        text = "\n".join(problems)
        assert "unknown host 'XX'" in text
        assert "unknown service 'ghost'" in text
        assert "unknown process 'P99'" in text

    def test_valid_spec_no_problems(self):
        spec = FaultSpec(events=(
            FaultEvent(at=0.0, kind="partition", src="IS", dst="ES"),
        ))
        assert spec.validate(hosts=["IS", "ES"]) == []


class TestCorruptDocument:
    def _doc(self, **attributes):
        root = XmlElement("Order", attributes=dict(attributes))
        root.add(XmlElement("Line", text="1"))
        return root

    def test_drops_attribute_or_appends_element(self):
        doc = self._doc(id="1", status="new")
        mutation = corrupt_document(doc, random.Random(0))
        assert ("dropped root attribute" in mutation
                or "__Corrupted__" in mutation)

    def test_without_attributes_always_appends(self):
        doc = self._doc()
        mutation = corrupt_document(doc, random.Random(0))
        assert "__Corrupted__" in mutation
        assert any(c.tag == "__Corrupted__" for c in doc.children)

    def test_deterministic_per_seed(self):
        m1 = corrupt_document(self._doc(id="1"), random.Random(5))
        m2 = corrupt_document(self._doc(id="1"), random.Random(5))
        assert m1 == m2


def test_fault_kinds_exported():
    assert set(FAULT_KINDS) == {
        "partition", "heal", "degrade", "restore_link",
        "outage", "restore", "engine_fault", "corrupt", "crash",
    }
