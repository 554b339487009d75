"""Dead-letter queue: record conversion, accounting, metrics."""

from repro.engine.base import InstanceRecord
from repro.engine.costs import CostBreakdown
from repro.observability.metrics import MetricsRegistry
from repro.resilience import DeadLetter, DeadLetterQueue


def make_record(process_id="P04", error_type="XsdValidationError", **kwargs):
    defaults = dict(
        instance_id=1, process_id=process_id, period=0, stream="B",
        arrival=10.0, start=10.0, completion=12.0, costs=CostBreakdown(),
        status="dead-letter",
        error=f"{error_type}: boom",
        error_type=error_type,
        error_violations=("root: missing attribute",),
        attempts=4,
        fault_types=("NetworkError", error_type),
    )
    defaults.update(kwargs)
    return InstanceRecord(**defaults)


class TestDeadLetter:
    def test_from_record_keeps_structure(self):
        letter = DeadLetter.from_record(make_record())
        assert letter.process_id == "P04"
        assert letter.error_type == "XsdValidationError"
        assert letter.violations == ("root: missing attribute",)
        assert letter.attempts == 4
        assert letter.fault_types == ("NetworkError", "XsdValidationError")
        assert letter.time == 12.0


class TestDeadLetterQueue:
    def test_push_iter_len(self):
        queue = DeadLetterQueue()
        queue.push(DeadLetter.from_record(make_record()))
        queue.push(DeadLetter.from_record(
            make_record(process_id="P08", error_type="CircuitOpenError")
        ))
        assert len(queue) == 2
        assert [l.process_id for l in queue] == ["P04", "P08"]

    def test_by_error_type_and_for_process(self):
        queue = DeadLetterQueue()
        queue.push(DeadLetter.from_record(make_record()))
        queue.push(DeadLetter.from_record(make_record()))
        queue.push(DeadLetter.from_record(
            make_record(process_id="P08", error_type="CircuitOpenError")
        ))
        assert queue.by_error_type() == {
            "XsdValidationError": 2, "CircuitOpenError": 1,
        }
        assert [letter.process_id for letter in queue].count("P04") == 2

    def test_metrics_counter(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(metrics=registry)
        queue.push(DeadLetter.from_record(make_record()))
        counter = registry.counter(
            "resilience_dead_letters_total",
            labels={"process": "P04", "error_type": "XsdValidationError"},
        )
        assert counter.value == 1.0
