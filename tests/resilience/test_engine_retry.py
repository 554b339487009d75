"""The engine's retry loop: backoff admission, recovery, dead-lettering."""

import pytest

from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.errors import NetworkError
from repro.mtm import (
    Assign,
    EventType,
    ProcessGroup,
    ProcessType,
    Sequence,
    Signal,
)
from repro.resilience import (
    CircuitBreakerBoard,
    DeadLetterQueue,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    RetryPolicy,
)
from repro.services import Network, ServiceRegistry


def fresh_registry():
    net = Network()
    net.add_host("IS")
    return ServiceRegistry(net)


def simple_e2(pid="PX"):
    return ProcessType(
        pid, ProcessGroup.B, "test", EventType.E2_SCHEDULE,
        Sequence([Signal()]),
    )


def make_context(registry, *events, max_attempts=4):
    spec = FaultSpec(name="t", seed=1, events=tuple(events))
    return ResilienceContext(
        policy=RetryPolicy(max_attempts=max_attempts),
        injector=FaultInjector(spec, registry=registry),
        breakers=CircuitBreakerBoard(),
        dead_letters=DeadLetterQueue(),
        seed=1,
    )


def start_period(context):
    context.begin_period(0)


class TestTransientRecovery:
    def test_one_injected_fault_recovers_on_second_attempt(self):
        engine = MtmInterpreterEngine(fresh_registry())
        context = make_context(
            engine.registry,
            FaultEvent(at=0.0, kind="engine_fault", process="PX", count=1),
        )
        engine.resilience = context
        start_period(context)
        engine.deploy(simple_e2("PX"))
        record = engine.handle_event(ProcessEvent("PX", 10.0))
        assert record.status == "ok"
        assert record.attempts == 2
        assert record.recovered and record.retries == 1
        assert record.fault_types == ("TransientEngineFault",)
        assert record.arrival == 10.0  # deadline preserved
        assert record.start >= 13.6    # after the backoff: 4 tu, jitter 10 %
        assert list(engine.records.recovered()) == [record]

    def test_retry_exhaustion_dead_letters(self):
        engine = MtmInterpreterEngine(fresh_registry())
        context = make_context(
            engine.registry,
            FaultEvent(at=0.0, kind="engine_fault", process="PX", count=99),
            max_attempts=3,
        )
        engine.resilience = context
        start_period(context)
        engine.deploy(simple_e2("PX"))
        record = engine.handle_event(ProcessEvent("PX", 0.0))
        assert record.status == "dead-letter"
        assert record.attempts == 3
        assert record.error_type == "TransientEngineFault"
        assert record.fault_types == ("TransientEngineFault",) * 3
        assert len(context.dead_letters) == 1
        assert list(engine.records) == [record]

    def test_process_level_transient_failure_retries(self):
        engine = MtmInterpreterEngine(fresh_registry())
        context = make_context(engine.registry)
        engine.resilience = context
        start_period(context)
        attempts_seen = []

        def flaky(ctx):
            attempts_seen.append(ctx.attempt)
            if ctx.attempt == 1:
                raise NetworkError("transient glitch")
            return 1

        engine.deploy(ProcessType(
            "PF", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("x", flaky), Signal()]),
        ))
        record = engine.handle_event(ProcessEvent("PF", 0.0))
        assert record.status == "ok"
        assert record.attempts == 2
        assert attempts_seen == [1, 2]  # context exposes the attempt number


class TestPoisonHandling:
    def test_non_retryable_dead_letters_immediately(self):
        engine = MtmInterpreterEngine(fresh_registry())
        context = make_context(engine.registry)
        engine.resilience = context
        start_period(context)
        engine.deploy(ProcessType(
            "PP", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("x", lambda c: 1 / 0)]),
        ))
        record = engine.handle_event(ProcessEvent("PP", 0.0))
        assert record.status == "dead-letter"
        assert record.attempts == 1  # poison is never retried
        assert record.error_type == "ZeroDivisionError"
        letter = next(iter(context.dead_letters))
        assert letter.error_type == "ZeroDivisionError"


class TestLegacyPathUnchanged:
    def test_without_resilience_errors_keep_legacy_status(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(ProcessType(
            "PE", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("x", lambda c: 1 / 0)]),
        ))
        record = engine.handle_event(ProcessEvent("PE", 0.0))
        assert record.status == "error"
        assert record.attempts == 1
        assert record.error_type == "ZeroDivisionError"
