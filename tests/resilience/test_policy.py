"""Retry policy: backoff math, jitter bounds, failure classification."""

import random

import pytest

from repro.errors import (
    CircuitOpenError,
    EndpointUnavailableError,
    NetworkError,
    ResilienceError,
    TransientEngineFault,
    XsdValidationError,
)
from repro.observability.metrics import MetricsRegistry
from repro.resilience import (
    CircuitBreakerBoard,
    DeadLetterQueue,
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    RetryPolicy,
    is_retryable,
)
from repro.resilience import policy as policy_module
from repro.services import Network, ServiceRegistry


def context_of(
    metrics: MetricsRegistry | None = None,
    dead_letters: DeadLetterQueue | None = None,
    seed: int = 0,
) -> ResilienceContext:
    return ResilienceContext(
        policy=RetryPolicy(),
        injector=FaultInjector(FaultSpec(), registry=ServiceRegistry(Network())),
        breakers=CircuitBreakerBoard(),
        dead_letters=dead_letters if dead_letters is not None else DeadLetterQueue(),
        metrics=metrics,
        seed=seed,
    )


class TestRetryPolicyValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize("kwargs", [{"max_attempts": 0}])
    def test_invalid_knobs(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_growth_without_jitter(self, monkeypatch):
        monkeypatch.setattr(policy_module, "BACKOFF_JITTER", 0.0)
        policy = RetryPolicy()
        rng = random.Random(0)
        assert [policy.delay(n, rng) for n in (1, 2, 3, 4)] == [
            4.0, 8.0, 16.0, 32.0,
        ]

    def test_capped_at_max_delay(self, monkeypatch):
        monkeypatch.setattr(policy_module, "BACKOFF_JITTER", 0.0)
        assert RetryPolicy().delay(8, random.Random(0)) == 64.0

    def test_jitter_bounds(self):
        policy = RetryPolicy()
        rng = random.Random(1)
        delays = [policy.delay(1, rng) for _ in range(200)]
        assert all(3.6 <= d <= 4.4 for d in delays)
        assert len(set(delays)) > 1

    def test_jitter_deterministic_per_seed(self):
        policy = RetryPolicy()

        def run(seed):
            rng = random.Random(seed)
            return [policy.delay(n, rng) for n in (1, 2, 3)]

        assert run(4) == run(4)
        assert run(4) != run(5)


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            NetworkError("x"),
            EndpointUnavailableError("x"),
            TransientEngineFault("x"),
            CircuitOpenError("x"),
        ],
    )
    def test_transient_errors_retry(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            XsdValidationError("x", violations=["v"]),
            ValueError("x"),
            RuntimeError("x"),
        ],
    )
    def test_poison_errors_do_not_retry(self, exc):
        assert not is_retryable(exc)


class TestResilienceContext:
    def test_next_delay_deterministic_per_seed(self):
        def delays(seed):
            context = context_of(seed=seed)
            return [context.next_delay(n) for n in (1, 2, 3)]

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_observe_retry_emits_metrics(self):
        registry = MetricsRegistry()
        context = context_of(metrics=registry)
        context.observe_retry("P04", 4.5)
        counter = registry.counter(
            "resilience_retries_total", labels={"process": "P04"}
        )
        assert counter.value == 1.0

    def test_account_routes_dead_letters(self):
        from repro.engine.base import InstanceRecord
        from repro.engine.costs import CostBreakdown

        queue = DeadLetterQueue()
        context = context_of(dead_letters=queue)
        record = InstanceRecord(
            instance_id=1, process_id="P04", period=0, stream="B",
            arrival=1.0, start=1.0, completion=1.0, costs=CostBreakdown(),
            status="dead-letter", error="XsdValidationError: bad",
            error_type="XsdValidationError",
            error_violations=("missing attribute",), attempts=2,
            fault_types=("XsdValidationError",),
        )
        context.account(record, mttr=None)
        assert len(queue) == 1
        letter = next(iter(queue))
        assert letter.error_type == "XsdValidationError"
        assert letter.violations == ("missing attribute",)

    def test_account_counts_recoveries(self):
        from repro.engine.base import InstanceRecord
        from repro.engine.costs import CostBreakdown

        registry = MetricsRegistry()
        context = context_of(metrics=registry)
        record = InstanceRecord(
            instance_id=2, process_id="P08", period=0, stream="B",
            arrival=1.0, start=5.0, completion=6.0, costs=CostBreakdown(),
            status="ok", attempts=3,
        )
        assert record.recovered and record.retries == 2
        context.account(record, mttr=4.0)
        counter = registry.counter(
            "resilience_recovered_total", labels={"process": "P08"}
        )
        assert counter.value == 1.0
