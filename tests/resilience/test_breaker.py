"""Circuit breakers: state machine, half-open probing, board gating."""

import pytest

from repro.errors import CircuitOpenError, ResilienceError
from repro.observability.metrics import MetricsRegistry
from repro.resilience import BreakerPolicy, CircuitBreaker, CircuitBreakerBoard
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN


@pytest.fixture()
def breaker():
    return CircuitBreaker(
        "dwh",
        BreakerPolicy(failure_threshold=3, reset_timeout=10.0),
    )


class TestBreakerPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"reset_timeout": 0.0},
        ],
    )
    def test_invalid_knobs(self, kwargs):
        with pytest.raises(ResilienceError):
            BreakerPolicy(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_threshold_consecutive_failures(self, breaker):
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN
        assert breaker.opened_at == 3.0
        assert not breaker.allow(4.0)

    def test_success_resets_failure_count(self, breaker):
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(3.0)
        breaker.record_failure(4.0)
        breaker.record_failure(5.0)
        assert breaker.state == CLOSED

    def test_half_open_after_reset_timeout(self, breaker):
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert not breaker.allow(12.9)  # 3.0 + 10.0 not yet reached
        assert breaker.allow(13.0)      # probe passes
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_budget(self, breaker):
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(13.0)
        assert not breaker.allow(13.1)  # only one probe allowed

    def test_probe_success_closes(self, breaker):
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(13.0)
        breaker.record_success(13.5)
        assert breaker.state == CLOSED
        assert breaker.allow(13.6)

    def test_probe_failure_reopens(self, breaker):
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.allow(13.0)
        breaker.record_failure(13.5)
        assert breaker.state == OPEN
        assert breaker.opened_at == 13.5
        assert not breaker.allow(14.0)

    def test_transitions_recorded_and_open_time(self, breaker):
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        breaker.allow(13.0)
        breaker.record_success(13.0)
        assert [state for _, state in breaker.transitions] == [
            OPEN, HALF_OPEN, CLOSED,
        ]
        assert [when for when, _ in breaker.transitions] == [3.0, 13.0, 13.0]


class TestBoard:
    def test_breaker_get_or_create(self):
        board = CircuitBreakerBoard()
        assert board.breaker("a") is board.breaker("a")
        assert board.breaker("a") is not board.breaker("b")

    def test_before_call_raises_when_open(self):
        registry = MetricsRegistry()
        board = CircuitBreakerBoard(
            BreakerPolicy(failure_threshold=1, reset_timeout=100.0),
            metrics=registry,
        )
        board.now = 1.0
        board.record_failure("dwh")
        board.now = 2.0
        with pytest.raises(CircuitOpenError, match="dwh"):
            board.before_call("dwh")
        rejections = registry.counter(
            "circuit_rejections_total", labels={"service": "dwh"}
        )
        assert rejections.value == 1.0

    def test_closed_breaker_passes(self):
        board = CircuitBreakerBoard()
        board.before_call("dwh")  # no raise

    def test_reset_clears_state(self):
        board = CircuitBreakerBoard(BreakerPolicy(failure_threshold=1))
        board.now = 5.0
        board.record_failure("dwh")
        assert board.state_counts() == {OPEN: 1}
        board.reset()
        assert board.state_counts() == {}
        assert board.now == 0.0
        board.before_call("dwh")  # fresh breaker, closed again

    def test_transition_metrics(self):
        registry = MetricsRegistry()
        board = CircuitBreakerBoard(
            BreakerPolicy(failure_threshold=1, reset_timeout=5.0),
            metrics=registry,
        )
        board.now = 1.0
        board.record_failure("dwh")
        board.now = 7.0
        board.before_call("dwh")  # half-open probe
        board.record_success("dwh")
        for state in (OPEN, HALF_OPEN, CLOSED):
            counter = registry.counter(
                "circuit_transitions_total",
                labels={"service": "dwh", "to": state},
            )
            assert counter.value == 1.0
        open_time = registry.counter(
            "circuit_open_time_total", labels={"service": "dwh"}
        )
        assert open_time.value == pytest.approx(6.0)
