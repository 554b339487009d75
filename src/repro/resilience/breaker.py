"""Per-endpoint circuit breakers with half-open probing, in virtual time.

A breaker guards one service endpoint.  It is *closed* (calls pass)
until ``failure_threshold`` consecutive failures open it; while *open*
every call is rejected immediately with :class:`CircuitOpenError` —
failing fast instead of burning retries against a dead endpoint.  After
``reset_timeout`` virtual time units the breaker turns *half-open* and
lets one probe call through: its success closes it again, its failure
re-opens it.

Time is whatever the engine says it is (the event deadline / retry
time), so breaker behaviour is as deterministic as the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CircuitOpenError, ResilienceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of one circuit breaker (times in engine units)."""

    #: The default reset timeout is deliberately shorter than the default
    #: retry budget's total backoff span (4 + 8 + 16 tu), so an instance
    #: that starts retrying just as the breaker opens can still reach its
    #: last attempt after the half-open probe window — an open breaker
    #: sheds load without condemning every in-flight instance.
    failure_threshold: int = 3
    reset_timeout: float = 20.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ResilienceError(
                f"failure threshold must be >= 1: {self.failure_threshold}"
            )
        if self.reset_timeout <= 0:
            raise ResilienceError(
                f"reset timeout must be > 0: {self.reset_timeout}"
            )


class CircuitBreaker:
    """State machine for one service."""

    def __init__(
        self,
        service: str,
        policy: BreakerPolicy | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.service = service
        self.policy = policy or BreakerPolicy()
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: Whether the half-open breaker has let its one probe through.
        self._probed = False
        self.transitions: list[tuple[float, str]] = []
        self._metrics = metrics

    def _transition(self, now: float, state: str) -> None:
        if state == self.state:
            return
        if self.state == OPEN and self._metrics is not None:
            self._metrics.counter(
                "circuit_open_time_total",
                help="Virtual time endpoints spent with an open breaker",
                labels={"service": self.service},
            ).inc(max(0.0, now - self.opened_at))
        self.state = state
        self.transitions.append((now, state))
        if self._metrics is not None:
            self._metrics.counter(
                "circuit_transitions_total",
                help="Circuit breaker state changes",
                labels={"service": self.service, "to": state},
            ).inc()

    def allow(self, now: float) -> bool:
        """May a call go through at ``now``?  (Consumes the half-open probe.)"""
        if self.state == OPEN:
            if now - self.opened_at < self.policy.reset_timeout:
                return False
            self._transition(now, HALF_OPEN)
            self._probed = False
        if self.state == HALF_OPEN:
            if self._probed:
                return False
            self._probed = True
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(now, CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.opened_at = now
            self._transition(now, OPEN)


class CircuitBreakerBoard:
    """All breakers of one run, consulted by the service registry.

    The engine advances :attr:`now` (via the resilience context) before
    each execution attempt; the registry calls :meth:`before_call` /
    :meth:`record_success` / :meth:`record_failure` around every routed
    service call.
    """

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.policy = policy or BreakerPolicy()
        self.now = 0.0
        self._metrics = metrics
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, service: str) -> CircuitBreaker:
        found = self._breakers.get(service)
        if found is None:
            found = CircuitBreaker(service, self.policy, self._metrics)
            self._breakers[service] = found
        return found

    def before_call(self, service: str) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when open."""
        breaker = self.breaker(service)
        if not breaker.allow(self.now):
            if self._metrics is not None:
                self._metrics.counter(
                    "circuit_rejections_total",
                    help="Calls rejected by an open circuit breaker",
                    labels={"service": service},
                ).inc()
            raise CircuitOpenError(
                f"circuit breaker for service {service!r} is "
                f"{breaker.state} (opened at t={breaker.opened_at:.1f})"
            )

    def record_success(self, service: str) -> None:
        self.breaker(service).record_success(self.now)

    def record_failure(self, service: str) -> None:
        self.breaker(service).record_failure(self.now)

    def reset(self) -> None:
        """Forget all breaker state (between benchmark periods)."""
        self._breakers.clear()
        self.now = 0.0

    def state_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for breaker in self._breakers.values():
            out[breaker.state] = out.get(breaker.state, 0) + 1
        return out

    def states(self) -> dict[str, str]:
        """``service -> current state`` for every instantiated breaker,
        in service-name order (the per-endpoint health view)."""
        return {
            service: self._breakers[service].state
            for service in sorted(self._breakers)
        }
