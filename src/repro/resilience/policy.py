"""Retry/backoff policy and the per-run resilience context.

The :class:`RetryPolicy` prices failure handling in virtual time:
exponential backoff with seeded jitter and an attempt cap.  The
:class:`ResilienceContext` bundles everything an engine needs while
executing one run — policy, fault injector, circuit-breaker board,
dead-letter queue, and the metric instruments that make recovery
observable (retries, MTTR, recovered vs dead-lettered instances).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    CircuitOpenError,
    EndpointUnavailableError,
    NetworkError,
    ResilienceError,
    TransientEngineFault,
)
from repro.resilience.breaker import CircuitBreakerBoard
from repro.resilience.deadletter import DeadLetter, DeadLetterQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.base import InstanceRecord
    from repro.observability.metrics import MetricsRegistry
    from repro.resilience.injector import FaultInjector

#: The backoff schedule in engine units: the first delay, its growth
#: factor per failed attempt, its cap, and the seeded stretch of every
#: delay by a factor in ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
BASE_DELAY = 4.0
BACKOFF_MULTIPLIER = 2.0
MAX_DELAY = 64.0
BACKOFF_JITTER = 0.1

#: Backoff-delay histogram buckets in engine units.
BACKOFF_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Exception classes worth retrying: transient by construction.
RETRYABLE_ERRORS = (
    NetworkError,
    EndpointUnavailableError,
    TransientEngineFault,
    CircuitOpenError,
)


def is_retryable(exc: BaseException) -> bool:
    """Transient failures retry; validation/poison failures do not."""
    return isinstance(exc, RETRYABLE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, in virtual time units.

    ``delay(n)`` for attempt n (1-based) is
    ``BASE_DELAY * BACKOFF_MULTIPLIER**(n-1)``, capped at ``MAX_DELAY``
    and stretched by a seeded jitter factor in
    ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
    """

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max attempts must be >= 1: {self.max_attempts}"
            )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before the attempt after failed attempt ``attempt``."""
        raw = min(BASE_DELAY * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_DELAY)
        return raw * (1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0))


class ResilienceContext:
    """Everything resilience-related an engine sees during one run."""

    def __init__(
        self,
        policy: RetryPolicy,
        injector: "FaultInjector",
        breakers: CircuitBreakerBoard,
        dead_letters: DeadLetterQueue,
        metrics: "MetricsRegistry | None" = None,
        seed: int = 0,
    ):
        self.policy = policy
        self.injector = injector
        self.breakers = breakers
        self.dead_letters = dead_letters
        self._metrics = metrics
        #: Jitter RNG: consumed only on retries, so fault-free runs stay
        #: byte-identical to runs without any resilience layer.
        self._rng = random.Random(seed * 1_000_003 + 17)

    # -- time ------------------------------------------------------------------

    def at(self, now: float) -> None:
        """Advance the fault timeline and breaker clock to ``now``."""
        self.injector.advance_to(now)
        self.breakers.now = now

    def begin_period(self, period: int) -> None:
        self.injector.begin_period(period)
        self.breakers.reset()

    def end_period(self) -> None:
        self.injector.end_period()

    # -- retry decisions -------------------------------------------------------

    def retryable(self, exc: BaseException) -> bool:
        return is_retryable(exc)

    def next_delay(self, attempt: int) -> float:
        return self.policy.delay(attempt, self._rng)

    # -- accounting ------------------------------------------------------------

    def observe_retry(self, process_id: str, delay: float) -> None:
        if self._metrics is None:
            return
        self._metrics.counter(
            "resilience_retries_total",
            help="Execution attempts retried after a transient failure",
            labels={"process": process_id},
        ).inc()
        self._metrics.histogram(
            "resilience_backoff_delay",
            buckets=BACKOFF_BUCKETS,
            help="Backoff delay before a retry, in engine units",
        ).observe(delay)

    def account(self, record: "InstanceRecord", mttr: float | None) -> None:
        """Book one finished (possibly retried) instance."""
        if record.status == "dead-letter":
            self.dead_letters.push(DeadLetter.from_record(record))
            return
        if record.status == "ok" and record.attempts > 1:
            if self._metrics is not None:
                self._metrics.counter(
                    "resilience_recovered_total",
                    help="Instances that recovered after >= 1 retry",
                    labels={"process": record.process_id},
                ).inc()
                if mttr is not None:
                    self._metrics.histogram(
                        "resilience_mttr",
                        help="Virtual time from first failure to the start "
                             "of the successful attempt",
                    ).observe(mttr)
