"""Dead-letter queue: where poison messages and exhausted retries land.

DIPBench's process type P10 already routes *expected* invalid data to
failed-data destinations inside the process; the dead-letter queue is
the engine-level analogue for instances that cannot complete at all —
non-retryable failures (e.g. a corrupted message raising a real
``XsdValidationError``) and retryable failures that exhausted the retry
policy.  Each entry keeps the structured ``error_type`` plus the XSD
violations, so tests and downstream tooling can match on failure class
instead of parsing strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.base import InstanceRecord
    from repro.observability.metrics import MetricsRegistry


@dataclass(frozen=True)
class DeadLetter:
    """One dead-lettered process instance."""

    process_id: str
    period: int
    stream: str
    time: float
    attempts: int
    error_type: str
    error: str
    violations: tuple[str, ...] = ()
    fault_types: tuple[str, ...] = ()

    @classmethod
    def from_record(cls, record: "InstanceRecord") -> "DeadLetter":
        return cls(
            process_id=record.process_id,
            period=record.period,
            stream=record.stream,
            time=record.completion,
            attempts=record.attempts,
            error_type=record.error_type,
            error=record.error,
            violations=tuple(record.error_violations),
            fault_types=tuple(record.fault_types),
        )


@dataclass
class DeadLetterQueue:
    """Append-only store of dead letters with per-class accounting."""

    entries: list[DeadLetter] = field(default_factory=list)
    metrics: "MetricsRegistry | None" = None

    def push(self, letter: DeadLetter) -> None:
        self.entries.append(letter)
        if self.metrics is not None:
            self.metrics.counter(
                "resilience_dead_letters_total",
                help="Process instances routed to the dead-letter queue",
                labels={
                    "process": letter.process_id,
                    "error_type": letter.error_type,
                },
            ).inc()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self.entries)

    def by_error_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for letter in self.entries:
            out[letter.error_type] = out.get(letter.error_type, 0) + 1
        return out
