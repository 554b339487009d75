"""repro.resilience: deterministic fault injection and recovery policies.

Two halves:

* **FaultInjector** — a seeded schedule of fault events over simulated
  time (network partitions/degradation, endpoint outages, transient
  engine failures, message corruption), declared as a
  :class:`FaultSpec` (Python API or JSON file) and executed through the
  simtime scheduler so the same seed always yields the same fault
  timeline.
* **Resilience policies** — per-process retry with exponential backoff
  and jitter in virtual time (fixed constants; the attempt cap is the
  one knob), per-endpoint circuit breakers with a single half-open
  probe, and a dead-letter queue for poison messages, so a failed
  instance degrades gracefully instead of aborting the benchmark
  period.

Quick start::

    from repro.parallel import RunSpec, client_from_spec
    from repro.resilience import FaultSpec

    faults = FaultSpec.load("examples/faults_basic.json")
    client = client_from_spec(RunSpec(faults=faults, max_attempts=4))
    result = client.run()
    print(client.monitor.resilience_summary().describe())
"""

from repro.resilience.breaker import (
    BreakerPolicy,
    CLOSED,
    CircuitBreaker,
    CircuitBreakerBoard,
    HALF_OPEN,
    OPEN,
)
from repro.resilience.deadletter import DeadLetter, DeadLetterQueue
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSpec,
    corrupt_document,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.policy import (
    BACKOFF_BUCKETS,
    RETRYABLE_ERRORS,
    ResilienceContext,
    RetryPolicy,
    is_retryable,
)

__all__ = [
    "BACKOFF_BUCKETS",
    "BreakerPolicy",
    "CLOSED",
    "CircuitBreaker",
    "CircuitBreakerBoard",
    "DeadLetter",
    "DeadLetterQueue",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "HALF_OPEN",
    "OPEN",
    "RETRYABLE_ERRORS",
    "ResilienceContext",
    "RetryPolicy",
    "corrupt_document",
    "is_retryable",
]
