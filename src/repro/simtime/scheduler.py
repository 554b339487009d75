"""Discrete-event scheduler used by the benchmark client.

The client (Section V) turns the scheduling series of Table II into a
serialized sequence of process-initiating events per stream.  This module
provides the generic event queue: events carry a deadline in tu, a stable
sequence number for FIFO tie-breaking, and an arbitrary payload.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.observability.metrics import MetricsRegistry
from repro.simtime.clock import Clock, VirtualClock


@dataclass(order=True, frozen=True)
class ScheduledEvent:
    """An event in the queue, ordered by (deadline, sequence number)."""

    deadline: float
    seqno: int
    payload: Any = field(compare=False)


class EventScheduler:
    """A discrete-event queue bound to a :class:`Clock`.

    Events may be pushed in any order; :meth:`run` pops them in deadline
    order, advances the clock to each deadline, and invokes the handler.
    Handlers may push further events (e.g. a process that re-schedules
    itself), which is why draining re-examines the heap after every call.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        #: ``(deadline, seqno, event)`` entries: the unique seqno decides
        #: every tie, so the heap orders plain tuples at C level and never
        #: compares events or payloads.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._metrics = metrics
        if metrics is not None:
            self._m_pushed = metrics.counter(
                "scheduler_events_pushed_total",
                help="Events pushed into the discrete-event queue",
            )
            self._m_dispatched = metrics.counter(
                "scheduler_events_dispatched_total",
                help="Events popped and dispatched in deadline order",
            )
            self._m_peak = metrics.gauge(
                "scheduler_queue_peak",
                help="High-water mark of pending events in the queue",
            )

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, deadline: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` for ``deadline`` (absolute, in tu)."""
        if not 0 <= deadline < math.inf:  # also false for nan
            raise ValueError(
                f"deadline must be finite and >= 0, got {deadline}"
            )
        seqno = next(self._counter)
        event = ScheduledEvent(deadline, seqno, payload)
        heapq.heappush(self._heap, (deadline, seqno, event))
        if self._metrics is not None:
            self._m_pushed.inc()
            self._m_peak.set_max(len(self._heap))
        return event

    def push_after(self, delay: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` ``delay`` tu from the current clock time."""
        return self.push(self.clock.now() + delay, payload)

    def peek(self) -> ScheduledEvent | None:
        """Return the next event without removing it, or None if empty."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> ScheduledEvent:
        """Remove and return the next event, advancing the clock to it."""
        if not self._heap:
            raise IndexError("pop from an empty event scheduler")
        deadline, _, event = heapq.heappop(self._heap)
        self.clock.advance_to(deadline)
        if self._metrics is not None:
            self._m_dispatched.inc()
        return event

    def drain(self) -> Iterator[ScheduledEvent]:
        """Yield all events in deadline order, advancing the clock."""
        while self._heap:
            yield self.pop()

    def drain_until(self, deadline: float) -> Iterator[ScheduledEvent]:
        """Yield events due at or before ``deadline``, advancing the clock.

        The fault injector uses this to apply every fault whose time has
        come whenever the engine advances virtual time.

        Equal deadlines dispatch in push (FIFO) order, including events
        pushed *during* the drain at exactly ``deadline`` — they sort
        behind already-queued ties by sequence number.  After the drain
        the clock rests exactly at ``deadline`` (never behind it), so a
        subsequent :meth:`push_after` is anchored at the drained-to time
        instead of the last event's — without this, two schedulers that
        drained through different event prefixes would compute different
        absolute deadlines for the same relative delay, and worker-local
        schedules could diverge from the serial run.
        """
        while self._heap and self._heap[0][0] <= deadline:
            yield self.pop()
        self.clock.advance_to(deadline)

    def run(self, handler: Callable[[ScheduledEvent], None]) -> int:
        """Drain the queue through ``handler``; return the number handled."""
        handled = 0
        for event in self.drain():
            handler(event)
            handled += 1
        return handled

    def clear(self) -> None:
        """Drop all pending events (used between benchmark periods)."""
        self._heap.clear()


#: The scheduler is a binary heap with FIFO tie-breaking; some callers
#: (and the parallel sweep executor's docs) refer to it by that name.
HeapScheduler = EventScheduler
