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
from typing import Any, Iterator

from repro.observability.metrics import MetricsRegistry


@dataclass(order=True, frozen=True)
class ScheduledEvent:
    """An event in the queue, ordered by (deadline, sequence number)."""

    deadline: float
    seqno: int
    payload: Any = field(compare=False)


class EventScheduler:
    """A discrete-event queue over virtual time.

    Events may be pushed in any order; :meth:`drain` pops them in
    deadline order.  The queue keeps no clock: an event's deadline is
    the time it happens, and consumers read it from the event.  Consumers
    may push further events while draining (e.g. a process that
    re-schedules itself), which is why draining re-examines the heap
    after every event.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
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

    def pop(self) -> ScheduledEvent:
        """Remove and return the next event."""
        if not self._heap:
            raise IndexError("pop from an empty event scheduler")
        event = heapq.heappop(self._heap)[2]
        if self._metrics is not None:
            self._m_dispatched.inc()
        return event

    def drain(self) -> Iterator[ScheduledEvent]:
        """Yield all events in deadline order."""
        while self._heap:
            yield self.pop()

    def drain_until(self, deadline: float) -> Iterator[ScheduledEvent]:
        """Yield events due at or before ``deadline``.

        The fault injector uses this to apply every fault whose time has
        come whenever the engine advances virtual time.

        Equal deadlines dispatch in push (FIFO) order, including events
        pushed *during* the drain at exactly ``deadline`` — they sort
        behind already-queued ties by sequence number — so the dispatch
        order is a pure function of push order, whichever worker runs
        the schedule.
        """
        while self._heap and self._heap[0][0] <= deadline:
            yield self.pop()

    def clear(self) -> None:
        """Drop all pending events (used between benchmark periods)."""
        self._heap.clear()
