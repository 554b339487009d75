"""Virtual time for deterministic benchmark execution.

The paper schedules integration processes in abstract *time units* (tu),
where ``1 tu = (1 / t) milliseconds`` for time scale factor ``t``.  The
original toolsuite ran against a wall clock on three physical machines; we
substitute discrete-event virtual time so runs are deterministic and
laptop-scale while the schedule semantics (Table II) are preserved.  No
run paces itself by the host clock, and no run keeps a clock object:
every event carries its own deadline.

Public API:

* :class:`EventScheduler` — a discrete-event queue ordered by deadline
  in tu; it keeps no clock, an event's deadline is the time it happens.
"""

from repro.simtime.scheduler import EventScheduler, ScheduledEvent

__all__ = [
    "EventScheduler",
    "ScheduledEvent",
]
