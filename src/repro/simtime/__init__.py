"""Virtual time for deterministic benchmark execution.

The paper schedules integration processes in abstract *time units* (tu),
where ``1 tu = (1 / t) milliseconds`` for time scale factor ``t``.  The
original toolsuite ran against a wall clock on three physical machines; we
substitute a discrete-event virtual clock so runs are deterministic and
laptop-scale while the schedule semantics (Table II) are preserved.  No
run paces itself by the host clock.

Public API:

* :class:`VirtualClock` — a monotonically advancing clock in tu.
* :class:`EventScheduler` — a discrete-event queue bound to a clock.
"""

from repro.simtime.clock import VirtualClock
from repro.simtime.scheduler import EventScheduler, ScheduledEvent

__all__ = [
    "VirtualClock",
    "EventScheduler",
    "ScheduledEvent",
]
