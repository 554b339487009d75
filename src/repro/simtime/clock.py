"""The virtual clock, in abstract time units (tu)."""

from __future__ import annotations


class VirtualClock:
    """Deterministic clock: time moves only when told to.

    All engine cost accounting and all schedule deadlines are expressed in
    tu.  The time scale factor of the benchmark maps tu to milliseconds
    (``1 tu = 1/t ms``), but nothing in the engine depends on that mapping.

    >>> clock = VirtualClock()
    >>> clock.now()
    0.0
    >>> clock.advance(2.5)
    2.5
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError(f"clock cannot start before 0, got {start}")
        self._now = float(start)

    def now(self) -> float:
        """The current time in tu."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move forward by ``delta`` tu and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance a clock by {delta} tu")
        self._now += delta
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance to ``deadline`` if it lies in the future; never go back."""
        delta = deadline - self.now()
        if delta > 0:
            self.advance(delta)
        return self.now()

    def reset(self, start: float = 0.0) -> None:
        """Rewind to ``start``; only meaningful between benchmark periods."""
        self._now = float(start)
