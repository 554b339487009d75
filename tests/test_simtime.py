"""The discrete-event scheduler."""

import pytest

from repro.simtime import EventScheduler


class TestEventScheduler:
    def test_pops_in_deadline_order(self):
        sched = EventScheduler()
        sched.push(5.0, "late")
        sched.push(1.0, "early")
        assert sched.pop().payload == "early"
        assert sched.pop().payload == "late"

    def test_fifo_tie_break(self):
        sched = EventScheduler()
        sched.push(1.0, "first")
        sched.push(1.0, "second")
        assert [e.payload for e in sched.drain()] == ["first", "second"]

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().push(-1.0, "x")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()

    def test_handler_may_push_more(self):
        sched = EventScheduler()
        sched.push(1.0, "seed")
        seen = []
        for event in sched.drain():
            seen.append(event.payload)
            if event.payload == "seed":
                spawned = sched.push(event.deadline + 1.0, "spawned")
        assert seen == ["seed", "spawned"]
        assert spawned.deadline == 2.0

    def test_clear(self):
        sched = EventScheduler()
        sched.push(1.0, "x")
        sched.clear()
        assert list(sched.drain()) == []


class TestExactDeadlineTies:
    """Regressions pinning FIFO order at equal deadlines.

    The parallel sweep executor gives every worker its own scheduler;
    byte-identity with the serial run requires that equal-deadline
    dispatch order is a pure function of push order.
    """

    def test_drain_until_keeps_fifo_order_for_equal_deadlines(self):
        sched = EventScheduler()
        for name in ("a", "b", "c"):
            sched.push(2.0, name)
        sched.push(1.0, "before")
        sched.push(3.0, "after")
        drained = [e.payload for e in sched.drain_until(2.0)]
        assert drained == ["before", "a", "b", "c"]
        assert [e.payload for e in sched.drain()] == ["after"]

    def test_drain_until_includes_boundary_pushes_in_fifo_order(self):
        """Events pushed mid-drain at exactly the boundary deadline are
        dispatched within the same drain, behind already-queued ties."""
        sched = EventScheduler()
        sched.push(5.0, "first")
        sched.push(5.0, "second")
        seen = []
        for event in sched.drain_until(5.0):
            seen.append(event.payload)
            if event.payload == "first":
                sched.push(5.0, "spawned-at-boundary")
        assert seen == ["first", "second", "spawned-at-boundary"]


class _NeverCompared:
    """A payload that fails the test if the heap ever orders by it."""

    def __init__(self, label):
        self.label = label

    def __lt__(self, other):
        raise AssertionError("the heap compared two payloads")

    __gt__ = __le__ = __ge__ = __lt__


class TestTupleHeap:
    """The heap holds ``(deadline, seqno, event)`` tuples: ordering is
    the tuples' own, the unique seqno decides every tie, and neither
    events nor payloads are ever compared."""

    @pytest.mark.parametrize(
        "deadline", [float("nan"), float("inf"), float("-inf"), -0.5]
    )
    def test_non_finite_or_negative_deadline_rejected(self, deadline):
        sched = EventScheduler()
        with pytest.raises(ValueError, match="finite and >= 0"):
            sched.push(deadline, "x")
        assert list(sched.drain()) == []

    def test_nan_cannot_corrupt_the_dispatch_order(self):
        """``nan < 0`` is false: the seed accepted nan deadlines and
        drained 5, nan, 1, 3, nan, 0.5 as 0.5, 1, 5, nan, nan, 3."""
        sched = EventScheduler()
        for deadline in (5.0, float("nan"), 1.0, 3.0, float("nan"), 0.5):
            try:
                sched.push(deadline, deadline)
            except ValueError:
                pass
        assert [e.deadline for e in sched.drain()] == [0.5, 1.0, 3.0, 5.0]

    def test_push_after_rejects_a_nan_delay(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.push(10.0 + float("nan"), "x")

    def test_zero_deadline_is_accepted(self):
        sched = EventScheduler()
        assert sched.push(0.0, "x").deadline == 0.0
        assert sched.push(0, "y").seqno == 1

    def test_equal_deadlines_with_unorderable_payloads_stay_fifo(self):
        sched = EventScheduler()
        payloads = [{"n": n} for n in range(6)]  # dicts define no ordering
        for payload in payloads:
            sched.push(4.0, payload)
        sched.push(1.0, {"n": "first"})
        drained = [e.payload for e in sched.drain()]
        assert drained == [{"n": "first"}, *payloads]

    def test_payloads_are_never_compared(self):
        sched = EventScheduler()
        for n in range(50):
            sched.push(float(n % 3), _NeverCompared(n))
        order = [(e.deadline, e.payload.label) for e in sched.drain()]
        assert order == sorted(order)

    def test_push_returns_the_event_pop_will_return(self):
        sched = EventScheduler()
        pushed = sched.push(2.0, "x")
        assert (pushed.deadline, pushed.seqno, pushed.payload) == (2.0, 0, "x")
        assert sched.pop() is pushed

    def test_pop_is_the_earliest_event_not_the_heap_entry(self):
        sched = EventScheduler()
        sched.push(5.0, "late")
        early = sched.push(1.0, "early")
        assert sched.pop() is early

    def test_drain_until_reads_the_deadline_of_the_heap_entry(self):
        sched = EventScheduler()
        for deadline in (3.0, 1.0, 2.0, 2.0):
            sched.push(deadline, {"at": deadline})
        assert [e.deadline for e in sched.drain_until(2.0)] == [1.0, 2.0, 2.0]
        assert sched.pop().deadline == 3.0

    def test_clear_drops_entries_and_keeps_sequence_numbers_unique(self):
        sched = EventScheduler()
        sched.push(1.0, "a")
        sched.push(1.0, "b")
        sched.clear()
        assert list(sched.drain_until(5.0)) == []
        assert sched.push(1.0, "c").seqno == 2
