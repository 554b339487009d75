"""Span-based tracing under virtual time.

A span is one named interval on the benchmark's virtual timeline
(run → period → stream → instance → operator / network transfer).  All
times are *virtual* engine units, never wall clock, so traces are
bit-for-bit reproducible across runs with the same seed.

Because each benchmark period restarts its virtual clock at zero, the
tracer carries a ``time_offset`` the benchmark client advances between
periods; spans record offset-adjusted times, giving one globally
monotone timeline that the Chrome-trace exporter can lay out directly.

Tracing off is no tracer at all: instrumented sites hold ``None`` and
skip their span calls, so a run that traces nothing builds no span.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator, Mapping

#: Span status values (mirrors InstanceRecord.status).
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One interval on the virtual timeline.

    ``end_time`` is ``None`` while the span is open.  Times already
    include the tracer's ``time_offset`` at creation/finish time.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start_time",
        "end_time",
        "status",
        "error",
        "attributes",
        "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        kind: str,
        start_time: float,
        tracer: "Tracer",
        attributes: Mapping[str, object] | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start_time = start_time
        self.end_time: float | None = None
        self.status = STATUS_OK
        self.error = ""
        self.attributes: dict[str, object] = dict(attributes or {})
        self._tracer = tracer

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def end(self, at: float, status: str = STATUS_OK, error: str = "") -> None:
        """Finish the span at virtual time ``at`` (tracer offset applies)."""
        self._tracer._finish(self, at, status, error)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (the JSONL exporter's row)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start_time,
            "end": self.end_time,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"[{self.start_time}, {self.end_time}], {self.status})"
        )


class Tracer:
    """Produces hierarchical spans; keeps an explicit parent stack.

    ``begin`` opens a span and (by default) makes it the current parent;
    ``record`` adds an already-finished child without touching the stack;
    ``use_parent`` temporarily reparents — the benchmark client uses it
    to attach engine-emitted instance spans to the right stream span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        #: Added to every recorded time: the client advances this between
        #: benchmark periods so per-period virtual clocks (which restart
        #: at zero) line up on one global timeline.
        self.time_offset = 0.0

    # -- span creation -------------------------------------------------------

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def begin(
        self,
        name: str,
        start: float,
        kind: str = "span",
        parent: Span | None = None,
        attributes: Mapping[str, object] | None = None,
        activate: bool = True,
    ) -> Span:
        """Open a span starting at virtual time ``start``."""
        if parent is None:
            parent = self.current
        span = Span(
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            kind,
            start + self.time_offset,
            tracer=self,
            attributes=attributes,
        )
        self.spans.append(span)
        if activate:
            self._stack.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        kind: str = "span",
        parent: Span | None = None,
        attributes: Mapping[str, object] | None = None,
        status: str = STATUS_OK,
        error: str = "",
    ) -> Span:
        """Add a complete span without making it current."""
        span = self.begin(
            name, start, kind=kind, parent=parent,
            attributes=attributes, activate=False,
        )
        self._finish(span, end, status, error)
        return span

    def _finish(self, span: Span, at: float, status: str, error: str) -> None:
        span.end_time = at + self.time_offset
        if span.end_time < span.start_time:
            # Clamp pathological inputs instead of corrupting the timeline.
            span.end_time = span.start_time
        span.status = status
        span.error = error
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def use_parent(self, span: Span | None) -> Iterator[None]:
        """Temporarily make ``span`` the current parent."""
        if span is None:
            yield
            return
        self._stack.append(span)
        try:
            yield
        finally:
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:  # pragma: no cover - defensive
                self._stack.remove(span)

    # -- queries -------------------------------------------------------------

    def spans_of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]
