"""The Observability bundle threaded through the toolsuite.

One object carries the run's :class:`Tracer` and
:class:`MetricsRegistry`; subsystems take it as an optional constructor
argument (or have it attached by the :class:`BenchmarkClient`).  Either
half may be ``None``, which is how that half is switched off: every
instrumentation point guards on the half it touches, so an unobserved
run builds no tracer, no span and no instrument.
"""

from __future__ import annotations

from repro.ioutil import write_text_atomic
from repro.observability.export import (
    export_chrome_trace,
    export_prometheus,
    export_spans_jsonl,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer


class Observability:
    """Tracer + metrics registry for one benchmark run.

    >>> obs = Observability(Tracer(), MetricsRegistry())  # both on
    >>> off = Observability()                             # both off
    >>> off.tracer is None and off.metrics is None
    True
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer
        self.metrics = metrics

    # -- export convenience (each needs its half on) -----------------------------

    def spans_jsonl(self) -> str:
        return export_spans_jsonl(self.tracer)

    def chrome_trace(self) -> str:
        return export_chrome_trace(self.tracer)

    def prometheus(self) -> str:
        return export_prometheus(self.metrics)

    def write_chrome_trace(self, path: str) -> None:
        write_text_atomic(path, self.chrome_trace())

    def write_spans_jsonl(self, path: str) -> None:
        write_text_atomic(path, self.spans_jsonl())

    def write_prometheus(self, path: str) -> None:
        write_text_atomic(path, self.prometheus())
