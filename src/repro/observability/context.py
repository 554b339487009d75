"""The Observability bundle threaded through the toolsuite.

One object carries the run's :class:`Tracer` and
:class:`MetricsRegistry`; subsystems take it as an optional constructor
argument (or have it attached by the :class:`BenchmarkClient`) and fall
back to the shared disabled bundle, which makes every instrumentation
point a no-op.
"""

from __future__ import annotations

from repro.ioutil import write_text_atomic
from repro.observability.export import (
    export_chrome_trace,
    export_prometheus,
    export_spans_jsonl,
)
from repro.observability.metrics import MetricsRegistry, NullMetricsRegistry
from repro.observability.tracer import NullTracer, Tracer


class Observability:
    """Tracer + metrics registry for one benchmark run.

    >>> obs = Observability()           # tracing + metrics on
    >>> off = Observability.disabled()  # the zero-overhead default
    >>> off.enabled
    False
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """A fresh all-null bundle (NullTracer + NullMetricsRegistry)."""
        return cls(NullTracer(), NullMetricsRegistry())

    # -- export convenience ---------------------------------------------------

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


#: Shared disabled bundle for subsystems constructed without one.  Null
#: tracers/registries store nothing, so sharing one instance is safe.
DISABLED = Observability.disabled()
