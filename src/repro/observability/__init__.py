"""repro.observability: span tracing, run-wide metrics, exporters.

The benchmark's Monitor (Section VI) only sees finished instance
records; this package makes the *inside* of a run visible — operator
execution, DB/network calls, queue waits — as hierarchical spans on the
virtual timeline plus a shared metrics registry, with deterministic
exporters (JSONL spans, Chrome ``trace_event`` JSON for Perfetto, and
Prometheus text).  A half left ``None`` is off and costs nothing.

Quick start::

    from repro.parallel import RunSpec, client_from_spec

    client = client_from_spec(RunSpec(collect_trace=True, collect_metrics=True))
    client.run()
    obs = client.observability
    obs.write_chrome_trace("trace.json")   # open in ui.perfetto.dev
    print(obs.prometheus())
"""

from repro.observability.context import Observability
from repro.observability.export import (
    export_chrome_trace,
    export_prometheus,
    export_spans_jsonl,
)
from repro.observability.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    PAYLOAD_BUCKETS,
    QUEUE_WAIT_BUCKETS,
)
from repro.observability.profile import (
    ExecutionProfile,
    NetworkObservation,
    OperatorObservation,
)
from repro.observability.tracer import (
    Span,
    STATUS_ERROR,
    STATUS_OK,
    Tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "ExecutionProfile",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NetworkObservation",
    "Observability",
    "ObservabilityError",
    "OperatorObservation",
    "PAYLOAD_BUCKETS",
    "QUEUE_WAIT_BUCKETS",
    "STATUS_ERROR",
    "STATUS_OK",
    "Span",
    "Tracer",
    "export_chrome_trace",
    "export_prometheus",
    "export_spans_jsonl",
]
