"""Run-wide metrics registry: counters, gauges, fixed-bucket histograms.

Subsystems register named instruments here instead of keeping private
counters (the Monitor of Section VI "handles and stores collected
statistics" — this registry is where those statistics accumulate while
the run is still in flight).  Instruments are identified by name plus an
optional frozen label set, Prometheus-style; the text exposition lives in
:mod:`repro.observability.export`.

Everything is deterministic: no wall-clock timestamps, no sampling —
two identical virtual-time runs produce identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

from repro.errors import ReproError


class ObservabilityError(ReproError):
    """Instrument misuse: type clashes, bad buckets, negative increments."""


#: Default histogram buckets (upper bounds) for cost/duration-like values
#: in tu; chosen to straddle the paper's per-instance cost range.
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

#: Queue-wait buckets: most instances start immediately, the tail is the
#: interesting part (time-scale pressure turning into waiting).
QUEUE_WAIT_BUCKETS = (0.0, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0)

#: Payload-size buckets in payload units (rows / XML elements).
PAYLOAD_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common identity of one registered instrument."""

    instrument_type = "untyped"

    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str = "", labels: _LabelKey = ()):
        self.name = name
        self.help = help
        self.labels = labels

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name}{{{labels}}})"


class Counter(Instrument):
    """Monotonically increasing value (events, payload units moved)."""

    instrument_type = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, help: str = "", labels: _LabelKey = ()):
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge(Instrument):
    """A value that can move both ways (queue depth, high-water marks)."""

    instrument_type = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, help: str = "", labels: _LabelKey = ()):
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark of ``value``."""
        if value > self.value:
            self.value = float(value)


class Histogram(Instrument):
    """Fixed-bucket histogram (cumulative on export, like Prometheus).

    ``buckets`` are the finite upper bounds; an implicit +Inf bucket
    catches the remainder.  ``counts[i]`` is the number of observations
    with ``value <= buckets[i]`` exclusive of earlier buckets (plain,
    not cumulative — the exporter accumulates).
    """

    instrument_type = "histogram"

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        labels: _LabelKey = (),
    ):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs buckets")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name} buckets must be strictly increasing: {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Counts as cumulative ``le`` totals, +Inf last."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Get-or-create instrument store shared by all subsystems of a run.

    >>> reg = MetricsRegistry()
    >>> reg.counter("network_transfers_total").inc()
    >>> reg.counter("network_transfers_total").value
    1.0
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, _LabelKey], Instrument] = {}

    def _get_or_create(
        self,
        cls: type[Instrument],
        name: str,
        help: str,
        labels: Mapping[str, str] | None,
        **kwargs,
    ) -> Instrument:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, help=help, labels=key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ObservabilityError(
                f"{name} already registered as {instrument.instrument_type}, "
                f"not {cls.instrument_type}"
            )
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def collect(self) -> list[Instrument]:
        """All instruments in (name, labels) order."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def merge(self, shard: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        The parallel sweep executor gives every worker its own registry
        (no cross-process shared state); the parent merges the returned
        shards back in deterministic grid order.  Merge semantics per
        instrument type: counters add, histograms add bucket-wise (the
        bucket bounds must match), gauges keep the maximum — every gauge
        in this codebase is a high-water mark, and a maximum is the only
        merge that stays order-independent for them.
        """
        for theirs in shard.collect():
            labels = theirs.label_dict
            if isinstance(theirs, Histogram):
                mine = self.histogram(
                    theirs.name, buckets=theirs.buckets,
                    help=theirs.help, labels=labels,
                )
                if mine.buckets != theirs.buckets:
                    raise ObservabilityError(
                        f"histogram {theirs.name} bucket mismatch: "
                        f"{mine.buckets} vs {theirs.buckets}"
                    )
                for i, count in enumerate(theirs.counts):
                    mine.counts[i] += count
                mine.sum += theirs.sum
                mine.count += theirs.count
            elif isinstance(theirs, Gauge):
                self.gauge(
                    theirs.name, help=theirs.help, labels=labels
                ).set_max(theirs.value)
            elif isinstance(theirs, Counter):
                self.counter(
                    theirs.name, help=theirs.help, labels=labels
                ).inc(theirs.value)
            else:  # pragma: no cover - no further instrument types exist
                raise ObservabilityError(
                    f"cannot merge instrument type {type(theirs).__name__}"
                )

    def snapshot(self) -> dict[str, float]:
        """Flat name{labels} → value view (histograms expose sum/count)."""
        out: dict[str, float] = {}
        for instrument in self.collect():
            labels = ",".join(f"{k}={v}" for k, v in instrument.labels)
            suffix = f"{{{labels}}}" if labels else ""
            if isinstance(instrument, Histogram):
                out[f"{instrument.name}{suffix}.sum"] = instrument.sum
                out[f"{instrument.name}{suffix}.count"] = float(instrument.count)
            else:
                out[f"{instrument.name}{suffix}"] = instrument.value
        return out
