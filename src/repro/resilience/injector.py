"""The FaultInjector: executes a FaultSpec on the virtual timeline.

The injector arms one :class:`~repro.simtime.scheduler.EventScheduler`
per benchmark period with the spec's events (times converted from tu to
engine units through the run's scale factors) and applies every event
whose deadline has passed whenever the engine or client advances virtual
time (``advance_to``).  Application is purely deterministic: the same
spec, seed and schedule always perturb the same transfers, calls and
instances.

State it owns:

* link faults it applied (healed automatically at period end),
* endpoint outages (restored at period end),
* armed transient engine faults per process type,
* armed message corruptions per process type, and the corrupted
  message ids with the XSD each should be validated against.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping

from repro.resilience.faults import FaultEvent, FaultSpec, corrupt_document
from repro.simtime.scheduler import EventScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.mtm.message import Message
    from repro.observability.metrics import MetricsRegistry
    from repro.services.registry import ServiceRegistry
    from repro.toolsuite.schedule import ScaleFactors
    from repro.xmlkit.xsd import XsdSchema


class FaultInjector:
    """Drives a :class:`FaultSpec` against one benchmark run."""

    def __init__(
        self,
        spec: FaultSpec,
        registry: "ServiceRegistry",
        factors: "ScaleFactors | None" = None,
        schemas: Mapping[str, "XsdSchema"] | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.spec = spec
        self.registry = registry
        self.network = registry.network
        self.factors = factors
        #: message_type -> inbound XSD, for corruption validation.
        self.schemas = dict(schemas or {})
        self._metrics = metrics
        self._scheduler = EventScheduler()
        self._rng = random.Random(spec.seed)
        self._period = -1
        #: Link faults currently applied: (src, dst) -> kind.
        self._cut_links: set[tuple[str, str]] = set()
        self._degraded_links: set[tuple[str, str]] = set()
        #: Services currently offline.
        self._down_services: set[str] = set()
        #: Armed transient failures / corruptions per process id.
        self._engine_faults: dict[str, int] = {}
        self._corruptions: dict[str, int] = {}
        #: message_id -> schema for messages this injector corrupted.
        self._corrupted_messages: dict[int, "XsdSchema | None"] = {}
        #: Armed engine crash: the boundary ("arrival"/"commit") the next
        #: instance will die at, or None.
        self._pending_crash: str | None = None
        self.injected_events = 0

    # -- period lifecycle ------------------------------------------------------

    def _to_engine(self, tu: float) -> float:
        return self.factors.tu_to_engine(tu) if self.factors is not None else tu

    def begin_period(self, period: int) -> None:
        """Heal everything, then arm this period's fault timeline."""
        self.end_period()
        self._period = period
        # Per-period RNG stream: deterministic in (seed, period) only.
        self._rng = random.Random(self.spec.seed + 7919 * period)
        self._scheduler = EventScheduler()
        for event in self.spec.timeline(period):
            self._scheduler.push(self._to_engine(event.at), event)

    def end_period(self) -> None:
        """Undo every still-applied fault so the next period starts clean."""
        for src, dst in sorted(self._cut_links):
            self.network.heal(src, dst, symmetric=False)
        for src, dst in sorted(self._degraded_links):
            self.network.restore_link(src, dst, symmetric=False)
        for service in sorted(self._down_services):
            self.registry.lookup(service).available = True
        self._cut_links.clear()
        self._degraded_links.clear()
        self._down_services.clear()
        self._engine_faults.clear()
        self._corruptions.clear()
        self._corrupted_messages.clear()
        self._pending_crash = None
        self._scheduler.clear()

    # -- time ------------------------------------------------------------------

    def advance_to(self, now: float) -> None:
        """Apply every fault event due at or before ``now``."""
        for scheduled in self._scheduler.drain_until(now):
            self._apply(scheduled.payload)

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "partition":
            self.network.partition(event.src, event.dst)
            self._cut_links.add((event.src, event.dst))
            self._cut_links.add((event.dst, event.src))
        elif kind == "heal":
            self.network.heal(event.src, event.dst)
            self.network.restore_link(event.src, event.dst)
            self._cut_links.discard((event.src, event.dst))
            self._cut_links.discard((event.dst, event.src))
            self._degraded_links.discard((event.src, event.dst))
            self._degraded_links.discard((event.dst, event.src))
        elif kind == "degrade":
            self.network.degrade(event.src, event.dst, event.factor)
            self._degraded_links.add((event.src, event.dst))
            self._degraded_links.add((event.dst, event.src))
        elif kind == "restore_link":
            self.network.restore_link(event.src, event.dst)
            self._degraded_links.discard((event.src, event.dst))
            self._degraded_links.discard((event.dst, event.src))
        elif kind == "outage":
            self.registry.lookup(event.service).available = False
            self._down_services.add(event.service)
        elif kind == "restore":
            self.registry.lookup(event.service).available = True
            self._down_services.discard(event.service)
        elif kind == "engine_fault":
            self._engine_faults[event.process] = (
                self._engine_faults.get(event.process, 0) + event.count
            )
        elif kind == "corrupt":
            self._corruptions[event.process] = (
                self._corruptions.get(event.process, 0) + event.count
            )
        elif kind == "crash":
            self._pending_crash = event.point
        self.injected_events += 1
        if self._metrics is not None:
            self._metrics.counter(
                "faults_injected_total",
                help="Fault events applied by the injector",
                labels={"kind": kind},
            ).inc()

    # -- engine-facing hooks ---------------------------------------------------

    def take_crash(self, point: str) -> bool:
        """Consume the armed crash if it targets ``point``.

        Called by the engine at each instance boundary; the first
        boundary of the matching kind after the event's time fires it.
        """
        if self._pending_crash != point:
            return False
        self._pending_crash = None
        return True

    def take_engine_fault(self, process_id: str) -> bool:
        """Consume one armed transient failure for ``process_id``."""
        remaining = self._engine_faults.get(process_id, 0)
        if remaining <= 0:
            return False
        self._engine_faults[process_id] = remaining - 1
        return True

    def maybe_corrupt(self, process_id: str, message: "Message") -> bool:
        """Corrupt ``message`` if a corruption is armed for its process."""
        remaining = self._corruptions.get(process_id, 0)
        if remaining <= 0 or not message.is_xml:
            return False
        self._corruptions[process_id] = remaining - 1
        mutation = corrupt_document(message.xml(), self._rng)
        message.headers["corrupted"] = mutation
        self._corrupted_messages[message.message_id] = self.schemas.get(
            message.message_type
        )
        if self._metrics is not None:
            self._metrics.counter(
                "faults_corrupted_messages_total",
                help="Messages corrupted by the fault injector",
                labels={"process": process_id},
            ).inc()
        return True

    def corruption_schema(self, message: "Message") -> "XsdSchema | None":
        """The XSD a corrupted message must be validated against, if any."""
        return self._corrupted_messages.get(message.message_id)
