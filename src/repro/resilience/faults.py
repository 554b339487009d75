"""Fault specs: a declarative, seeded schedule of fault events.

A :class:`FaultSpec` is the contract of one perturbation experiment: a
seed plus a list of :class:`FaultEvent` entries placed on the benchmark
period's virtual timeline (times in tu, like the Table II schedule).
The same spec and seed always produce the same fault timeline — the
resilience counterpart of the benchmark's reproducible workload scaling.

Event kinds:

``partition`` / ``heal``
    Cut or restore the link between two hosts (drives
    :meth:`Network.partition` / :meth:`Network.heal`).
``degrade`` / ``restore_link``
    Multiply the transfer cost of a host pair by ``factor`` (>= 1) or
    clear that degradation.
``outage`` / ``restore``
    Take a registered service endpoint offline / back online.
``engine_fault``
    Arm ``count`` consecutive transient failures for one process type:
    the next ``count`` instances raise :class:`TransientEngineFault`
    before executing, succeeding again once exhausted.
``corrupt``
    Corrupt the next ``count`` inbound messages of one process so
    delivery triggers a real :class:`XsdValidationError` (poison
    messages, routed to the dead-letter queue).
``crash``
    Hard-kill the engine at the next instance boundary after ``at``:
    ``point="arrival"`` crashes before the instance is admitted,
    ``point="commit"`` after it executed but before its effects commit
    (the in-flight work is lost).  Unlike every other kind, a crash is
    not absorbed by retries — it propagates to the benchmark client,
    which runs durable recovery (see :mod:`repro.storage`) and resumes
    the schedule.  Crash events therefore require a run with durability
    enabled.

Every event may carry ``duration`` (tu): the spec then expands it into
the paired recovery event (``heal``, ``restore_link`` or ``restore``)
at ``at + duration``.  ``period`` pins an event to one benchmark period;
without it the event recurs in every period.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.declare import knob, load, problems
from repro.errors import FaultSpecError
from repro.xmlkit.doc import XmlElement

#: Kinds that hit the network layer and need ``src``/``dst``.
_LINK_KINDS = ("partition", "heal", "degrade", "restore_link")
#: Kinds that hit a service endpoint and need ``service``.
_SERVICE_KINDS = ("outage", "restore")
#: Kinds that hit an engine/process and need ``process``.
_PROCESS_KINDS = ("engine_fault", "corrupt")
#: Kinds that kill the engine itself (durable recovery required).
_CRASH_KINDS = ("crash",)

FAULT_KINDS = _LINK_KINDS + _SERVICE_KINDS + _PROCESS_KINDS + _CRASH_KINDS

#: Valid instance boundaries a ``crash`` event may target.
CRASH_POINTS = ("arrival", "commit")

#: The recovery event implied by ``duration``, per kind.
_RECOVERY_OF = {
    "partition": "heal",
    "degrade": "restore_link",
    "outage": "restore",
}

#: The fault each recovery kind closes (inverse of :data:`_RECOVERY_OF`).
_FAULT_OF = {recovery: fault for fault, recovery in _RECOVERY_OF.items()}


@dataclass(frozen=True)
class _FaultWindow:
    """One active-fault interval on a period timeline.

    ``end`` is the implied recovery time (``at + duration``), the time
    of the first matching explicit recovery event, or ``inf`` for a
    fault the spec never recovers (active to period end).
    """

    event: FaultEvent
    kind: str
    target: tuple
    start: float
    end: float

    def overlaps(self, other: "_FaultWindow") -> bool:
        # Strict overlap: a fault starting exactly at another's recovery
        # time is sequential, not simultaneous.
        return self.start < other.end and other.start < self.end

    def contains(self, at: float) -> bool:
        return self.start <= at < self.end


@dataclass(frozen=True)
class FaultEvent:
    """One fault on the period timeline (``at`` in tu)."""

    at: float = knob(bounds="[0, inf)", help="time on the period timeline, in tu",
                     complaint="time must be >= 0 and finite, got at={value}")
    kind: str = knob(choices=FAULT_KINDS, help="what happens (table above)",
                     complaint="unknown kind {value!r}; known: {choices}")
    src: str = knob("", help="one end of the link (link kinds)")
    dst: str = knob("", help="the other end of the link (link kinds)")
    service: str = knob("", help="the endpoint (service kinds)")
    process: str = knob("", help="the process id (process kinds)")
    count: int = knob(
        1, bounds="[1, inf)", help="failures to arm / messages to corrupt "
        "(process kinds)", complaint="count must be >= 1, got {value}",
    )
    factor: float = knob(
        2.0, bounds="[1, inf)", help="transfer-cost multiplier (`degrade`)",
        complaint="degradation factor must be >= 1 and finite, got {value}",
    )
    duration: float | None = knob(
        None, bounds="(0, inf)", help="expands into the paired recovery event "
        "at `at + duration`", complaint="duration must be > 0 and finite, got {value}",
    )
    period: int | None = knob(
        None, bounds="[0, inf)", help="pins the event to one benchmark period; "
        "unset, it recurs every period", complaint="period must be >= 0, got {value}",
    )
    point: str = knob(
        "arrival", choices=CRASH_POINTS, help="crash boundary (`crash`)",
        complaint="crash point must be one of {choices}, got {value!r}",
    )

    def validate(self) -> list[str]:
        """Static problems with this event (empty list = valid): the
        declared ranges, then what each kind needs."""
        where = f"event at t={self.at} ({self.kind or '?'})"
        found = [f"{where}: {problem}" for problem in problems(self)]
        if self.kind not in FAULT_KINDS:
            return found
        if self.kind in _LINK_KINDS and not (self.src and self.dst):
            found.append(f"{where}: needs src and dst hosts")
        if self.kind in _SERVICE_KINDS and not self.service:
            found.append(f"{where}: needs a service name")
        if self.kind in _PROCESS_KINDS and not self.process:
            found.append(f"{where}: needs a process id")
        if self.duration is not None and self.kind not in _RECOVERY_OF:
            found.append(
                f"{where}: duration only applies to {sorted(_RECOVERY_OF)}"
            )
        return found

    def recovery(self) -> "FaultEvent | None":
        """The paired recovery event implied by ``duration``, if any."""
        if self.duration is None or self.kind not in _RECOVERY_OF:
            return None
        return replace(
            self,
            at=self.at + self.duration,
            kind=_RECOVERY_OF[self.kind],
            duration=None,
        )

    def describe(self) -> str:
        scope = "p*" if self.period is None else f"p{self.period}"
        if self.kind in _LINK_KINDS:
            target = f"{self.src}<->{self.dst}"
            if self.kind == "degrade":
                target += f" x{self.factor:g}"
        elif self.kind in _SERVICE_KINDS:
            target = f"service={self.service}"
        elif self.kind in _CRASH_KINDS:
            target = f"engine at {self.point}"
        else:
            target = f"process={self.process} count={self.count}"
        tail = f" for {self.duration:g}tu" if self.duration is not None else ""
        return f"t={self.at:8.1f}  [{scope}]  {self.kind:<12} {target}{tail}"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        return load(cls, data, FaultSpecError)


@dataclass(frozen=True)
class FaultSpec:
    """A named, seeded fault schedule (the JSON file the CLI consumes)."""

    name: str = knob("faults", help="the spec's name in reports")
    seed: int = knob(0, help="seed of the injector's own draws")
    events: tuple[FaultEvent, ...] = knob(
        (), help="the fault events (table below)", of=FaultEvent
    )

    def validate(
        self,
        hosts: Iterable[str] | None = None,
        services: Iterable[str] | None = None,
        processes: Iterable[str] | None = None,
    ) -> list[str]:
        """All problems with this spec; optionally cross-checked against
        the known hosts/services/process ids of a scenario."""
        problems: list[str] = []
        for event in self.events:
            problems.extend(event.validate())
        hosts = set(hosts) if hosts is not None else None
        services = set(services) if services is not None else None
        processes = set(processes) if processes is not None else None
        for event in self.events:
            where = f"event at t={event.at} ({event.kind})"
            if hosts is not None and event.kind in _LINK_KINDS:
                for host in (event.src, event.dst):
                    if host and host not in hosts:
                        problems.append(
                            f"{where}: unknown host {host!r}; "
                            f"known: {sorted(hosts)}"
                        )
            if services is not None and event.kind in _SERVICE_KINDS:
                if event.service and event.service not in services:
                    problems.append(
                        f"{where}: unknown service {event.service!r}"
                    )
            if processes is not None and event.kind in _PROCESS_KINDS:
                if event.process and event.process not in processes:
                    problems.append(
                        f"{where}: unknown process {event.process!r}"
                    )
        problems.extend(self.timeline_problems())
        return problems

    # -- timeline consistency -----------------------------------------------------

    @staticmethod
    def _window_target(event: FaultEvent) -> tuple:
        if event.kind in _LINK_KINDS:
            return tuple(sorted((event.src, event.dst)))
        return (event.service,)

    def _windows(self, period: int | None) -> list[_FaultWindow]:
        """The active-fault intervals of one period scope.

        A window opens at a ``partition``/``degrade``/``outage`` event
        and closes at ``at + duration``, at the first later explicit
        recovery event for the same target, or never (``inf``).
        """
        events = sorted(
            (
                event
                for event in self.events
                if event.period is None or event.period == period
            ),
            key=lambda e: e.at,
        )
        windows: list[_FaultWindow] = []
        for index, event in enumerate(events):
            if event.kind not in _RECOVERY_OF:
                continue
            target = self._window_target(event)
            if event.duration is not None:
                end = event.at + event.duration
            else:
                end = math.inf
                for later in events[index + 1:]:
                    if (
                        _FAULT_OF.get(later.kind) == event.kind
                        and self._window_target(later) == target
                        and later.at >= event.at
                    ):
                        end = later.at
                        break
            windows.append(
                _FaultWindow(event, event.kind, target, event.at, end)
            )
        return windows

    def timeline_problems(self, engine_host: str = "IS") -> list[str]:
        """Overlapping or contradictory faults on the period timeline.

        Three rules, each error naming both offending events:

        * two same-kind faults on the same endpoint must not overlap
          (e.g. a second ``outage`` of a service already down);
        * a ``degrade`` of a severed link is contradictory — a
          partitioned link has no transfer cost to multiply;
        * a ``crash`` inside an active ``partition`` window involving
          the engine host is contradictory — the failure detector's
          heartbeats could not have reached the dead host anyway.
        """
        problems: list[str] = []
        scopes = sorted(
            {event.period for event in self.events if event.period is not None}
        ) or [None]
        seen: set[tuple] = set()
        for scope in scopes:
            windows = self._windows(scope)
            for i, a in enumerate(windows):
                for b in windows[i + 1:]:
                    if a.target != b.target or not a.overlaps(b):
                        continue
                    kinds = {a.kind, b.kind}
                    if a.kind == b.kind:
                        reason = (
                            f"overlapping {a.kind} faults on the same "
                            f"endpoint"
                        )
                    elif kinds == {"partition", "degrade"}:
                        reason = (
                            "contradictory faults: cannot degrade a "
                            "partitioned link"
                        )
                    else:
                        continue
                    key = (reason, a.event, b.event)
                    if key in seen:
                        continue
                    seen.add(key)
                    problems.append(
                        f"{reason}: [{a.event.describe().strip()}] "
                        f"conflicts with [{b.event.describe().strip()}]"
                    )
            for event in self.events:
                if event.kind not in _CRASH_KINDS:
                    continue
                if event.period is not None and event.period != scope:
                    continue
                for window in windows:
                    if (
                        window.kind == "partition"
                        and engine_host in window.target
                        and window.contains(event.at)
                    ):
                        key = ("crash-in-partition", event, window.event)
                        if key in seen:
                            continue
                        seen.add(key)
                        problems.append(
                            f"contradictory faults: crash during an "
                            f"active partition of the engine host "
                            f"{engine_host!r}: "
                            f"[{event.describe().strip()}] conflicts "
                            f"with [{window.event.describe().strip()}]"
                        )
        return problems

    @property
    def has_crashes(self) -> bool:
        """True when the spec schedules at least one engine crash
        (such runs must enable durability)."""
        return any(event.kind in _CRASH_KINDS for event in self.events)

    def timeline(self, period: int | None = None) -> list[FaultEvent]:
        """The effective events of one period (every period's when None),
        recoveries expanded, in (time, declaration order)."""
        expanded = [
            effective
            for event in self.events
            if period is None or event.period is None or event.period == period
            for effective in (event, event.recovery())
            if effective is not None
        ]
        # Python's sort is stable: ties keep declaration/expansion order.
        return sorted(expanded, key=lambda e: e.at)

    def describe(self) -> str:
        lines = [
            f"fault spec {self.name!r} (seed {self.seed}): "
            f"{len(self.events)} declared event(s)"
        ]
        lines.extend("  " + event.describe() for event in self.timeline())
        return "\n".join(lines)

    # -- JSON ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """A parsed JSON document as a spec; raises one
        :class:`FaultSpecError` listing every structural problem."""
        return load(cls, data, FaultSpecError)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"fault spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except (OSError, FaultSpecError) as exc:
            raise FaultSpecError(
                f"cannot load fault spec {path}: {exc}"
            ) from None


def corrupt_document(document: XmlElement, rng) -> str:
    """Deterministically mutate ``document`` so it violates its XSD.

    Two modes, chosen by the injector's seeded ``rng``: drop a required
    attribute from the root (when it has one), or append an undeclared
    child element.  Returns a short description of the mutation.
    """
    if document.attributes and rng.random() < 0.5:
        victim = sorted(document.attributes)[0]
        del document.attributes[victim]
        return f"dropped root attribute {victim!r}"
    document.add(XmlElement("__Corrupted__", text="injected"))
    return "appended undeclared element <__Corrupted__>"
