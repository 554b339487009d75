"""Deterministic network model between named hosts.

Communication cost of one transfer is::

    latency + payload_units / bandwidth   [tu]

where ``payload_units`` is a size measure chosen by the caller (rows for
relational transfers, element count for XML messages).  An optional seeded
jitter models the variance of the paper's wireless links; with jitter off,
runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import NetworkError
from repro.observability.metrics import (
    MetricsRegistry,
    PAYLOAD_BUCKETS,
)


@dataclass(frozen=True)
class Link:
    """Directed link parameters between two hosts."""

    latency: float  # fixed cost per transfer, in tu
    bandwidth: float  # payload units per tu

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise NetworkError(f"negative latency: {self.latency}")
        if self.bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive: {self.bandwidth}")


class Network:
    """Host topology with per-pair links and an optional jitter model.

    >>> net = Network(default_link=Link(latency=2.0, bandwidth=100.0))
    >>> net.add_host("ES"); net.add_host("IS")
    >>> round(net.transfer_cost("IS", "ES", payload_units=50), 2)
    2.5
    """

    def __init__(
        self,
        default_link: Link = Link(latency=1.0, bandwidth=200.0),
        jitter: float = 0.0,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        if not 0.0 <= jitter < 1.0:
            raise NetworkError(f"jitter must be in [0, 1): {jitter}")
        self.default_link = default_link
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._hosts: set[str] = set()
        self._links: dict[tuple[str, str], Link] = {}
        self._partitioned: set[tuple[str, str]] = set()
        #: Degradation factors per directed pair (failure injection):
        #: transfer cost is multiplied by the factor while present.
        self._degraded: dict[tuple[str, str], float] = {}
        # Transfer statistics live in a metrics registry (private by
        # default, shared with the run's Observability when bound), so
        # the benchmark's communication statistics and the observability
        # exports come from one set of instruments.
        self.bind_metrics(metrics or MetricsRegistry())

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register this network's instruments into ``registry``."""
        self._metrics = registry
        self._m_transfers = registry.counter(
            "network_transfers_total",
            help="Cross-host transfers routed through the network model",
        )
        self._m_payload = registry.counter(
            "network_payload_units_total",
            help="Payload units moved across hosts",
        )
        self._m_payload_hist = registry.histogram(
            "network_payload_units",
            buckets=PAYLOAD_BUCKETS,
            help="Per-transfer payload size in payload units",
        )
        self._m_partition_errors = registry.counter(
            "network_partition_errors_total",
            help="Transfers refused because the host pair was partitioned",
        )
        self._m_degraded = registry.counter(
            "network_degraded_transfers_total",
            help="Transfers that paid a link-degradation surcharge",
        )

    @property
    def transfer_count(self) -> int:
        """Cross-host transfers made (same-host hops are free and not counted)."""
        return int(self._m_transfers.value)

    @property
    def payload_units_total(self) -> float:
        """Payload units moved across hosts."""
        return self._m_payload.value

    def add_host(self, name: str) -> None:
        if not name:
            raise NetworkError("host needs a name")
        self._hosts.add(name)

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    @property
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def set_link(self, src: str, dst: str, link: Link, symmetric: bool = True) -> None:
        """Override the link parameters for a host pair."""
        self._require(src)
        self._require(dst)
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def partition(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Cut the connection (failure injection)."""
        self._require(src)
        self._require(dst)
        self._partitioned.add((src, dst))
        if symmetric:
            self._partitioned.add((dst, src))

    def heal(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Undo :meth:`partition`; link parameters revert to their prior
        values (overrides set with :meth:`set_link` survive a partition)."""
        self._partitioned.discard((src, dst))
        if symmetric:
            self._partitioned.discard((dst, src))

    def degrade(self, src: str, dst: str, factor: float, symmetric: bool = True) -> None:
        """Multiply the pair's transfer cost by ``factor`` (>= 1).

        Models link-quality loss short of a full partition (the paper's
        wireless links under interference).  Repeated calls replace, not
        stack, the factor.
        """
        self._require(src)
        self._require(dst)
        if factor < 1.0:
            raise NetworkError(f"degradation factor must be >= 1: {factor}")
        self._degraded[(src, dst)] = factor
        if symmetric:
            self._degraded[(dst, src)] = factor

    def restore_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Undo :meth:`degrade`; the link's prior cost applies again."""
        self._degraded.pop((src, dst), None)
        if symmetric:
            self._degraded.pop((dst, src), None)

    def is_partitioned(self, src: str, dst: str) -> bool:
        return (src, dst) in self._partitioned

    def degradation(self, src: str, dst: str) -> float:
        """The active cost multiplier for a directed pair (1.0 = clean)."""
        return self._degraded.get((src, dst), 1.0)

    def _require(self, host: str) -> None:
        if host not in self._hosts:
            raise NetworkError(f"unknown host {host!r}; known: {self.hosts}")

    def link_between(self, src: str, dst: str) -> Link:
        return self._links.get((src, dst), self.default_link)

    def transfer_cost(self, src: str, dst: str, payload_units: float) -> float:
        """Cost in tu of moving ``payload_units`` from ``src`` to ``dst``.

        Same-host transfers are free and excluded from the transfer
        statistics (they cost 0 tu, so counting them would inflate the
        benchmark's communication numbers).  Raises :class:`NetworkError`
        when the pair is partitioned.
        """
        hosts = self._hosts
        if src not in hosts or dst not in hosts:
            self._require(src)
            self._require(dst)
        if payload_units < 0:
            raise NetworkError(f"negative payload: {payload_units}")
        pair = (src, dst)
        if pair in self._partitioned:
            self._m_partition_errors.inc()
            raise NetworkError(f"network partition between {src} and {dst}")
        if src == dst:
            return 0.0
        self._m_transfers.inc()
        self._m_payload.inc(payload_units)
        self._m_payload_hist.observe(payload_units)
        link = self._links.get(pair, self.default_link)
        cost = link.latency + payload_units / link.bandwidth
        if self.jitter:
            # Multiplicative jitter in [1 - j, 1 + j].
            cost *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        degradation = self._degraded.get(pair)
        if degradation is not None:
            cost *= degradation
            self._m_degraded.inc()
        return cost
