"""Admission control: token buckets, tenant quotas, queue backpressure.

Decides — *before* any landscape is built — whether a translated
session may enter the bounded request queue.  Three independent gates,
checked in order of increasing specificity, each with its own stable
rejection reason so 429 accounting can be asserted per class:

``queue-full``
    The server-wide request queue is at capacity.  Global backpressure:
    no tenant may enqueue, whatever its own budget says.
``rate-limited``
    The tenant's token bucket is empty (sustained rate above its
    per-second allowance, burst exhausted).
``tenant-quota``
    The tenant already has its maximum number of sessions in flight
    (queued + running) — the concurrency quota.

The clock is injected so tests drive admission deterministically;
the server passes ``time.monotonic``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.declare import knob, parse_pairs, problems, refuse
from repro.errors import AdmissionRejected, ServeError, UnknownTenant


@dataclass(frozen=True)
class TenantPolicy:
    """Admission knobs of one tenant."""

    name: str = knob(help="the tenant")
    rate: float = knob(50.0, help="sustained session admissions per second",
                       bounds="(0, inf)")
    burst: float = knob(10.0, help="bucket capacity: sessions that may arrive back "
                        "to back", bounds="[1, inf)")
    max_active: int = knob(8, help="sessions in flight (queued + running) at once",
                           bounds="[1, inf)", alias=("active",))

    def __post_init__(self) -> None:
        refuse(ServeError, f"tenant {self.name!r}", problems(self))


def parse_tenant_policies(items: Sequence[str]) -> dict[str, TenantPolicy]:
    """``NAME[:rate=R][:burst=B][:active=N]`` items as {name: policy}."""
    policies = {}
    for item in items:
        # The leading NAME is the policy's ``name`` knob, key left out.
        values, found = parse_pairs(
            TenantPolicy, f"name={item}", sep=":", noun="tenant policy knob"
        )
        if not values.get("name"):
            found.append("tenant policy needs a name")
        if found:
            raise ServeError(
                f"bad tenant policy {item!r}: " + "; ".join(found)
            )
        policies[values["name"]] = TenantPolicy(**values)
    return policies


class TokenBucket:
    """Classic token bucket over an injected monotonic clock.

    Starts full.  :meth:`try_acquire` either takes a token and returns
    0.0, or leaves the bucket untouched and returns the seconds until a
    token will be available (the ``Retry-After`` hint).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self) -> float:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Per-tenant token buckets and quotas over one shared queue bound."""

    def __init__(
        self,
        policies: dict[str, TenantPolicy],
        queue_capacity: int = 64,
        default_policy: TenantPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policies = dict(policies)
        self.queue_capacity = queue_capacity
        #: When set, unknown tenants are admitted under this policy
        #: (open enrollment); when None, unknown tenants are rejected.
        self.default_policy = default_policy
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def policy_for(self, tenant: str) -> TenantPolicy:
        policy = self.policies.get(tenant)
        if policy is not None:
            return policy
        if self.default_policy is None:
            raise UnknownTenant(
                f"unknown tenant {tenant!r} "
                f"(known: {', '.join(sorted(self.policies)) or 'none'})"
            )
        policy = replace(self.default_policy, name=tenant)
        self.policies[tenant] = policy
        return policy

    def _bucket(self, policy: TenantPolicy) -> TokenBucket:
        bucket = self._buckets.get(policy.name)
        if bucket is None:
            bucket = TokenBucket(policy.rate, policy.burst, self._clock)
            self._buckets[policy.name] = bucket
        return bucket

    def admit(self, tenant: str, active: int, queue_depth: int) -> None:
        """Gate one session; raises :class:`AdmissionRejected` to refuse.

        ``active`` is the tenant's in-flight session count (queued +
        running), ``queue_depth`` the server-wide queue occupancy.  On
        success a token is consumed and the caller must enqueue —
        admission and enqueue are one atomic step on the event loop.
        """
        policy = self.policy_for(tenant)
        if queue_depth >= self.queue_capacity:
            raise AdmissionRejected(
                f"request queue full ({queue_depth}/{self.queue_capacity})",
                reason="queue-full",
                retry_after=1.0,
            )
        if active >= policy.max_active:
            raise AdmissionRejected(
                f"tenant {tenant!r} at concurrency quota "
                f"({active}/{policy.max_active} in flight)",
                reason="tenant-quota",
                retry_after=1.0,
            )
        wait = self._bucket(policy).try_acquire()
        if wait > 0:
            raise AdmissionRejected(
                f"tenant {tenant!r} rate-limited "
                f"({policy.rate:g}/s, burst {policy.burst:g})",
                reason="rate-limited",
                retry_after=max(wait, 0.05),
            )
