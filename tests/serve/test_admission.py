"""Admission control under a deterministic clock."""

import pytest

from repro.errors import AdmissionRejected, ServeError, UnknownTenant
from repro.serve import AdmissionController, TenantPolicy, TokenBucket


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_spends_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        assert bucket.try_acquire() > 0

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == pytest.approx(0.5)
        clock.advance(0.5)  # rate 2/s -> one token back
        assert bucket.try_acquire() == 0.0

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        # Two tokens banked however long it idled, then a 1/rate wait.
        waits = [bucket.try_acquire() for _ in range(3)]
        assert waits == [0.0, 0.0, pytest.approx(0.1)]

    def test_wait_hint_is_time_to_next_token(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        bucket.try_acquire()
        assert bucket.try_acquire() == pytest.approx(0.25)


class TestPolicies:
    def test_policy_validation(self):
        with pytest.raises(ServeError):
            TenantPolicy(name="x", rate=0)
        with pytest.raises(ServeError):
            TenantPolicy(name="x", burst=0)
        with pytest.raises(ServeError):
            TenantPolicy(name="x", max_active=0)

    def test_closed_enrollment_rejects_unknown(self):
        controller = AdmissionController(
            policies={"acme": TenantPolicy(name="acme")},
            default_policy=None,
        )
        with pytest.raises(UnknownTenant):
            controller.admit("ghost", active=0, queue_depth=0)

    def test_open_enrollment_materializes_policy(self):
        controller = AdmissionController(
            policies={}, default_policy=TenantPolicy(name="default", rate=7)
        )
        controller.admit("newcomer", active=0, queue_depth=0)
        assert controller.policies["newcomer"].rate == 7
        assert controller.policies["newcomer"].name == "newcomer"


class TestGates:
    def _controller(self, clock, **policy):
        return AdmissionController(
            policies={"acme": TenantPolicy(name="acme", **policy)},
            queue_capacity=4,
            clock=clock,
        )

    def test_queue_full_gates_first(self):
        clock = FakeClock()
        controller = self._controller(clock, max_active=1)
        # Queue full wins even when the tenant is also over quota.
        with pytest.raises(AdmissionRejected) as err:
            controller.admit("acme", active=5, queue_depth=4)
        assert err.value.reason == "queue-full"
        assert err.value.retry_after > 0

    def test_tenant_quota(self):
        clock = FakeClock()
        controller = self._controller(clock, max_active=2)
        controller.admit("acme", active=0, queue_depth=0)
        controller.admit("acme", active=1, queue_depth=1)
        with pytest.raises(AdmissionRejected) as err:
            controller.admit("acme", active=2, queue_depth=2)
        assert err.value.reason == "tenant-quota"

    def test_rate_limited_with_retry_after(self):
        clock = FakeClock()
        controller = self._controller(clock, rate=2.0, burst=1.0)
        controller.admit("acme", active=0, queue_depth=0)
        with pytest.raises(AdmissionRejected) as err:
            controller.admit("acme", active=0, queue_depth=0)
        assert err.value.reason == "rate-limited"
        assert err.value.retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        controller.admit("acme", active=0, queue_depth=0)  # token refilled

    def test_rejection_consumes_no_token(self):
        clock = FakeClock()
        controller = self._controller(clock, burst=1.0, max_active=1)
        with pytest.raises(AdmissionRejected):
            controller.admit("acme", active=1, queue_depth=0)
        # The quota rejection left the bucket untouched.
        controller.admit("acme", active=0, queue_depth=0)

    def test_tenants_do_not_share_buckets(self):
        clock = FakeClock()
        controller = AdmissionController(
            policies={
                "acme": TenantPolicy(name="acme", rate=1, burst=1),
                "globex": TenantPolicy(name="globex", rate=1, burst=1),
            },
            clock=clock,
        )
        controller.admit("acme", active=0, queue_depth=0)
        controller.admit("globex", active=0, queue_depth=0)
        with pytest.raises(AdmissionRejected):
            controller.admit("acme", active=0, queue_depth=0)
