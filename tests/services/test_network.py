"""Network model: links, costs, jitter, partitions."""

import pytest

from repro.errors import NetworkError
from repro.services.network import Link, Network


@pytest.fixture()
def net():
    network = Network(default_link=Link(latency=2.0, bandwidth=100.0))
    network.add_host("ES")
    network.add_host("IS")
    return network


class TestLink:
    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            Link(latency=-1, bandwidth=1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            Link(latency=0, bandwidth=0)


class TestTransferCost:
    def test_cost_formula(self, net):
        assert net.transfer_cost("ES", "IS", 100.0) == pytest.approx(3.0)

    def test_zero_payload_costs_latency(self, net):
        assert net.transfer_cost("ES", "IS", 0.0) == pytest.approx(2.0)

    def test_same_host_is_free(self, net):
        assert net.transfer_cost("ES", "ES", 1000.0) == 0.0

    def test_unknown_host(self, net):
        with pytest.raises(NetworkError):
            net.transfer_cost("ES", "ghost", 1.0)

    def test_negative_payload(self, net):
        with pytest.raises(NetworkError):
            net.transfer_cost("ES", "IS", -1.0)

    def test_statistics(self, net):
        net.transfer_cost("ES", "IS", 10.0)
        net.transfer_cost("ES", "IS", 5.0)
        assert net.transfer_count == 2
        assert net._m_payload.value == 15.0

    def test_same_host_not_counted_in_statistics(self, net):
        net.transfer_cost("ES", "ES", 1000.0)
        assert net.transfer_count == 0
        assert net._m_payload.value == 0.0
        net.transfer_cost("ES", "IS", 10.0)
        net.transfer_cost("IS", "IS", 5.0)
        assert net.transfer_count == 1
        assert net._m_payload.value == 10.0


class TestJitter:
    def test_jitter_bounds(self):
        net = Network(default_link=Link(2.0, 100.0), jitter=0.5, seed=1)
        net.add_host("A")
        net.add_host("B")
        base = 2.0 + 100.0 / 100.0
        costs = [net.transfer_cost("A", "B", 100.0) for _ in range(200)]
        assert all(base * 0.5 <= c <= base * 1.5 for c in costs)
        assert len(set(costs)) > 1  # actually varies

    def test_jitter_deterministic_per_seed(self):
        def run(seed):
            net = Network(jitter=0.3, seed=seed)
            net.add_host("A")
            net.add_host("B")
            return [net.transfer_cost("A", "B", 10.0) for _ in range(5)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_jitter(self):
        with pytest.raises(NetworkError):
            Network(jitter=1.0)


class TestPartitions:
    def test_partition_blocks_transfers(self, net):
        net.partition("ES", "IS")
        with pytest.raises(NetworkError, match="partition"):
            net.transfer_cost("ES", "IS", 1.0)

    def test_partition_is_symmetric_by_default(self, net):
        net.partition("ES", "IS")
        with pytest.raises(NetworkError):
            net.transfer_cost("IS", "ES", 1.0)

    def test_heal(self, net):
        net.partition("ES", "IS")
        net.heal("ES", "IS")
        assert net.transfer_cost("ES", "IS", 0.0) > 0

    def test_one_way_partition(self, net):
        net.partition("ES", "IS", symmetric=False)
        assert net.transfer_cost("IS", "ES", 0.0) > 0
        with pytest.raises(NetworkError):
            net.transfer_cost("ES", "IS", 0.0)

    def test_heal_restores_prior_link_cost(self, net):
        before = net.transfer_cost("ES", "IS", 5.0)
        net.partition("ES", "IS")
        net.heal("ES", "IS")
        assert net.transfer_cost("ES", "IS", 5.0) == pytest.approx(before)

    def test_same_host_transfers_unaffected_by_partition(self, net):
        net.partition("ES", "IS")
        assert net.transfer_cost("ES", "ES", 1000.0) == 0.0
        assert net.transfer_cost("IS", "IS", 1000.0) == 0.0

    def test_is_partitioned(self, net):
        net.partition("ES", "IS")
        for src, dst in (("ES", "IS"), ("IS", "ES")):
            with pytest.raises(NetworkError):
                net.transfer_cost(src, dst, 0.0)
        net.heal("ES", "IS")
        assert net.transfer_cost("IS", "ES", 0.0) > 0


class TestDegradation:
    def test_degrade_multiplies_cost(self, net):
        base = net.transfer_cost("ES", "IS", 100.0)
        net.degrade("ES", "IS", 2.5)
        assert net.transfer_cost("ES", "IS", 100.0) == pytest.approx(2.5 * base)

    def test_degrade_is_symmetric_by_default(self, net):
        base = net.transfer_cost("IS", "ES", 100.0)
        net.degrade("ES", "IS", 2.0)
        assert net.transfer_cost("IS", "ES", 100.0) == pytest.approx(2.0 * base)

    def test_one_way_degrade(self, net):
        base = net.transfer_cost("IS", "ES", 100.0)
        net.degrade("ES", "IS", 4.0, symmetric=False)
        assert net.transfer_cost("IS", "ES", 100.0) == pytest.approx(base)
        assert net.transfer_cost("ES", "IS", 100.0) == pytest.approx(4.0 * base)

    def test_restore_link_clears_degradation(self, net):
        base = net.transfer_cost("ES", "IS", 100.0)
        net.degrade("ES", "IS", 3.0)
        net.restore_link("ES", "IS")
        assert net.transfer_cost("ES", "IS", 100.0) == pytest.approx(base)
        assert net.degradation("ES", "IS") == 1.0

    def test_degrade_replaces_not_stacks(self, net):
        base = net.transfer_cost("ES", "IS", 100.0)
        net.degrade("ES", "IS", 2.0)
        net.degrade("ES", "IS", 3.0)
        assert net.transfer_cost("ES", "IS", 100.0) == pytest.approx(3.0 * base)

    def test_factor_below_one_rejected(self, net):
        with pytest.raises(NetworkError):
            net.degrade("ES", "IS", 0.5)

    def test_degraded_transfer_still_counted(self, net):
        net.degrade("ES", "IS", 2.0)
        net.transfer_cost("ES", "IS", 10.0)
        assert net.transfer_count == 1
        assert net._m_payload.value == 10.0
