"""Whole-benchmark integration tests: multi-period runs, both engines,
scale-factor effects, failure injection."""

import pytest

from repro.engine.base import InstanceHistory
from repro.parallel import RunSpec, client_from_spec


def run_benchmark(engine="interpreter", periods=2, **knobs):
    client = client_from_spec(
        RunSpec(engine=engine, periods=periods, seed=5, **knobs)
    )
    return client.run(), client.scenario, client.engine


def period_client(**knobs):
    """A 1-period client at seed 5, for tests that drive its periods."""
    return client_from_spec(RunSpec(periods=1, seed=5, **knobs))


class TestMultiPeriod:
    @pytest.fixture(scope="class")
    def three_periods(self):
        return run_benchmark(periods=3)

    def test_clean_and_verified(self, three_periods):
        result, _, _ = three_periods
        assert result.error_instances == 0
        assert result.verification.ok, result.verification.summary()

    def test_e2_types_once_per_period(self, three_periods):
        result, _, _ = three_periods
        for pid in ("P03", "P05", "P09", "P12", "P13", "P14", "P15"):
            assert len([r for r in result.records if r.process_id == pid]) == 3

    def test_every_period_rebuilds_state(self, three_periods):
        """Period k+1 starts from uninitialized systems, so the final
        state reflects only the last period."""
        result, scenario, _ = three_periods
        last_period = max(r.period for r in result.records)
        dwh_orders = len(scenario.databases["dwh"].table("orders"))
        assert dwh_orders > 0
        periods_seen = {r.period for r in result.records}
        assert periods_seen == {0, 1, 2}

    def test_metrics_cover_all_types(self, three_periods):
        result, _, _ = three_periods
        assert result.metrics.process_ids == [
            f"P{i:02d}" for i in range(1, 16)
        ]


class TestPaperShapeClaims:
    """The qualitative claims of Section VI, pinned as assertions."""

    @pytest.fixture(scope="class")
    def reference(self):
        result, _, _ = run_benchmark(periods=3)
        return result.metrics

    def test_data_intensive_dominate_concurrent(self, reference):
        """'the large NAVG+ difference between the serialized,
        data-intensive processes and the highly concurrent processes'"""
        concurrent = [reference[p].navg_plus
                      for p in ("P01", "P02", "P04", "P08", "P10")]
        data_intensive = [reference[p].navg_plus
                          for p in ("P09", "P13", "P14")]
        assert min(data_intensive) > max(concurrent)

    def test_group_c_d_heavier_than_messages(self, reference):
        bulk = (reference["P12"].navg_plus + reference["P13"].navg_plus
                + reference["P14"].navg_plus)
        messages = (reference["P02"].navg_plus + reference["P04"].navg_plus
                    + reference["P08"].navg_plus)
        assert bulk > messages

    def test_movement_load_heavier_than_master_load(self, reference):
        """'the differences in data set sizes should be noticed' (P13 vs P12)."""
        assert reference["P13"].navg_plus > reference["P12"].navg_plus


class TestEngineComparison:
    @pytest.fixture(scope="class")
    def both(self):
        interp, _, _ = run_benchmark("interpreter", periods=2)
        federated, _, _ = run_benchmark("federated", periods=2)
        return interp.metrics, federated.metrics

    def test_both_engines_functionally_correct(self):
        for engine in ("interpreter", "federated"):
            result, _, _ = run_benchmark(engine, periods=1)
            assert result.verification.ok, engine

    def test_federated_pays_xml_premium_on_message_types(self, both):
        """System A's concurrent (XML) processes are disproportionately
        expensive: its proprietary XML functions bypass the optimizer."""
        interp, federated = both
        for pid in ("P04", "P08", "P10"):
            assert federated[pid].navg_plus > interp[pid].navg_plus, pid

    def test_federated_relational_bulk_competitive(self, both):
        """Relational bulk work is optimizer-covered on the federation:
        the premium there must be far smaller than on message types."""
        interp, federated = both
        message_ratio = federated["P04"].navg_plus / interp["P04"].navg_plus
        bulk_ratio = federated["P11"].navg_plus / interp["P11"].navg_plus
        assert bulk_ratio < message_ratio

    def test_engine_name_recorded(self, both):
        result, _, _ = run_benchmark("federated", periods=1)
        assert result.engine_name == "federated-dbms"


class TestScaleFactorEffects:
    def test_datasize_raises_instance_counts(self):
        small, _, _ = run_benchmark(periods=1,
                                    datasize=0.05)
        large, _, _ = run_benchmark(periods=1,
                                    datasize=0.1)
        assert large.total_instances > small.total_instances

    def test_datasize_raises_e1_costs(self):
        """Fig. 11: doubling d visibly affects the E1 (message) types via
        schedule pressure."""
        small, _, _ = run_benchmark(periods=2,
                                    datasize=0.05)
        large, _, _ = run_benchmark(periods=2,
                                    datasize=0.1)
        for pid in ("P09", "P13"):
            assert large.metrics[pid].navg > small.metrics[pid].navg, pid

    def test_time_compression_increases_pressure(self):
        """Raising t shortens intervals, reducing self-management time:
        NAVG+ (in tu) grows superlinearly."""
        relaxed, _, _ = run_benchmark(periods=2,
                                      time=1.0)
        compressed, _, _ = run_benchmark(periods=2,
                                         time=4.0)
        # In tu, a perfectly pressure-free system would scale exactly by t.
        for pid in ("P04", "P10"):
            assert compressed.metrics[pid].navg_plus > \
                4.0 * relaxed.metrics[pid].navg_plus * 0.99, pid

    def test_distribution_factor_runs_clean(self):
        for f in (1, 2, 3):
            result, _, _ = run_benchmark(
                periods=1, distribution=f
            )
            assert result.error_instances == 0
            assert result.verification.ok


class TestFailureInjection:
    def test_network_partition_fails_instances_not_engine(self):
        client = period_client()
        scenario, engine = client.scenario, client.engine
        scenario.network.partition("IS", "ES")
        client.run_period(0)
        errors = engine.error_records()
        assert errors  # everything touching ES failed
        assert all("partition" in r.error or "Network" in r.error
                   for r in errors)

    def test_healed_network_recovers(self):
        client = period_client()
        scenario, engine = client.scenario, client.engine
        scenario.network.partition("IS", "ES")
        client.run_period(0)
        scenario.network.heal("IS", "ES")
        engine.records = InstanceHistory()
        client.monitor.records = InstanceHistory()
        client.run_period(0)
        assert not engine.error_records()

    def test_all_sandiego_invalid_still_verifies(self):
        client = period_client(sandiego_error_rate=1.0)
        result, scenario = client.run(), client.scenario
        assert result.verification.ok
        cdb = scenario.databases["sales_cleaning"]
        assert len(cdb.table("failed_messages")) == 53  # every P10 message
