"""FaultInjector: timed application, period lifecycle, corruption hooks."""

import pytest

from repro.errors import NetworkError
from repro.resilience import FaultEvent, FaultInjector, FaultSpec
from repro.scenario import build_scenario
from repro.scenario.messages import MessageFactory
from repro.scenario.xmlschemas import message_schemas
from repro.datagen.generators import GeneratorProfile
from repro.toolsuite import Initializer


@pytest.fixture()
def scenario():
    return build_scenario()


def make_injector(scenario, *events, seed=0):
    spec = FaultSpec(name="t", seed=seed, events=tuple(events))
    return FaultInjector(spec, registry=scenario.registry,
                         schemas=message_schemas())


class TestTimedApplication:
    def test_partition_applies_at_scheduled_time(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=10.0, kind="partition", src="IS", dst="ES"),
        )
        injector.begin_period(0)
        injector.advance_to(9.9)
        assert ("IS", "ES") not in scenario.network._partitioned
        injector.advance_to(10.0)
        assert ("IS", "ES") in scenario.network._partitioned
        with pytest.raises(NetworkError):
            scenario.network.transfer_cost("IS", "ES", 1.0)

    def test_duration_heals_automatically(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=10.0, kind="partition", src="IS", dst="ES",
                       duration=5.0),
        )
        injector.begin_period(0)
        injector.advance_to(12.0)
        assert ("IS", "ES") in scenario.network._partitioned
        injector.advance_to(15.0)
        assert ("IS", "ES") not in scenario.network._partitioned
        assert scenario.network.transfer_cost("IS", "ES", 1.0) > 0

    def test_degrade_multiplies_and_restores(self, scenario):
        base = scenario.network.transfer_cost("IS", "ES", 10.0)
        injector = make_injector(
            scenario,
            FaultEvent(at=1.0, kind="degrade", src="IS", dst="ES",
                       factor=3.0, duration=4.0),
        )
        injector.begin_period(0)
        injector.advance_to(1.0)
        assert scenario.network.transfer_cost("IS", "ES", 10.0) == (
            pytest.approx(3.0 * base)
        )
        injector.advance_to(5.0)
        assert scenario.network.transfer_cost("IS", "ES", 10.0) == (
            pytest.approx(base)
        )

    def test_outage_flips_endpoint_availability(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=2.0, kind="outage", service="dwh", duration=3.0),
        )
        injector.begin_period(0)
        endpoint = scenario.registry.lookup("dwh")
        assert endpoint.available
        injector.advance_to(2.0)
        assert not endpoint.available
        injector.advance_to(5.0)
        assert endpoint.available

    def test_metrics_count_injections(self, scenario):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        spec = FaultSpec(events=(
            FaultEvent(at=1.0, kind="outage", service="dwh", duration=1.0),
        ))
        injector = FaultInjector(spec, registry=scenario.registry,
                                 metrics=registry)
        injector.begin_period(0)
        injector.advance_to(3.0)
        for kind in ("outage", "restore"):
            counter = registry.counter(
                "faults_injected_total", labels={"kind": kind}
            )
            assert counter.value == 1.0


class TestPeriodLifecycle:
    def test_end_period_heals_everything(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=1.0, kind="partition", src="IS", dst="ES"),
            FaultEvent(at=1.0, kind="degrade", src="CS", dst="IS", factor=2.0),
            FaultEvent(at=1.0, kind="outage", service="dwh"),
        )
        injector.begin_period(0)
        injector.advance_to(1.0)
        injector.end_period()
        assert ("IS", "ES") not in scenario.network._partitioned
        assert scenario.network.degradation("CS", "IS") == 1.0
        assert scenario.registry.lookup("dwh").available

    def test_period_pinned_events_skip_other_periods(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=1.0, kind="partition", src="IS", dst="ES",
                       period=0),
        )
        injector.begin_period(1)
        injector.advance_to(100.0)
        assert ("IS", "ES") not in scenario.network._partitioned
        injector.begin_period(0)
        injector.advance_to(1.0)
        assert ("IS", "ES") in scenario.network._partitioned

    def test_unpinned_events_recur_every_period(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=1.0, kind="outage", service="dwh", duration=1.0),
        )
        for period in (0, 1):
            injector.begin_period(period)
            injector.advance_to(1.5)
            assert not scenario.registry.lookup("dwh").available
            injector.end_period()
            assert scenario.registry.lookup("dwh").available


class TestEngineHooks:
    def test_engine_fault_consumed_count_times(self, scenario):
        injector = make_injector(
            scenario,
            FaultEvent(at=0.0, kind="engine_fault", process="P10", count=2),
        )
        injector.begin_period(0)
        injector.advance_to(0.0)
        assert injector.take_engine_fault("P10")
        assert injector.take_engine_fault("P10")
        assert not injector.take_engine_fault("P10")
        assert not injector.take_engine_fault("P04")


class TestCorruption:
    @pytest.fixture()
    def factory(self, scenario):
        initializer = Initializer(
            scenario, d=1.0, f=0, seed=7,
            profile=GeneratorProfile(
                customers_base=40, products_base=20, orders_base=40,
            ),
        )
        population = initializer.initialize_sources(0)
        return MessageFactory(population, seed=3)

    def test_corrupt_marks_message_and_registers_schema(self, scenario, factory):
        injector = make_injector(
            scenario,
            FaultEvent(at=0.0, kind="corrupt", process="P04", count=1),
        )
        injector.begin_period(0)
        injector.advance_to(0.0)
        message = factory.vienna_order()
        assert injector.maybe_corrupt("P04", message)
        assert "corrupted" in message.headers
        schema = injector.corruption_schema(message)
        assert schema is not None
        assert schema.validate(message.xml())  # real violations

    def test_count_exhausts(self, scenario, factory):
        injector = make_injector(
            scenario,
            FaultEvent(at=0.0, kind="corrupt", process="P04", count=1),
        )
        injector.begin_period(0)
        injector.advance_to(0.0)
        first = factory.vienna_order()
        second = factory.vienna_order()
        assert injector.maybe_corrupt("P04", first)
        assert not injector.maybe_corrupt("P04", second)
        assert injector.corruption_schema(second) is None

    def test_deterministic_mutation_per_seed(self, scenario, factory):
        def mutate(seed):
            injector = make_injector(
                scenario,
                FaultEvent(at=0.0, kind="corrupt", process="P04", count=1),
                seed=seed,
            )
            injector.begin_period(0)
            injector.advance_to(0.0)
            message = factory.vienna_order()
            injector.maybe_corrupt("P04", message)
            return message.headers["corrupted"]

        assert mutate(1) == mutate(1)
