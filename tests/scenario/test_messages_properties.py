"""Property-based tests on the message factories (hypothesis over seeds)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.messages import MessageFactory, Population
from repro.scenario.xmlschemas import (
    beijing_schema,
    cdb_order_schema,
    hongkong_schema,
    hongkong_to_cdb_stylesheet,
    mdm_schema,
    sandiego_schema,
    sandiego_to_cdb_stylesheet,
    vienna_schema,
    vienna_to_cdb_stylesheet,
)


@pytest.fixture(scope="module")
def population():
    pop = Population()
    pop.customer_keys = {
        "berlin": list(range(1, 21)),
        "paris": list(range(500_001, 500_021)),
        "trondheim": list(range(1_000_001, 1_000_021)),
        "beijing": list(range(2_000_001, 2_000_031)),
        "seoul": list(range(2_000_011, 2_000_041)),
        "hongkong": list(range(2_000_001, 2_000_021)),
        "chicago": list(range(4_000_001, 4_000_031)),
        "sandiego": list(range(4_000_001, 4_000_031)),
    }
    pop.product_keys = list(range(1, 31))
    pop.city_keys = {"europe": [1, 2, 3], "asia": [10, 11],
                     "america": [20, 21]}
    return pop


class TestSchemaConformanceAcrossSeeds:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_vienna_valid_and_translatable(self, seed, population):
        factory = MessageFactory(population, seed=seed)
        message = factory.vienna_order()
        assert vienna_schema().validate(message.xml()) == []
        translated = vienna_to_cdb_stylesheet().transform(message.xml())[0]
        assert cdb_order_schema().validate(translated) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hongkong_valid_and_translatable(self, seed, population):
        factory = MessageFactory(population, seed=seed)
        message = factory.hongkong_order()
        assert hongkong_schema().validate(message.xml()) == []
        translated = hongkong_to_cdb_stylesheet().transform(message.xml())[0]
        assert cdb_order_schema().validate(translated) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mdm_and_beijing_valid(self, seed, population):
        factory = MessageFactory(population, seed=seed)
        assert mdm_schema().validate(factory.mdm_customer_update().xml()) == []
        assert beijing_schema().validate(
            factory.beijing_master_data(batch_size=3).xml()
        ) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_clean_sandiego_always_valid(self, seed, population):
        factory = MessageFactory(population, seed=seed, error_rate=0.0)
        message = factory.sandiego_order()
        assert sandiego_schema().validate(message.xml()) == []
        translated = sandiego_to_cdb_stylesheet().transform(message.xml())[0]
        assert cdb_order_schema().validate(translated) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dirty_sandiego_always_invalid(self, seed, population):
        """Every corruption mode must actually violate the schema —
        otherwise P10's failed-message accounting drifts."""
        factory = MessageFactory(population, seed=seed, error_rate=1.0)
        message = factory.sandiego_order()
        assert sandiego_schema().validate(message.xml())
        assert factory.sandiego_invalid == 1

    @given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_error_accounting_consistent(self, seed, rate, population):
        factory = MessageFactory(population, seed=seed, error_rate=rate)
        invalid = 0
        for _ in range(10):
            message = factory.sandiego_order()
            if sandiego_schema().validate(message.xml()):
                invalid += 1
        assert invalid == factory.sandiego_invalid
        assert factory.sandiego_sent == 10
        assert len(factory.sandiego_valid_orderkeys) == 10 - invalid
