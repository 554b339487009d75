"""Text synthesis."""

import pytest

from repro.datagen.distributions import UniformDistribution
from repro.datagen.text import TextSynthesizer


@pytest.fixture()
def text():
    return TextSynthesizer(UniformDistribution(9))


class TestNames:
    def test_proper_name_capitalized(self, text):
        name = text.proper_name()
        assert name[0].isupper()
        assert name[1:].islower()

    def test_keyed_name_format(self, text):
        assert text.keyed_name("Customer", 42) == "Customer#000000042"

    def test_keyed_name_width(self, text):
        assert text.keyed_name("P", 1, width=3) == "P#001"

    def test_product_name_three_words(self, text):
        assert len(text.product_name().split()) == 3

    def test_street_address_shape(self, text):
        parts = text.street_address().split()
        assert parts[0].isdigit()

    def test_phone_contains_country_code(self, text):
        assert text.phone(49).startswith("+49-")

    def test_deterministic(self):
        a = TextSynthesizer(UniformDistribution(1))
        b = TextSynthesizer(UniformDistribution(1))
        assert [a.proper_name() for _ in range(5)] == [
            b.proper_name() for _ in range(5)
        ]


class TestCorruption:
    def test_corrupted_differs(self, text):
        assert text.corrupted("Customer#000000001") != "Customer#000000001"

    def test_corrupted_empty(self, text):
        assert text.corrupted("") == "??"

    def test_corruption_detectable(self, text):
        """Every corruption mode breaks the Customer#<digits> pattern."""
        import re

        pattern = re.compile(r"^Customer#\d+$")
        for _ in range(50):
            assert not pattern.match(text.corrupted("Customer#000000042"))
