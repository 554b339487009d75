"""Deterministic text synthesis for generated rows.

TPC-style generators build names and comments from fixed word lists; we do
the same so two runs with the same seed produce identical strings, and a
string's content is derived from its key where that helps debugging
(``Customer#000000042``).
"""

from __future__ import annotations

from repro.datagen.distributions import Distribution, UniformDistribution

_SYLLABLES = (
    "al", "ba", "cor", "dan", "el", "fir", "gan", "hol", "in", "jor",
    "kel", "lum", "mar", "nor", "ost", "pel", "qui", "ros", "sil", "tor",
    "ul", "ver", "wal", "xan", "yor", "zel",
)

_ADJECTIVES = (
    "quick", "silent", "bright", "heavy", "crisp", "broad", "pale",
    "solid", "smooth", "rapid", "steady", "subtle", "sturdy", "vivid",
)

_NOUNS = (
    "packet", "ledger", "crate", "spindle", "anchor", "beacon", "socket",
    "gasket", "valve", "pallet", "binder", "coupler", "fitting", "washer",
)

_PRODUCT_MATERIALS = ("steel", "brass", "nickel", "copper", "tin", "chrome")
_PRODUCT_FINISHES = ("polished", "brushed", "anodized", "plated", "burnished")

_STREET_SUFFIXES = ("Street", "Avenue", "Lane", "Boulevard", "Way", "Row")


class TextSynthesizer:
    """Seeded generator for names, addresses, comments and codes."""

    def __init__(self, distribution: Distribution | None = None):
        self._dist = distribution or UniformDistribution(7)

    def proper_name(self, syllable_count: int = 3) -> str:
        """A pronounceable proper name, e.g. ``Korvelsil``."""
        parts = [self._dist.choice(_SYLLABLES) for _ in range(syllable_count)]
        return "".join(parts).capitalize()

    def keyed_name(self, prefix: str, key: int, width: int = 9) -> str:
        """TPC-style keyed name, e.g. ``Customer#000000042``."""
        return f"{prefix}#{key:0{width}d}"

    def product_name(self) -> str:
        """e.g. ``polished steel spindle``."""
        return (
            f"{self._dist.choice(_PRODUCT_FINISHES)} "
            f"{self._dist.choice(_PRODUCT_MATERIALS)} "
            f"{self._dist.choice(_NOUNS)}"
        )

    def street_address(self) -> str:
        number = self._dist.sample_int(1, 9999)
        return (
            f"{number} {self.proper_name(3)} "
            f"{self._dist.choice(_STREET_SUFFIXES)}"
        )

    def phone(self, country_code: int) -> str:
        local = self._dist.sample_int(1000000, 9999999)
        area = self._dist.sample_int(100, 999)
        return f"+{country_code}-{area}-{local}"

    def corrupted(self, value: str) -> str:
        """Deterministically corrupt a string (error injection for P10/P12).

        The corruption keeps the value recognisably wrong — stray letters
        inside key fields, separator garbage, reversals — the way dirty
        operational data looks, and always in a way the cleansing rules
        (``Customer#<digits>`` pattern) can detect.
        """
        if not value:
            return "??"
        position = self._dist.sample_int(0, len(value) - 1)
        mode = self._dist.sample_int(0, 2)
        if mode == 0:
            return value[:position] + "X" + value[position:]
        if mode == 1:
            return value[:position] + "##" + value[position:]
        return value[::-1]
