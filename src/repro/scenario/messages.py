"""E1 message factories: what the proprietary applications send.

Vienna, San Diego, MDM_Europe and Hongkong are message *sources* — they
have no queryable endpoint; the toolsuite client synthesizes their
messages and delivers them to the integration system according to the
stream schedules.  This module builds those messages, referencing the
customer/product populations the Initializer planted in the source
systems, and injects the schema violations that make San Diego the
"very error-prone" application of Section III.A.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from repro.datagen.distributions import Distribution, UniformDistribution
from repro.datagen.text import TextSynthesizer
from repro.mtm.message import Message
from repro.scenario.topology import KEY_RANGES
from repro.xmlkit.doc import XmlElement

_STATUS_VIENNA = ("OFFEN", "FERTIG", "TEIL")
_PRIO_VIENNA = ("EILIG", "HOCH", "MITTEL", "OFFEN", "NIEDRIG")
_STATUS_HK = ("OPEN", "FILLED", "PENDING")
_PRIO_HK = ("U", "H", "M", "N", "L")
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")


@dataclass
class Population:
    """Key populations planted by the Initializer, per source system."""

    customer_keys: dict[str, list[int]] = field(default_factory=dict)
    product_keys: list[int] = field(default_factory=list)
    city_keys: dict[str, list[int]] = field(default_factory=dict)

    def customers_of(self, source: str) -> list[int]:
        keys = self.customer_keys.get(source)
        if not keys:
            raise ValueError(f"population has no customers for {source!r}")
        return keys


class MessageFactory:
    """Builds the E1 messages of streams A and B.

    ``error_rate`` applies to San Diego messages only (P10): that fraction
    of messages violates XSD_SanDiego in one of several ways.
    """

    def __init__(
        self,
        population: Population,
        distribution: Distribution | None = None,
        seed: int = 11,
        error_rate: float = 0.15,
    ):
        self.population = population
        self.distribution = distribution or UniformDistribution(seed)
        self.text = TextSynthesizer(self.distribution)
        self.error_rate = error_rate
        self._vienna_orders = itertools.count(KEY_RANGES["vienna_orders"] + 1)
        self._hongkong_orders = itertools.count(KEY_RANGES["hongkong_orders"] + 1)
        self._sandiego_orders = itertools.count(KEY_RANGES["sandiego_orders"] + 1)
        #: Ground truth for phase-post verification: how many order
        #: messages each application sent, and which orderkeys.
        self.sandiego_sent = 0
        self.sandiego_invalid = 0
        self.vienna_sent = 0
        self.hongkong_sent = 0
        self.vienna_orderkeys: list[tuple[int, int]] = []
        self.hongkong_orderkeys: list[tuple[int, int]] = []
        self.sandiego_valid_orderkeys: list[tuple[int, int]] = []
        #: Last MDM master-data update per customer (P02 subscription).
        self.mdm_updates: dict[int, str] = {}

    # -- helpers ---------------------------------------------------------------

    @functools.cached_property
    def _europe_customers(self) -> list[int]:
        """Every region-Europe customer key; the population is planted
        before the factory is built and fixed for its lifetime."""
        return (
            self.population.customers_of("berlin")
            + self.population.customers_of("paris")
            + self.population.customers_of("trondheim")
        )

    def _order_lines(self, parent: XmlElement, line_tag: str, build_line) -> float:
        count = self.distribution.sample_int(1, 4)
        total = 0.0
        for number in range(1, count + 1):
            quantity = self.distribution.sample_int(1, 40)
            amount = round(self.distribution.sample_float(5.0, 900.0), 2)
            total += amount
            prodkey = self.distribution.choice(self.population.product_keys)
            parent.add(build_line(number, prodkey, quantity, amount))
        return round(total, 2)

    def _a_date(self) -> str:
        month = self.distribution.sample_int(1, 12)
        day = self.distribution.sample_int(1, 28)
        return f"2007-{month:02d}-{day:02d}"

    # -- Vienna (P04) -----------------------------------------------------------

    def vienna_order(self) -> Message:
        """A ``<ViennaOrder>`` referencing a region-Europe customer."""
        europe_customers = self._europe_customers
        orderkey = next(self._vienna_orders)
        custkey = self.distribution.choice(europe_customers)
        root = XmlElement("ViennaOrder")
        head = root.add(XmlElement("Kopf"))
        head.add_text_child("Auftrag", orderkey)
        head.add_text_child("Kunde", custkey)
        head.add_text_child("Datum", self._a_date())
        head.add_text_child("Status", self.distribution.choice(_STATUS_VIENNA))
        head.add_text_child("Prioritaet", self.distribution.choice(_PRIO_VIENNA))
        positions = root.add(XmlElement("Positionen"))

        def build_position(number: int, prodkey: int, qty: int, amount: float):
            position = XmlElement("Position", {"nr": str(number)})
            position.add_text_child("Artikel", prodkey)
            position.add_text_child("Menge", qty)
            position.add_text_child("Preis", f"{amount:.2f}")
            return position

        self._order_lines(positions, "Position", build_position)
        self.vienna_sent += 1
        self.vienna_orderkeys.append((orderkey, custkey))
        return Message(root, "vienna_order")

    # -- MDM Europe (P02) --------------------------------------------------------

    def mdm_customer_update(self) -> Message:
        """An ``<MDMCustomerMessage>``: changed Europe master data."""
        custkey = self.distribution.choice(self._europe_customers)
        cities = self.population.city_keys.get("europe", [1])
        root = XmlElement("MDMCustomerMessage")
        kunde = root.add(XmlElement("Kunde", {"nr": str(custkey)}))
        kunde.add_text_child("Name", f"Customer#{custkey:09d}")
        anschrift = kunde.add(XmlElement("Anschrift"))
        new_address = self.text.street_address()
        self.mdm_updates[custkey] = new_address
        anschrift.add_text_child("Strasse", new_address)
        anschrift.add_text_child(
            "Stadtschluessel", self.distribution.choice(cities)
        )
        kunde.add_text_child("Telefon", self.text.phone(49))
        kunde.add_text_child("Segment", self.distribution.choice(_SEGMENTS))
        return Message(root, "mdm_customer")

    # -- Beijing master data (P01) -------------------------------------------------

    def beijing_master_data(self, batch_size: int = 5) -> Message:
        """A ``<BeijingMasterData>`` batch of changed customer records."""
        beijing_customers = self.population.customers_of("beijing")
        cities = self.population.city_keys.get("asia", [10])
        root = XmlElement("BeijingMasterData")
        for _ in range(max(1, batch_size)):
            custkey = self.distribution.choice(beijing_customers)
            record = root.add(
                XmlElement(
                    "CustomerRec",
                    {
                        "custkey": str(custkey),
                        "citykey": str(self.distribution.choice(cities)),
                    },
                )
            )
            record.add_text_child("CName", f"Customer#{custkey:09d}")
            record.add_text_child("CAddr", self.text.street_address())
            record.add_text_child("CPhone", self.text.phone(86))
            record.add_text_child("CSeg", self.distribution.choice(_SEGMENTS))
        return Message(root, "beijing_master")

    # -- Hongkong (P08) ------------------------------------------------------------

    def hongkong_order(self) -> Message:
        """An ``<HKOrder>`` business transaction."""
        orderkey = next(self._hongkong_orders)
        custkey = self.distribution.choice(
            self.population.customers_of("hongkong")
        )
        root = XmlElement("HKOrder")
        root.add_text_child("Id", orderkey)
        root.add_text_child("Cust", custkey)
        root.add_text_child("Date", self._a_date())
        root.add_text_child("Stat", self.distribution.choice(_STATUS_HK))
        root.add_text_child("Prio", self.distribution.choice(_PRIO_HK))
        items = XmlElement("Items")

        def build_item(number: int, prodkey: int, qty: int, amount: float):
            item = XmlElement("Item")
            item.add_text_child("No", number)
            item.add_text_child("Prod", prodkey)
            item.add_text_child("Qty", qty)
            item.add_text_child("Value", f"{amount:.2f}")
            return item

        total = self._order_lines(items, "Item", build_item)
        root.add_text_child("Sum", f"{total:.2f}")
        root.add(items)
        self.hongkong_sent += 1
        self.hongkong_orderkeys.append((orderkey, custkey))
        return Message(root, "hongkong_order")

    # -- San Diego (P10) --------------------------------------------------------------

    def sandiego_order(self) -> Message:
        """An ``<SDOrder>``; at ``error_rate``, deliberately invalid."""
        orderkey = next(self._sandiego_orders)
        custkey = self.distribution.choice(
            self.population.customers_of("sandiego")
        )
        root = XmlElement(
            "SDOrder", {"key": str(orderkey), "customer": str(custkey)}
        )
        root.add_text_child("Placed", self._a_date())
        root.add_text_child("State", self.distribution.choice(("O", "F", "P")))
        lines = XmlElement("Lines")

        def build_line(number: int, prodkey: int, qty: int, amount: float):
            line = XmlElement("Line", {"no": str(number), "part": str(prodkey)})
            line.add_text_child("Qty", qty)
            line.add_text_child("Amount", f"{amount:.2f}")
            return line

        total = self._order_lines(lines, "Line", build_line)
        root.add_text_child("Total", f"{total:.2f}")
        root.add(lines)

        self.sandiego_sent += 1
        if self.distribution.sample_unit() < self.error_rate:
            self._corrupt_sandiego(root)
            self.sandiego_invalid += 1
        else:
            self.sandiego_valid_orderkeys.append((orderkey, custkey))
        return Message(root, "sandiego_order")

    def _corrupt_sandiego(self, root: XmlElement) -> None:
        """Apply one of the error modes the validation of P10 must catch."""
        mode = self.distribution.sample_int(0, 3)
        if mode == 0:
            del root.attributes["customer"]  # missing required attribute
        elif mode == 1:
            root.attributes["key"] = "not-a-number"  # type violation
        elif mode == 2:
            root.add(XmlElement("Bogus", text="?"))  # undeclared child
        else:
            total = root.find("Total")
            if total is not None:
                total.text = "12,99"  # locale-broken decimal
