"""The Initializer: schemas, synthetic data, per-period (un)initialization.

Each benchmark period starts by uninitializing all external systems and
re-initializing the *source* systems with fresh synthetic data (Fig. 7).
The Initializer owns that step: it plants regionally partitioned customer
populations (with deliberate overlaps inside a region so the UNION
DISTINCT steps have duplicates to merge), a global product catalog, the
movement data, and the dirt — duplicates and corrupted master data — that
the cleansing procedures of P12/P13 must remove.
"""

from __future__ import annotations

from repro.datagen.distributions import Distribution, make_distribution
from repro.datagen.generators import DataGenerator, GeneratorProfile
from repro.observability import Observability
from repro.scenario.messages import Population
from repro.scenario.topology import KEY_RANGES, Scenario

#: Asia/America order-key bases (per-region pools; sources sample subsets).
ASIA_ORDER_BASE = 3_000_000
AMERICA_ORDER_BASE = 6_000_000


class Initializer:
    """Generates and loads one period's source data.

    ``d`` is the datasize scale factor; ``f`` selects the value
    distribution (0 uniform, 1 zipf, 2 normal, 3 exponential).
    """

    def __init__(
        self,
        scenario: Scenario,
        d: float = 0.05,
        f: int = 0,
        seed: int = 42,
        profile: GeneratorProfile | None = None,
        observability: Observability | None = None,
    ):
        self.scenario = scenario
        self.d = d
        self.f = f
        self.seed = seed
        self.profile = profile or GeneratorProfile()
        self.observability = observability or Observability.disabled()

    # -- helpers -----------------------------------------------------------------

    def _generator(self, period: int, salt: int) -> DataGenerator:
        dist = make_distribution(self.f, seed=self.seed + period * 101 + salt)
        return DataGenerator(
            seed=self.seed + period, distribution=dist, profile=self.profile
        )

    def _subset(self, dist: Distribution, rows: list[dict], fraction: float) -> list[dict]:
        """A reproducible ~fraction subset preserving order."""
        return [row for row in rows if dist.sample_unit() < fraction]

    # -- the per-period steps (Fig. 7) ---------------------------------------------

    def uninitialize_all(self) -> None:
        """Empty every external system."""
        self.scenario.uninitialize()
        obs = self.observability
        if obs.enabled:
            # Initialization happens before the period's virtual clock
            # starts running, so the span is an instant at period start.
            obs.tracer.record("uninitialize", 0.0, 0.0, kind="init")
            obs.metrics.counter(
                "initializer_uninitialize_total",
                help="Per-period uninitializations of all external systems",
            ).inc()

    def initialize_sources(self, period: int = 0) -> Population:
        """Load fresh source data; returns the planted key population."""
        obs = self.observability
        if obs.enabled:
            return self._initialize_sources_observed(period)
        return self._initialize_sources(period)

    def _initialize_sources_observed(self, period: int) -> Population:
        population = self._initialize_sources(period)
        planted = sum(len(keys) for keys in population.customer_keys.values())
        self.observability.tracer.record(
            "initialize-sources", 0.0, 0.0, kind="init",
            attributes={
                "period": period,
                "customers": planted,
                "products": len(population.product_keys),
            },
        )
        metrics = self.observability.metrics
        metrics.counter(
            "initializer_periods_total",
            help="Per-period source initializations",
        ).inc()
        metrics.counter(
            "initializer_customers_total",
            help="Customer keys planted across all sources",
        ).inc(planted)
        metrics.counter(
            "initializer_products_total",
            help="Product keys planted in the catalog",
        ).inc(len(population.product_keys))
        return population

    def _initialize_sources(self, period: int = 0) -> Population:
        gen = self._generator(period, salt=0)
        profile = self.profile
        n_cust = profile.scaled(profile.customers_base, self.d)
        n_prod = max(10, profile.scaled(profile.products_base, self.d))
        n_orders = profile.scaled(profile.orders_base, self.d)

        population = Population()
        products, groups, lines = gen.product_dimension(n_prod)
        product_keys = [p["prodkey"] for p in products]
        population.product_keys = product_keys

        regions, nations, cities = gen.geography_rows()
        population.city_keys = {
            "europe": gen.city_keys_for_region("Europe"),
            "asia": gen.city_keys_for_region("Asia"),
            "america": gen.city_keys_for_region("America"),
        }

        self._init_europe(gen, population, products, n_cust, n_orders)
        self._init_asia(gen, population, products, n_cust, n_orders)
        self._init_america(gen, population, products, n_cust, n_orders)
        self._init_cdb_reference(regions, nations, cities, groups, lines)
        return population

    # -- region Europe ------------------------------------------------------------

    def _init_europe(self, gen, population, products, n_cust, n_orders) -> None:
        berlin_paris = self.scenario.databases["berlin_paris"]
        trondheim = self.scenario.databases["trondheim"]

        locations = [
            ("berlin", berlin_paris, "Berlin"),
            ("paris", berlin_paris, "Paris"),
            ("trondheim", trondheim, "Trondheim"),
        ]
        for source, db, location in locations:
            customers = gen.customers(
                n_cust, key_offset=KEY_RANGES[source], region="Europe"
            )
            population.customer_keys[source] = [c["custkey"] for c in customers]
            dirty = gen.with_corruption(
                gen.with_duplicates(customers, "custkey"), ["name"]
            )
            db.insert_many(
                "eu_customer",
                [
                    {
                        "cust_id": c["custkey"],
                        "cust_name": c["name"],
                        "cust_address": c["address"],
                        "cust_phone": c["phone"],
                        "cust_city": c["citykey"],
                        "cust_segment": c["segment"],
                        "location": location,
                    }
                    for c in dirty
                ],
            )
            # Berlin and Paris share one physical database, so the catalog
            # is split between them (even/odd keys); Trondheim carries the
            # full catalog.  The CDB upsert re-unifies everything.
            if location == "Berlin":
                my_products = [p for p in products if p["prodkey"] % 2 == 0]
            elif location == "Paris":
                my_products = [p for p in products if p["prodkey"] % 2 == 1]
            else:
                my_products = products
            db.insert_many(
                "eu_product",
                [
                    {
                        "prod_id": p["prodkey"],
                        "prod_name": p["name"],
                        "prod_brand": p["brand"],
                        "prod_price": p["price"],
                        "prod_group": p["groupkey"],
                        "location": location,
                    }
                    for p in my_products
                ],
            )
            orders, orderlines = gen.orders(
                n_orders,
                population.customer_keys[source],
                population.product_keys,
                key_offset=KEY_RANGES[source],
            )
            orderlines = gen.with_movement_errors(orderlines)
            db.insert_many(
                "eu_order",
                [
                    {
                        "ord_id": o["orderkey"],
                        "ord_customer": o["custkey"],
                        "ord_date": o["orderdate"],
                        "ord_state": o["status"],
                        "ord_priority": o["priority"],
                        "ord_total": o["totalprice"],
                        "location": location,
                    }
                    for o in orders
                ],
            )
            db.insert_many(
                "eu_orderpos",
                [
                    {
                        "ord_id": l["orderkey"],
                        "pos_nr": l["linenumber"],
                        "pos_product": l["prodkey"],
                        "pos_quantity": l["quantity"],
                        "pos_price": l["extendedprice"],
                        "pos_discount": l["discount"],
                        "location": location,
                    }
                    for l in orderlines
                ],
            )

    # -- region Asia -------------------------------------------------------------

    def _init_asia(self, gen, population, products, n_cust, n_orders) -> None:
        # One regional pool; Beijing and Seoul hold overlapping subsets
        # (the overlap is what P09's UNION DISTINCT merges away).
        pool = gen.customers(
            int(n_cust * 1.5), key_offset=KEY_RANGES["beijing"], region="Asia"
        )
        order_pool, line_pool = gen.orders(
            int(n_orders * 1.5),
            [c["custkey"] for c in pool],
            population.product_keys,
            key_offset=ASIA_ORDER_BASE,
        )
        line_pool = [
            {k: v for k, v in line.items() if not k.startswith("_")}
            for line in gen.with_movement_errors(line_pool)
        ]
        for ws_name in ("beijing", "seoul"):
            db = self.scenario.web_service_databases[ws_name]
            subset = self._subset(gen.distribution, pool, 0.7)
            if not subset:
                subset = pool[:1]
            population.customer_keys[ws_name] = [c["custkey"] for c in subset]
            db.table("customer").insert_many(subset, replace=True)
            db.table("product").insert_many(products, replace=True)
            kept = {c["custkey"] for c in subset}
            my_orders = [o for o in order_pool if o["custkey"] in kept]
            my_keys = {o["orderkey"] for o in my_orders}
            db.insert_many("orders", my_orders)
            db.insert_many(
                "orderline", [l for l in line_pool if l["orderkey"] in my_keys]
            )

        # Hongkong fronts the same regional customers; it only *sends*
        # orders (P08), so its store holds master data for verification.
        hk = self.scenario.web_service_databases["hongkong"]
        hk_subset = self._subset(gen.distribution, pool, 0.5) or pool[:1]
        population.customer_keys["hongkong"] = [c["custkey"] for c in hk_subset]
        hk.table("customer").insert_many(hk_subset, replace=True)
        hk.table("product").insert_many(products, replace=True)

    # -- region America -----------------------------------------------------------

    def _init_america(self, gen, population, products, n_cust, n_orders) -> None:
        pool = gen.customers(
            int(n_cust * 1.5), key_offset=KEY_RANGES["chicago"], region="America"
        )
        order_pool, line_pool = gen.orders(
            int(n_orders * 1.5),
            [c["custkey"] for c in pool],
            population.product_keys,
            key_offset=AMERICA_ORDER_BASE,
        )
        all_keys: set[int] = set()
        for source in ("chicago", "baltimore", "madison"):
            db = self.scenario.databases[source]
            subset = self._subset(gen.distribution, pool, 0.7) or pool[:1]
            all_keys.update(c["custkey"] for c in subset)
            db.insert_many(
                "customer",
                [
                    {
                        "c_custkey": c["custkey"],
                        "c_name": c["name"],
                        "c_address": c["address"],
                        "c_phone": c["phone"],
                        "c_citykey": c["citykey"],
                        "c_mktsegment": c["segment"],
                        "c_acctbal": 0,
                    }
                    for c in subset
                ],
            )
            db.insert_many(
                "part",
                [
                    {
                        "p_partkey": p["prodkey"],
                        "p_name": p["name"],
                        "p_brand": p["brand"],
                        "p_retailprice": p["price"],
                        "p_groupkey": p["groupkey"],
                    }
                    for p in products
                ],
            )
            kept = {c["custkey"] for c in subset}
            my_orders = [o for o in order_pool if o["custkey"] in kept]
            my_keys = {o["orderkey"] for o in my_orders}
            db.insert_many(
                "orders",
                [
                    {
                        "o_orderkey": o["orderkey"],
                        "o_custkey": o["custkey"],
                        "o_orderdate": o["orderdate"],
                        "o_orderstatus": o["status"],
                        "o_orderpriority": o["priority"],
                        "o_totalprice": o["totalprice"],
                    }
                    for o in my_orders
                ],
            )
            db.insert_many(
                "lineitem",
                [
                    {
                        "l_orderkey": l["orderkey"],
                        "l_linenumber": l["linenumber"],
                        "l_partkey": l["prodkey"],
                        "l_quantity": l["quantity"],
                        "l_extendedprice": l["extendedprice"],
                        "l_discount": l["discount"],
                    }
                    for l in line_pool
                    if l["orderkey"] in my_keys
                ],
            )
        population.customer_keys["chicago"] = sorted(all_keys)
        # San Diego fronts the same regional customers via messages.
        population.customer_keys["sandiego"] = sorted(all_keys)

    # -- staging reference data -------------------------------------------------------

    def _init_cdb_reference(self, regions, nations, cities, groups, lines) -> None:
        cdb = self.scenario.databases["sales_cleaning"]
        cdb.insert_many("region", regions)
        cdb.insert_many("nation", nations)
        cdb.insert_many("city", cities)
        cdb.insert_many("productline", lines)
        cdb.insert_many("productgroup", groups)
