"""The system landscape of Fig. 1, built on the simulated substrate.

Three hosts mirror the paper's experimental setup: ``ES`` carries all
external systems (eleven database instances plus the application server
for the web services), ``IS`` is the integration system under test, and
``CS`` runs the toolsuite.  The wireless network between them becomes a
latency/bandwidth model.

:func:`build_scenario` wires up every external system:

===============  =======================================  ==========
name             role                                     kind
===============  =======================================  ==========
berlin_paris     region Europe, shared DB (location col)  RDBMS
trondheim        region Europe                            RDBMS
beijing          region Asia (local master data)          WebService
seoul            region Asia (local master data)          WebService
hongkong         region Asia (message-driven)             WebService
chicago          region America                           RDBMS
baltimore        region America                           RDBMS
madison          region America                           RDBMS
us_eastcoast     local consolidated DB (America)          RDBMS
sales_cleaning   global consolidated DB (staging area)    RDBMS
dwh              data warehouse                           RDBMS
dm_europe        data mart Europe                         RDBMS
dm_united_states data mart United States                  RDBMS
dm_asia          data mart Asia                           RDBMS
===============  =======================================  ==========

The message-driven applications (Vienna, San Diego, MDM_Europe) have no
endpooint: they *send*; the toolsuite client generates their messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.services.endpoints import DatabaseService, WebService
from repro.services.network import Link, Network
from repro.services.registry import ServiceRegistry
from repro.scenario import schemas
from repro.scenario.procedures import install_procedures

#: Key-space layout.  Sources within one region overlap deliberately so
#: the UNION DISTINCT steps of P03 and P09 have duplicates to remove;
#: regions are disjoint so the CDB merge is collision-free.
KEY_RANGES: dict[str, int] = {
    "berlin": 0,
    "paris": 500_000,
    "trondheim": 1_000_000,
    "vienna_orders": 1_500_000,
    "beijing": 2_000_000,
    "seoul": 2_000_000,  # overlaps beijing: P09 dedups
    "hongkong": 2_400_000,
    "hongkong_orders": 2_500_000,
    "chicago": 4_000_000,
    "baltimore": 4_000_000,  # overlaps chicago: P03 dedups
    "madison": 4_000_000,  # overlaps both
    "sandiego_orders": 4_600_000,
}

#: The P02 routing thresholds (Fig. 4 evaluates the Custkey).
EUROPE_PARIS_THRESHOLD = 500_000
EUROPE_TRONDHEIM_THRESHOLD = 1_000_000


@dataclass
class Scenario:
    """All built systems, ready for the Initializer and the engines."""

    network: Network
    registry: ServiceRegistry
    databases: dict[str, Database] = field(default_factory=dict)
    web_service_databases: dict[str, Database] = field(default_factory=dict)

    @property
    def all_databases(self) -> dict[str, Database]:
        return {**self.databases, **self.web_service_databases}

    def uninitialize(self) -> None:
        """Empty every external system (start of each benchmark period)."""
        for db in self.all_databases.values():
            db.truncate_all()


def _make_database(name: str, tables) -> Database:
    db = Database(name)
    for schema in tables:
        db.create_table(schema)
    return db


def build_scenario(
    latency: float = 1.0,
    bandwidth: float = 200.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> Scenario:
    """Construct the full Fig. 1 landscape.

    ``latency``/``bandwidth`` parameterize every ES↔IS link (the paper's
    wireless network); ``jitter`` adds seeded variance for robustness
    experiments.
    """
    network = Network(
        default_link=Link(latency=latency, bandwidth=bandwidth),
        jitter=jitter,
        seed=seed,
    )
    for host in ("ES", "IS", "CS"):
        network.add_host(host)
    registry = ServiceRegistry(network)
    scenario = Scenario(network, registry)

    # --- region Europe -----------------------------------------------------
    scenario.databases["berlin_paris"] = _make_database(
        "berlin_paris", schemas.europe_tables()
    )
    scenario.databases["trondheim"] = _make_database(
        "trondheim", schemas.europe_tables()
    )

    # --- region America ------------------------------------------------------
    for name in ("chicago", "baltimore", "madison", "us_eastcoast"):
        scenario.databases[name] = _make_database(name, schemas.tpch_tables())

    # --- staging / warehouse / marts -----------------------------------------
    scenario.databases["sales_cleaning"] = _make_database(
        "sales_cleaning", schemas.cdb_tables()
    )
    scenario.databases["dwh"] = _make_database("dwh", schemas.dwh_tables())
    scenario.databases["dm_europe"] = _make_database(
        "dm_europe", schemas.datamart_tables("europe")
    )
    scenario.databases["dm_united_states"] = _make_database(
        "dm_united_states", schemas.datamart_tables("united_states")
    )
    scenario.databases["dm_asia"] = _make_database(
        "dm_asia", schemas.datamart_tables("asia")
    )

    install_procedures(scenario.databases["sales_cleaning"],
                       scenario.databases["dwh"],
                       {
                           "dm_europe": scenario.databases["dm_europe"],
                           "dm_united_states": scenario.databases["dm_united_states"],
                           "dm_asia": scenario.databases["dm_asia"],
                       })

    for name, db in scenario.databases.items():
        registry.register(DatabaseService(name, "ES", db))

    # --- region Asia: data sources hidden behind web services -----------------
    # Beijing and Seoul each speak their own result-set dialect (their
    # "default result set XSDs"), which is why P09 needs two different
    # STX stylesheets; Hongkong only *sends* order messages but is also
    # queryable for verification.
    dialects = {
        "beijing": ("BJData", "Tuple"),
        "seoul": ("SeoulRS", "Record"),
        "hongkong": ("ResultSet", "Row"),
    }
    for ws_name, (result_tag, row_tag) in dialects.items():
        ws_db = _make_database(f"{ws_name}_store", schemas.asia_tables())
        scenario.web_service_databases[ws_name] = ws_db
        registry.register(
            WebService(
                ws_name,
                "ES",
                ws_db,
                types=schemas.ASIA_TYPES,
                result_tag=result_tag,
                row_tag=row_tag,
            )
        )

    return scenario
