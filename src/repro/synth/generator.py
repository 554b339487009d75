"""The scenario synthesizer: knobs → landscape + processes + plan.

:func:`synthesize` turns one resolved :class:`~repro.synth.spec.SynthSpec`
into a :class:`SynthWorkload`:

* a :class:`~repro.scenario.topology.Scenario` (hosts, network, service
  registry, source/hub/replica databases) structurally identical to what
  ``repro.scenario.build_scenario`` emits, so engines, storage, serve and
  the cluster overlay run it unchanged;
* MTM :class:`~repro.mtm.process.ProcessType` definitions for the enabled
  families, built *through the schema matcher* (the matched mapping, not
  the recorded ground truth);
* a fully deterministic :class:`PeriodPlan` per period — the single
  source of truth that both the message builders and the exact-verification
  oracle consume, so ground truth is never re-simulated separately.

Every random draw goes through ``repro.datagen.distributions`` seeded
from ``(spec.seed, purpose, period, …)``, with the run's distribution
factor ``f`` selecting the skew family — the dirty-data noise rides on
the same machinery as the classic Initializer's.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.datagen.distributions import Distribution, make_distribution
from repro.db.database import Database
from repro.db.expressions import col, lit
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.mtm.blocks import Sequence
from repro.mtm.message import Message
from repro.mtm.operators import (
    Convert,
    Invoke,
    Projection,
    Receive,
    Selection,
    Union,
    ValidateRows,
)
from repro.mtm.process import EventType, ProcessGroup, ProcessType
from repro.scenario.processes.helpers import (
    execute_request,
    insert_request,
    query_request,
)
from repro.scenario.topology import Scenario
from repro.services.endpoints import DatabaseService, Envelope
from repro.services.network import Link, Network
from repro.services.registry import ServiceRegistry
from repro.synth.feed import LSN_COLUMN, ChangeFeed, ChangeFeedService
from repro.synth.schema import (
    CANONICAL_TYPES,
    ORDER_STATUS,
    SEGMENTS,
    TXN_KINDS,
    SourceDialect,
    canonical_schema,
    dialect_for,
    dialect_schema,
    matched_dialect,
)
from repro.synth.spec import SynthSpec
from repro.xmlkit.convert import rows_to_resultset

HUB_DB = "synth_hub"
REPLICA_DB = "synth_replica"

_STREETS = (
    "Oak Avenue", "Birch Road", "Cedar Lane", "Elm Street",
    "Maple Drive", "Pine Court", "Willow Way", "Aspen Place",
)

#: Canonical entity → its column names, in order.
_COLS = {entity: list(types) for entity, types in CANONICAL_TYPES.items()}


def _sub_seed(seed: int, *tags) -> int:
    """Stable derived seed for one purpose (no Python hash randomization)."""
    label = ":".join(str(t) for t in tags)
    return seed * 1_000_003 + zlib.crc32(label.encode())


# -- the deterministic plan --------------------------------------------------------


@dataclass
class RoundPlan:
    """Canonical-form message payloads of one round, per source index."""

    orders: dict[int, list[dict]] = field(default_factory=dict)
    txns: dict[int, list[dict]] = field(default_factory=dict)
    cust_updates: dict[int, list[dict]] = field(default_factory=dict)


@dataclass
class PeriodPlan:
    """Everything one period sends plus the dirty-data ground truth."""

    period: int
    #: source → initial canonical customer rows (dirt included), in
    #: physical insertion order.
    initial_customers: dict[int, list[dict]] = field(default_factory=dict)
    #: source → (duplicate custkey, original custkey) pairs — the exact
    #: entity-matching ground truth for the dedup task.
    duplicate_pairs: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict
    )
    #: source → custkeys of corrupted (empty-name) rows the cleansing
    #: selection must drop.
    corrupted_keys: dict[int, list[int]] = field(default_factory=dict)
    rounds: list[RoundPlan] = field(default_factory=list)

    def message_count(self) -> int:
        return sum(
            len(rows)
            for rnd in self.rounds
            for feed in _FEEDS
            for rows in getattr(rnd, feed.kind).values()
        )


class _Feed(NamedTuple):
    """One E1 family's message feed into every source."""

    family: str
    prefix: str  # process id prefix, completed by the source index
    entity: str  # the canonical entity the feed writes
    kind: str  # the RoundPlan field holding its messages
    mode: str  # the insert mode of its write
    stem: str  # description: "synth <stem> into source <i>"
    message_type: str


#: The E1 feeds in scheduling order: the feed processes and the stream
#: catalog are both built from this table.
_FEEDS = (
    _Feed("pipeline", "SYU", "orders", "orders", "upsert", "order feed",
          "SynthOrder"),
    _Feed("cdc", "SYT", "txn", "txns", "insert", "transaction feed",
          "SynthTxn"),
    _Feed("scd", "SYM", "customer", "cust_updates", "upsert",
          "master-data update", "SynthCustomer"),
)


def build_period_plan(spec: SynthSpec, f: int, period: int) -> PeriodPlan:
    """Deterministically derive one period's messages and ground truth."""
    assert spec.seed is not None, "plan needs a resolved spec"
    seed = spec.seed
    plan = PeriodPlan(period=period)
    scale = spec.scale
    entity_count = max(6, round(10 * scale))

    # Shared entity pool: sources overlap (the same real-world entity
    # appears in several sources), which is what makes cross-source
    # entity matching meaningful.
    pool_dist = make_distribution(f, seed=_sub_seed(seed, "pool", period))
    entities: list[dict] = []
    for k in range(entity_count):
        entities.append(
            {
                "custkey": 10_000 + k,
                "name": f"Customer {k:05d}",
                "address": (
                    f"{pool_dist.sample_int(1, 999)} "
                    f"{pool_dist.choice(_STREETS)}"
                ),
                "phone": (
                    f"{pool_dist.sample_int(100, 999)}-"
                    f"{pool_dist.sample_int(1000, 9999)}"
                ),
                "segment": pool_dist.choice(SEGMENTS),
            }
        )

    # Per-source populations with injected dirt.  Value picks go through
    # the run's skewed distribution (that is where DIPBench's f matters);
    # rate decisions use a uniform coin so the noise / update_ratio knobs
    # keep their calibration under skew.
    current_customers: dict[int, dict[int, dict]] = {}
    for i in range(spec.sources):
        dist = make_distribution(f, seed=_sub_seed(seed, "src", period, i))
        coin = make_distribution(0, seed=_sub_seed(seed, "coin", period, i))
        rows: list[dict] = []
        for entity in entities:
            if coin.sample_unit() < 0.65:
                rows.append(dict(entity))
        if not rows:
            rows.append(dict(entities[i % len(entities)]))
        dirty: list[dict] = []
        pairs: list[tuple[int, int]] = []
        corrupted: list[int] = []
        dup_seq = 0
        for row in rows:
            if coin.sample_unit() < spec.noise:
                # Duplicate entity: fresh surrogate key, varied name,
                # same address+phone (the blocking key dedup merges on).
                dup_key = 90_000 + i * 1_000 + dup_seq
                dup_seq += 1
                dirty.append(
                    {**row, "custkey": dup_key, "name": row["name"] + " II"}
                )
                pairs.append((dup_key, row["custkey"]))
        corrupt_count = 0
        for row in list(rows):
            if coin.sample_unit() < spec.noise / 2:
                # Corrupted master data: empty name, unique address and
                # phone so the dirty row never merges with a real entity.
                bad_key = 95_000 + i * 1_000 + corrupt_count
                corrupted.append(bad_key)
                dirty.append(
                    {
                        "custkey": bad_key,
                        "name": "",
                        "address": f"0 Unknown {i}-{corrupt_count}",
                        "phone": f"000-{corrupt_count:04d}",
                        "segment": dist.choice(SEGMENTS),
                    }
                )
                corrupt_count += 1
        all_rows = rows + dirty
        plan.initial_customers[i] = all_rows
        plan.duplicate_pairs[i] = pairs
        plan.corrupted_keys[i] = corrupted
        current_customers[i] = {r["custkey"]: dict(r) for r in all_rows}

    # Rounds: the E1 message streams, referencing keys that exist.
    messages = max(1, round(spec.messages * scale))
    groups = source_groups(spec)
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    order_keys: dict[int, list[int]] = {i: [] for i in range(spec.sources)}
    known_orders: dict[int, set[int]] = {i: set() for i in range(spec.sources)}
    txn_seq: dict[int, int] = {i: 0 for i in range(spec.sources)}
    new_cust_seq: dict[int, int] = {i: 0 for i in range(spec.sources)}
    for r in range(spec.rounds):
        rnd = RoundPlan()
        for i in range(spec.sources):
            dist = make_distribution(
                f, seed=_sub_seed(seed, "round", period, r, i)
            )
            coin = make_distribution(
                0, seed=_sub_seed(seed, "roundcoin", period, r, i)
            )
            initial_keys = [row["custkey"] for row in plan.initial_customers[i]]
            if "pipeline" in spec.families:
                rows = []
                for _ in range(messages):
                    if coin.sample_unit() < spec.update_ratio and order_keys[i]:
                        orderkey = dist.choice(order_keys[i])
                    else:
                        # Group-shared key range: sources in one
                        # consolidation group collide deliberately so
                        # UNION DISTINCT has duplicates to remove.
                        orderkey = (
                            100_000
                            + group_of[i] * 10_000
                            + dist.sample_int(0, 4_999)
                        )
                        if orderkey not in known_orders[i]:
                            known_orders[i].add(orderkey)
                            order_keys[i].append(orderkey)
                    amount = round(dist.sample_float(10.0, 500.0), 2)
                    if coin.sample_unit() < spec.noise:
                        amount = -amount  # invalid: row validation drops it
                    rows.append(
                        {
                            "orderkey": orderkey,
                            "custkey": dist.choice(initial_keys),
                            "amount": amount,
                            "status": dist.choice(ORDER_STATUS),
                        }
                    )
                rnd.orders[i] = rows
            if "cdc" in spec.families:
                rows = []
                for _ in range(messages):
                    txn_seq[i] += 1
                    rows.append(
                        {
                            "txnkey": i * 100_000 + txn_seq[i],
                            "custkey": dist.choice(initial_keys),
                            "amount": round(dist.sample_float(1.0, 200.0), 2),
                            "kind": dist.choice(TXN_KINDS),
                        }
                    )
                rnd.txns[i] = rows
            if "scd" in spec.families:
                rows = []
                state = current_customers[i]
                keys = list(state)  # kept in step with state for dist.choice
                for _ in range(messages):
                    if coin.sample_unit() < spec.update_ratio and keys:
                        custkey = dist.choice(keys)
                        image = dict(state[custkey])
                        if coin.sample_unit() < 0.5:
                            # Type-2 change: a new address and phone.
                            image["address"] = (
                                f"{dist.sample_int(1, 999)} "
                                f"{dist.choice(_STREETS)}"
                            )
                            image["phone"] = (
                                f"{dist.sample_int(100, 999)}-"
                                f"{dist.sample_int(1000, 9999)}"
                            )
                        else:
                            # Type-1 change: segment reassignment.
                            image["segment"] = dist.choice(SEGMENTS)
                    else:
                        new_cust_seq[i] += 1
                        custkey = 50_000 + i * 1_000 + new_cust_seq[i]
                        image = {
                            "custkey": custkey,
                            "name": f"Customer N{i}-{new_cust_seq[i]:04d}",
                            "address": (
                                f"{dist.sample_int(1, 999)} "
                                f"{dist.choice(_STREETS)}"
                            ),
                            "phone": (
                                f"{dist.sample_int(100, 999)}-"
                                f"{dist.sample_int(1000, 9999)}"
                            ),
                            "segment": dist.choice(SEGMENTS),
                        }
                    if image["custkey"] not in state:
                        keys.append(image["custkey"])
                    state[image["custkey"]] = dict(image)
                    rows.append(image)
                rnd.cust_updates[i] = rows
        plan.rounds.append(rnd)
    return plan


def source_groups(spec: SynthSpec) -> list[list[int]]:
    """Consolidation groups: consecutive chunks of ``fan_out`` sources."""
    return [
        list(range(start, min(start + spec.fan_out, spec.sources)))
        for start in range(0, spec.sources, spec.fan_out)
    ]


# -- the SCD stored procedure ------------------------------------------------------


def sp_scd_apply(db: Database) -> dict[str, int]:
    """Apply the staged canonical snapshot to the dimension tables.

    Type 1 (``name``, ``segment``): overwrite in the dimension *and* in
    every history version.  Type 2 (``address``, ``phone``): close the
    current history row and open the next version.  Runs inside the hub
    database, so its row traffic is charged as external processing cost
    by ``DatabaseService.op_execute``.
    """
    staging = db.table("scd_staging")
    dim = db.table("dim_customer")
    hist = db.table("dim_customer_hist")
    max_version: dict[int, int] = {}
    for h in hist:
        key = h["custkey"]
        max_version[key] = max(max_version.get(key, 0), h["version"])
    inserted = type1 = type2 = 0
    snapshot = staging.to_relation()
    for row in snapshot.rows:
        key = row["custkey"]
        current = dim.get(key)
        if current is None:
            dim.insert(dict(row))
            hist.insert({**row, "version": 1, "current": 1})
            max_version[key] = 1
            inserted += 1
            continue
        type1_changed = (
            row["name"] != current["name"]
            or row["segment"] != current["segment"]
        )
        type2_changed = (
            row["address"] != current["address"]
            or row["phone"] != current["phone"]
        )
        if not (type1_changed or type2_changed):
            continue
        dim.upsert(dict(row))
        if type1_changed:
            hist.update(
                {"name": row["name"], "segment": row["segment"]},
                predicate=col("custkey") == lit(key),
            )
            type1 += 1
        if type2_changed:
            hist.update(
                {"current": 0},
                predicate=(col("custkey") == lit(key))
                & (col("current") == lit(1)),
            )
            version = max_version[key] + 1
            max_version[key] = version
            hist.insert({**row, "version": version, "current": 1})
            type2 += 1
    staging.truncate()
    return {"inserted": inserted, "type1": type1, "type2": type2}


# -- request builders beyond the scenario helpers ---------------------------------


def pull_request():
    """Request builder: pull pending change records from a feed."""

    def build(context) -> Envelope:
        return Envelope("pull", {}, payload_units=1.0)

    build.kind = "pull"
    return build


def ack_request(input_var: str):
    """Request builder: ack a pulled batch up to its highest LSN."""

    def build(context) -> Envelope:
        relation = context.get(input_var).relation()
        upto = max((row[LSN_COLUMN] for row in relation.rows), default=0)
        return Envelope("ack", {"upto": upto}, payload_units=1.0)

    build.kind = "ack"
    build.input_var = input_var
    return build


# -- the workload ------------------------------------------------------------------


@dataclass
class SynthWorkload:
    """One synthesized workload: landscape, processes, plan, truth."""

    spec: SynthSpec
    f: int
    scenario: Scenario
    processes: dict[str, ProcessType]
    dialects: list[SourceDialect]
    matched: list[SourceDialect]
    feeds: dict[int, ChangeFeed]
    groups: list[list[int]]
    #: The last period's plan only: a run never comes back to a period.
    _plan: PeriodPlan | None = None

    def plan(self, period: int) -> PeriodPlan:
        if self._plan is None or self._plan.period != period:
            self._plan = build_period_plan(self.spec, self.f, period)
        return self._plan

    def source_db(self, index: int) -> Database:
        return self.scenario.databases[f"src{index}"]

    def populate(self, period: int) -> None:
        """Plant the period's initial source data (dialect layout)."""
        plan = self.plan(period)
        for i in range(self.spec.sources):
            db = self.source_db(i)
            dialect = self.dialects[i]
            table = dialect.table("customer")
            mapping = dialect.columns("customer")
            for row in plan.initial_customers[i]:
                db.insert(
                    table, {mapping[k]: v for k, v in row.items()}
                )

    # -- E1 message building ----------------------------------------------------

    def order_message(self, row: dict) -> Message:
        document = rows_to_resultset(_COLS["orders"], [row], table="orders")
        return Message(document, message_type="SynthOrder")

    def txn_message(self, row: dict) -> Message:
        document = rows_to_resultset(_COLS["txn"], [row], table="txn")
        return Message(document, message_type="SynthTxn")

    def customer_message(self, row: dict) -> Message:
        document = rows_to_resultset(_COLS["customer"], [row], table="customer")
        return Message(document, message_type="SynthCustomer")

    # -- stream catalog ---------------------------------------------------------

    def e1_streams(self) -> list[tuple[str, int, str]]:
        """(process id, source index, kind) of every E1 stream, in the
        fixed scheduling order."""
        return [
            (f"{feed.prefix}{i}", i, feed.kind)
            for feed in _FEEDS
            if feed.family in self.spec.families
            for i in range(self.spec.sources)
        ]

    def e2_processes(self) -> list[str]:
        """Dependent process ids in their serialized execution order."""
        ids: list[str] = []
        if "pipeline" in self.spec.families:
            ids += [f"SYP{g}" for g in range(len(self.groups))]
        if "cdc" in self.spec.families:
            ids += [f"SYC{i}" for i in range(self.spec.sources)]
        if "scd" in self.spec.families:
            ids.append("SYS")
        if "dirty" in self.spec.families:
            ids.append("SYD")
        return ids


def synthesize(spec: SynthSpec, f: int = 0, jitter: float = 0.0) -> SynthWorkload:
    """Build the full workload for a resolved spec (seed must be set)."""
    spec.assert_valid()
    if spec.seed is None:
        raise ValueError("synthesize() needs a resolved spec (seed set)")

    network = Network(
        default_link=Link(latency=1.0, bandwidth=200.0),
        jitter=jitter,
        seed=spec.seed,
    )
    for host in ("ES", "IS", "CS"):
        network.add_host(host)
    registry = ServiceRegistry(network)
    scenario = Scenario(network, registry)

    dialects = [dialect_for(i) for i in range(spec.sources)]
    matched = [matched_dialect(d) for d in dialects]
    groups = source_groups(spec)

    # Source databases (dialected physical schemas).
    feeds: dict[int, ChangeFeed] = {}
    for i, dialect in enumerate(dialects):
        db = Database(f"src{i}")
        db.create_table(dialect_schema(dialect, "customer"))
        if "pipeline" in spec.families:
            db.create_table(dialect_schema(dialect, "orders"))
        if "cdc" in spec.families:
            table = db.create_table(dialect_schema(dialect, "txn"))
            feed = ChangeFeed(table)
            feeds[i] = feed
            registry.register(
                ChangeFeedService(f"feed{i}", "ES", feed)
            )
        scenario.databases[db.name] = db
        registry.register(DatabaseService(db.name, "ES", db))

    # The hub (canonical warehouse schema).
    if spec.families != ("cdc",):
        hub = Database(HUB_DB)
        if "pipeline" in spec.families:
            hub.create_table(canonical_schema("orders", "orders_hub"))
        if "scd" in spec.families:
            hub.create_table(canonical_schema("customer", "scd_staging"))
            hub.create_table(canonical_schema("customer", "dim_customer"))
            hist_columns = [
                Column("custkey", "INTEGER", nullable=False),
                Column("version", "INTEGER", nullable=False),
                Column("name", "VARCHAR", length=44),
                Column("address", "VARCHAR", length=60),
                Column("phone", "VARCHAR", length=20),
                Column("segment", "VARCHAR", length=12),
                Column("current", "INTEGER"),
            ]
            hub.create_table(
                TableSchema(
                    "dim_customer_hist",
                    hist_columns,
                    primary_key=("custkey", "version"),
                    foreign_keys=[
                        ForeignKey(
                            columns=("custkey",),
                            parent_table="dim_customer",
                            parent_columns=("custkey",),
                        )
                    ],
                )
            )
            hub.create_procedure(
                "sp_scd_apply",
                sp_scd_apply,
                description="type-1/type-2 dimension maintenance",
            )
        if "dirty" in spec.families:
            hub.create_table(canonical_schema("customer", "golden_customer"))
        scenario.databases[HUB_DB] = hub
        registry.register(DatabaseService(HUB_DB, "ES", hub))

    # The replication target of the CDC family.
    if "cdc" in spec.families:
        replica = Database(REPLICA_DB)
        for i in range(spec.sources):
            replica.create_table(canonical_schema("txn", f"txn_src{i}"))
        scenario.databases[REPLICA_DB] = replica
        registry.register(DatabaseService(REPLICA_DB, "ES", replica))

    processes = _build_processes(spec, matched, groups)
    return SynthWorkload(
        spec=spec,
        f=f,
        scenario=scenario,
        processes=processes,
        dialects=dialects,
        matched=matched,
        feeds=feeds,
        groups=groups,
    )


# -- process construction ----------------------------------------------------------


def _to_dialect(mapping: dict[str, str], canonical_cols: list[str]) -> dict:
    """Projection mapping canonical → dialect (output name → input name)."""
    return {mapping[name]: name for name in canonical_cols}


def _to_canonical(mapping: dict[str, str], canonical_cols: list[str]) -> dict:
    """Projection mapping dialect → canonical (output name → input name)."""
    return {name: mapping[name] for name in canonical_cols}


def _gather(
    matched: list[SourceDialect], members: list[int] | range, entity: str
) -> tuple[list, list[str]]:
    """Query each member source's ``entity`` table and project it to
    canonical columns: the steps, and their outputs in member order."""
    steps: list = []
    for i in members:
        m = matched[i]
        steps += [
            Invoke(f"src{i}", query_request(m.table(entity)), output=f"q{i}"),
            Projection(f"q{i}", f"c{i}",
                       _to_canonical(m.columns(entity), _COLS[entity])),
        ]
    return steps, [f"c{i}" for i in members]


def _transform_stages(
    spec: SynthSpec, in_var: str, tag: str
) -> tuple[list, str]:
    """The DAG-depth transform stages of a consolidation process.

    ``transform_mix`` selects relational stages (lossless selections and
    expression projections), XML stages (relation → result set → relation
    round-trips), or an alternation of the two.
    """
    steps: list = []
    var = in_var
    for s in range(spec.depth):
        out = f"{tag}_s{s}"
        use_xml = spec.transform_mix == "xml" or (
            spec.transform_mix == "balanced" and s % 2 == 1
        )
        if use_xml:
            steps.append(
                Convert(var, f"{out}_x", "relation_to_xml", table="stage")
            )
            steps.append(
                Convert(
                    f"{out}_x",
                    out,
                    "xml_to_relation",
                    columns=_COLS["orders"],
                    types=CANONICAL_TYPES["orders"],
                )
            )
        elif s % 2 == 0:
            steps.append(
                Selection(var, out, col("amount") > lit(0.0))
            )
        else:
            projection = {name: name for name in _COLS["orders"]}
            projection["amount"] = col("amount") + lit(0.0)
            steps.append(Projection(var, out, projection))
        var = out
    return steps, var


def _build_processes(
    spec: SynthSpec,
    matched: list[SourceDialect],
    groups: list[list[int]],
) -> dict[str, ProcessType]:
    processes: dict[str, ProcessType] = {}

    def add(process: ProcessType) -> None:
        processes[process.process_id] = process

    # E1 feeds, one per source per enabled family.
    for i, m in enumerate(matched):
        for feed in _FEEDS:
            if feed.family not in spec.families:
                continue
            columns = _COLS[feed.entity]
            steps = [
                Receive("msg", expected_type=feed.message_type),
                Convert("msg", "rows", "xml_to_relation", columns=columns,
                        types=CANONICAL_TYPES[feed.entity]),
            ]
            rows = "rows"
            if feed.family == "pipeline":
                # One check object per process, never shared: a deploy
                # compiles each distinct expression object, and tests pin
                # those counts.
                steps.append(ValidateRows(
                    "rows", checks={"amount_positive": col("amount") > lit(0.0)},
                    output="valid", filter_invalid=True,
                ))
                rows = "valid"
            steps += [
                Projection(rows, "out_rows",
                           _to_dialect(m.columns(feed.entity), columns)),
                Invoke(f"src{i}", insert_request(
                    m.table(feed.entity), "out_rows", mode=feed.mode
                ), output="ack"),
            ]
            add(ProcessType(
                f"{feed.prefix}{i}", ProcessGroup.A,
                f"synth {feed.stem} into source {i}",
                EventType.E1_MESSAGE, Sequence(steps),
            ))

    # Pipeline consolidations: one DAG per source group.
    if "pipeline" in spec.families:
        for g, members in enumerate(groups):
            steps, inputs = _gather(matched, members, "orders")
            steps.append(Union(inputs, "merged", distinct_key=("orderkey",)))
            stages, final_var = _transform_stages(spec, "merged", f"p{g}")
            steps += stages
            steps.append(Invoke(HUB_DB, insert_request(
                "orders_hub", final_var, mode="upsert"
            ), output="ack"))
            add(ProcessType(
                f"SYP{g}", ProcessGroup.B,
                f"synth consolidation of sources {members}",
                EventType.E2_SCHEDULE, Sequence(steps),
            ))

    # CDC replication pulls, one per source.
    if "cdc" in spec.families:
        for i, m in enumerate(matched):
            add(
                ProcessType(
                    f"SYC{i}",
                    ProcessGroup.B,
                    f"synth CDC replication of source {i}",
                    EventType.E2_SCHEDULE,
                    Sequence(
                        [
                            Invoke(
                                f"feed{i}", pull_request(), output="changes"
                            ),
                            Projection(
                                "changes",
                                "canon",
                                _to_canonical(m.columns("txn"), _COLS["txn"]),
                            ),
                            Invoke(
                                REPLICA_DB,
                                insert_request(
                                    f"txn_src{i}", "canon", mode="insert"
                                ),
                                output="applied",
                            ),
                            Invoke(
                                f"feed{i}",
                                ack_request("changes"),
                                output="ack",
                            ),
                        ]
                    ),
                )
            )

    # SCD dimension maintenance: one global apply over all sources.
    if "scd" in spec.families:
        steps, inputs = _gather(matched, range(spec.sources), "customer")
        steps += [
            Union(inputs, "allcust", distinct_key=("custkey",)),
            Selection("allcust", "clean", col("name") != lit("")),
            Invoke(HUB_DB, insert_request("scd_staging", "clean", mode="upsert"),
                   output="staged"),
            Invoke(HUB_DB, execute_request("sp_scd_apply"), output="applied"),
        ]
        add(ProcessType(
            "SYS", ProcessGroup.C, "synth type-1/type-2 dimension maintenance",
            EventType.E2_SCHEDULE, Sequence(steps),
        ))

    # Dirty-data dedup / entity matching into the golden table.
    if "dirty" in spec.families:
        steps, inputs = _gather(matched, range(spec.sources), "customer")
        steps += [
            Union(inputs, "allc", distinct_key=None),
            Selection("allc", "cleanc", col("name") != lit("")),
            # Entity matching: UNION DISTINCT on the (address, phone)
            # blocking key — first occurrence wins, recovering exactly
            # one golden record per real-world entity.
            Union(["cleanc"], "golden", distinct_key=("address", "phone")),
            Invoke(HUB_DB, insert_request(
                "golden_customer", "golden", mode="upsert"
            ), output="ack"),
        ]
        add(ProcessType(
            "SYD", ProcessGroup.C,
            "synth dedup/entity matching into the golden table",
            EventType.E2_SCHEDULE, Sequence(steps),
        ))
    return processes
