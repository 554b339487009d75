"""The reference model of the synth period plan.

:func:`build_period_plan` is the body ``repro.synth.generator`` had
while it tested each new order key against the growing key list and
listed the SCD state's keys for every message, verbatim; it draws
through :class:`ParentPath`, the distribution methods of that time
(``choice`` → ``sample_int`` → ``sample_unit``), over the production
families' ``sample_unit``.  ``tests/synth/test_plan_oracle.py`` holds
production to it: equal plans, draw for draw.

The plan types, the seed derivation and the value pools are shared
vocabulary (the shape of the answer, not what it checks).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.datagen.distributions import Distribution, make_distribution
from repro.errors import ScaleFactorError
from repro.synth.generator import (
    _STREETS,
    PeriodPlan,
    RoundPlan,
    _sub_seed,
    source_groups,
)
from repro.synth.schema import ORDER_STATUS, SEGMENTS, TXN_KINDS
from repro.synth.spec import SynthSpec

T = TypeVar("T")


class ParentPath:
    """A family's draws through the base-class methods of that time."""

    def __init__(self, dist: Distribution):
        self.dist = dist

    def sample_unit(self) -> float:
        return self.dist.sample_unit()

    def sample_int(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ScaleFactorError(f"empty integer domain [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + min(int(self.sample_unit() * span), span - 1)

    def sample_float(self, lo: float, hi: float) -> float:
        if hi < lo:
            raise ScaleFactorError(f"empty float domain [{lo}, {hi})")
        return lo + self.sample_unit() * (hi - lo)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ScaleFactorError("choice over an empty sequence")
        return items[self.sample_int(0, len(items) - 1)]


def _parent_path(f: int, seed: int = 0) -> ParentPath:
    return ParentPath(make_distribution(f, seed=seed))


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
    pool_dist = _parent_path(f, seed=_sub_seed(seed, "pool", period))
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
        dist = _parent_path(f, seed=_sub_seed(seed, "src", period, i))
        coin = _parent_path(0, seed=_sub_seed(seed, "coin", period, i))
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
    txn_seq: dict[int, int] = {i: 0 for i in range(spec.sources)}
    new_cust_seq: dict[int, int] = {i: 0 for i in range(spec.sources)}
    for r in range(spec.rounds):
        rnd = RoundPlan()
        for i in range(spec.sources):
            dist = _parent_path(
                f, seed=_sub_seed(seed, "round", period, r, i)
            )
            coin = _parent_path(
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
                        if orderkey not in order_keys[i]:
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
                for _ in range(messages):
                    if coin.sample_unit() < spec.update_ratio and state:
                        custkey = dist.choice(list(state))
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
                    state[image["custkey"]] = dict(image)
                    rows.append(image)
                rnd.cust_updates[i] = rows
        plan.rounds.append(rnd)
    return plan
