"""Exact verification of synthesized runs against the generated plan.

The oracle and the message builders consume the *same*
:class:`~repro.synth.generator.PeriodPlan`, so expected state is a pure
fold over the plan — never a re-simulation.  Every fold replicates the
exact operator semantics the generated processes use:

* ``Table.upsert`` keeps the original row position (ordered-dict
  assignment is the oracle equivalent);
* ``UNION DISTINCT`` keeps the *first* row per key, inputs in process
  order (source index order here);
* the dirty-data folds replay the cleansing selection and the
  (address, phone) blocking-key dedup, so duplicate suppression and
  corruption removal are checked against the generated ground truth,
  not against heuristics.

All table reads go through plain iteration, which charges no counters —
verification never perturbs the landscape digest.
"""

from __future__ import annotations

from repro.synth.generator import PeriodPlan, SynthWorkload
from repro.toolsuite.verification import VerificationReport


def _read_canonical(workload: SynthWorkload, i: int, entity: str) -> list[dict]:
    """A source table's rows mapped back to canonical columns."""
    dialect = workload.dialects[i]
    mapping = dialect.columns(entity)  # canonical -> dialect (ground truth)
    table = workload.source_db(i).table(dialect.table(entity))
    return [
        {canonical: row[phys] for canonical, phys in mapping.items()}
        for row in table
    ]


# -- expected-state folds ----------------------------------------------------------


def expected_source_customers(
    workload: SynthWorkload, plan: PeriodPlan, i: int
) -> dict[int, dict]:
    """Initial population + (when scd is on) every round's upserts."""
    state: dict[int, dict] = {
        row["custkey"]: dict(row) for row in plan.initial_customers[i]
    }
    if "scd" in workload.spec.families:
        for rnd in plan.rounds:
            for image in rnd.cust_updates.get(i, ()):
                state[image["custkey"]] = dict(image)
    return state


def expected_source_orders(plan: PeriodPlan, i: int) -> dict[int, dict]:
    """Order upserts with the invalid-amount rows validated away."""
    state: dict[int, dict] = {}
    for rnd in plan.rounds:
        for row in rnd.orders.get(i, ()):
            if row["amount"] > 0:
                state[row["orderkey"]] = dict(row)
    return state


def expected_source_txns(plan: PeriodPlan, i: int) -> list[dict]:
    return [
        dict(row) for rnd in plan.rounds for row in rnd.txns.get(i, ())
    ]


def expected_hub_orders(
    workload: SynthWorkload, plan: PeriodPlan
) -> dict[int, dict]:
    """Per-group UNION DISTINCT over the final source states.

    Order keys never disappear from a source, so the last round's
    consolidation rewrites every key the hub ever saw — the final hub
    content equals the fold over final source states.
    """
    hub: dict[int, dict] = {}
    for members in workload.groups:
        for i in members:
            for key, row in expected_source_orders(plan, i).items():
                if key not in hub:
                    hub[key] = dict(row)
    return hub


def _round_customer_states(
    workload: SynthWorkload, plan: PeriodPlan
) -> list[list[list[dict]]]:
    """Per round: per source, the ordered customer rows *after* that
    round's master-data upserts (what the round's E2 processes query)."""
    states: list[dict[int, dict]] = [
        {row["custkey"]: dict(row) for row in plan.initial_customers[i]}
        for i in range(workload.spec.sources)
    ]
    snapshots: list[list[list[dict]]] = []
    for rnd in plan.rounds:
        if "scd" in workload.spec.families:
            for i in range(workload.spec.sources):
                for image in rnd.cust_updates.get(i, ()):
                    states[i][image["custkey"]] = dict(image)
        snapshots.append(
            [
                [dict(row) for row in states[i].values()]
                for i in range(workload.spec.sources)
            ]
        )
    return snapshots


def _staged_snapshot(per_source: list[list[dict]]) -> list[dict]:
    """One round's SYS staging: distinct-by-custkey then cleanse."""
    staged: dict[int, dict] = {}
    for rows in per_source:
        for row in rows:
            if row["custkey"] not in staged:
                staged[row["custkey"]] = dict(row)
    return [row for row in staged.values() if row["name"] != ""]


def expected_dimensions(
    workload: SynthWorkload, plan: PeriodPlan
) -> tuple[dict[int, dict], list[dict]]:
    """Replay ``sp_scd_apply`` over every round's staged snapshot."""
    dim: dict[int, dict] = {}
    hist: list[dict] = []
    max_version: dict[int, int] = {}
    for per_source in _round_customer_states(workload, plan):
        for row in _staged_snapshot(per_source):
            key = row["custkey"]
            current = dim.get(key)
            if current is None:
                dim[key] = dict(row)
                hist.append({**row, "version": 1, "current": 1})
                max_version[key] = 1
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
            dim[key] = dict(row)
            if type1_changed:
                for h in hist:
                    if h["custkey"] == key:
                        h["name"] = row["name"]
                        h["segment"] = row["segment"]
            if type2_changed:
                for h in hist:
                    if h["custkey"] == key and h["current"] == 1:
                        h["current"] = 0
                version = max_version[key] + 1
                max_version[key] = version
                hist.append({**row, "version": version, "current": 1})
    return dim, hist


def expected_golden(
    workload: SynthWorkload, plan: PeriodPlan
) -> dict[int, dict]:
    """Replay every round's dedup fold and accumulate the upserts."""
    golden: dict[int, dict] = {}
    for per_source in _round_customer_states(workload, plan):
        seen_blocks: set[tuple] = set()
        for rows in per_source:
            for row in rows:
                if row["name"] == "":
                    continue
                block = (row["address"], row["phone"])
                if block in seen_blocks:
                    continue
                seen_blocks.add(block)
                golden[row["custkey"]] = dict(row)
    return golden


# -- the report --------------------------------------------------------------------


def _compare_keyed(
    report: VerificationReport,
    name: str,
    actual: list[dict],
    expected: dict,
    key: str,
) -> None:
    got = {row[key]: row for row in actual}
    if got == expected:
        report.record(name, True)
        return
    missing = sorted(set(expected) - set(got))[:5]
    extra = sorted(set(got) - set(expected))[:5]
    differing = sorted(
        k for k in set(got) & set(expected) if got[k] != expected[k]
    )[:5]
    report.record(
        name,
        False,
        f"rows={len(got)}/{len(expected)} missing={missing} "
        f"extra={extra} differing={differing}",
    )


def verify_workload(workload: SynthWorkload, period: int) -> VerificationReport:
    """Verify the landscape state the final period left behind."""
    report = VerificationReport()
    spec = workload.spec
    plan = workload.plan(period)

    # Schema matching is a task of the workload: the processes were built
    # from the matcher's output; compare it with the recorded truth.
    for i, (truth, matched) in enumerate(
        zip(workload.dialects, workload.matched)
    ):
        ok = (
            matched.table_names == truth.table_names
            and matched.column_maps == truth.column_maps
        )
        report.record(
            f"schema_matching_src{i}",
            ok,
            f"matched={matched.table_names}/{matched.column_maps} "
            f"truth={truth.table_names}/{truth.column_maps}",
        )

    for i in range(spec.sources):
        _compare_keyed(
            report,
            f"source{i}_customers",
            _read_canonical(workload, i, "customer"),
            expected_source_customers(workload, plan, i),
            "custkey",
        )
        if "pipeline" in spec.families:
            _compare_keyed(
                report,
                f"source{i}_orders",
                _read_canonical(workload, i, "orders"),
                expected_source_orders(plan, i),
                "orderkey",
            )
        if "cdc" in spec.families:
            expected_txns = expected_source_txns(plan, i)
            actual_txns = _read_canonical(workload, i, "txn")
            report.record(
                f"source{i}_txn_log",
                actual_txns == expected_txns,
                f"rows={len(actual_txns)}/{len(expected_txns)}",
            )
            replica = workload.scenario.databases["synth_replica"]
            replicated = [dict(r) for r in replica.table(f"txn_src{i}")]
            report.record(
                f"cdc_replica_src{i}",
                replicated == expected_txns,
                f"rows={len(replicated)}/{len(expected_txns)}",
            )
            report.record(
                f"cdc_feed{i}_drained",
                workload.feeds[i].drained,
                f"cursor={workload.feeds[i].cursor} "
                f"lsn={len(workload.feeds[i].table)}",
            )

    hub = workload.scenario.databases.get("synth_hub")
    if "pipeline" in spec.families:
        _compare_keyed(
            report,
            "hub_consolidated_orders",
            [dict(r) for r in hub.table("orders_hub")],
            expected_hub_orders(workload, plan),
            "orderkey",
        )
    if "scd" in spec.families:
        dim_expected, hist_expected = expected_dimensions(workload, plan)
        _compare_keyed(
            report,
            "scd_dimension",
            [dict(r) for r in hub.table("dim_customer")],
            dim_expected,
            "custkey",
        )
        actual_hist = sorted(
            (dict(r) for r in hub.table("dim_customer_hist")),
            key=lambda r: (r["custkey"], r["version"]),
        )
        hist_expected = sorted(
            hist_expected, key=lambda r: (r["custkey"], r["version"])
        )
        report.record(
            "scd_history",
            actual_hist == hist_expected,
            f"rows={len(actual_hist)}/{len(hist_expected)}",
        )
        open_versions = [
            r["custkey"]
            for r in hub.table("dim_customer_hist")
            if r["current"] == 1
        ]
        report.record(
            "scd_single_current_version",
            len(open_versions) == len(set(open_versions)),
            "a customer has multiple current history versions",
        )
        staged_left = len(hub.table("scd_staging"))
        report.record(
            "scd_staging_drained", staged_left == 0, f"rows={staged_left}"
        )
    if "dirty" in spec.families:
        golden_expected = expected_golden(workload, plan)
        _compare_keyed(
            report,
            "dirty_golden_customers",
            [dict(r) for r in hub.table("golden_customer")],
            golden_expected,
            "custkey",
        )
        golden_keys = {r["custkey"] for r in hub.table("golden_customer")}
        leaked = [
            key
            for keys in plan.corrupted_keys.values()
            for key in keys
            if key in golden_keys
        ]
        report.record(
            "dirty_corruption_cleansed",
            not leaked,
            f"corrupted keys in golden table: {leaked[:5]}",
        )
        if "scd" not in spec.families:
            # With static addresses the blocking key holds, so every
            # generated duplicate must have merged into its original.
            unmerged = [
                (dup, orig)
                for pairs in plan.duplicate_pairs.values()
                for dup, orig in pairs
                if dup in golden_keys or orig not in golden_keys
            ]
            report.record(
                "dirty_duplicates_merged",
                not unmerged,
                f"unmerged duplicate pairs: {unmerged[:5]}",
            )

    for name, db in sorted(workload.scenario.databases.items()):
        violations = db.check_integrity()
        report.record(
            f"integrity_{name}",
            not violations,
            "; ".join(str(v) for v in violations[:3]),
        )
    return report
