"""Differential conformance of synthesized workloads across engines.

Every generated scenario must mean the same thing to every engine:
identical landscape digests, identical per-process status multisets,
and exact verification passing everywhere.  The sampled specs cover
each of the new process families (cdc, scd, dirty) as well as the
pipeline DAG knobs, and the generated data itself is property-checked
for FK closure and value-domain membership.
"""

from __future__ import annotations

import pytest

from repro.engine import ENGINES
from repro.parallel import RunSpec, client_from_spec
from repro.synth import SynthSpec, run_differential
from repro.synth.schema import ORDER_STATUS, SEGMENTS, TXN_KINDS

#: ≥6 sampled points of the knob space; each new family appears alone
#: at least once and in combination at least once.  The paired ``f``
#: exercises every skew distribution across the sample.
CONFORMANCE_SAMPLE = (
    ("sources=1,families=pipeline,depth=2,transform_mix=xml", 0),
    ("families=cdc,sources=2,messages=2", 1),
    ("families=scd,sources=2,update_ratio=0.9", 2),
    ("families=dirty,sources=3,noise=0.4", 3),
    ("families=cdc+scd,sources=2,rounds=1", 1),
    ("depth=1,transform_mix=balanced,noise=0.3", 2),
)


class TestDifferentialConformance:
    @pytest.mark.parametrize("knobs,f", CONFORMANCE_SAMPLE)
    def test_all_engines_agree(self, knobs, f):
        spec = SynthSpec.parse(knobs).resolve(17)
        report = run_differential(spec, f=f, periods=1)
        assert report.ok, report.summary()
        assert len(report.outcomes) == len(ENGINES)
        digests = {o.digest for o in report.outcomes}
        assert len(digests) == 1

    def test_unresolved_spec_is_rejected(self):
        with pytest.raises(ValueError, match="resolved"):
            run_differential(SynthSpec())

    def test_divergence_would_be_reported(self):
        # Different seeds are different scenarios; pretending they are
        # the same grid point must trip every comparison the bridge does.
        a = run_differential(
            SynthSpec(families=("cdc",), sources=1).resolve(1),
            engines=["interpreter"],
        )
        b = run_differential(
            SynthSpec(families=("cdc",), sources=1).resolve(2),
            engines=["interpreter"],
        )
        assert a.outcomes[0].digest != b.outcomes[0].digest


# ---------------------------------------------------------------------------
# property checks over the generated landscape
# ---------------------------------------------------------------------------


def _run_workload(knobs: str, f: int = 1, periods: int = 1):
    client = client_from_spec(RunSpec(
        synth=knobs, seed=17, distribution=f, periods=periods,
    ))
    result = client.run()
    assert result.verification.ok, result.verification.summary()
    return client.workload


class TestGeneratedDataProperties:
    @pytest.fixture(scope="class")
    def workload(self):
        return _run_workload("sources=3,noise=0.3", f=1)

    def test_fk_closure_in_every_database(self, workload):
        for name, db in workload.scenario.all_databases.items():
            assert db.check_integrity() == [], name

    def test_fk_declarations_cover_the_schema(self, workload):
        # Source orders/txns reference their source's customer table;
        # the SCD history references the current dimension.
        for i in range(workload.spec.sources):
            db = workload.source_db(i)
            child_fks = [
                fk
                for table_name in db.table_names
                for fk in db.table(table_name).schema.foreign_keys
            ]
            assert child_fks, f"src{i} declares no foreign keys"
        hub = workload.scenario.all_databases["synth_hub"]
        hist_fks = hub.table("dim_customer_hist").schema.foreign_keys
        assert any(
            fk.parent_table == "dim_customer" for fk in hist_fks
        )

    def test_value_domains_hold_everywhere(self, workload):
        truth = {d.index: d for d in workload.dialects}
        for i in range(workload.spec.sources):
            db = workload.source_db(i)
            dialect = truth[i]
            customers = db.table(dialect.table_names["customer"])
            seg = dialect.column_maps["customer"]["segment"]
            for row in customers:
                assert row[seg] in SEGMENTS
            orders = db.table(dialect.table_names["orders"])
            status = dialect.column_maps["orders"]["status"]
            amount = dialect.column_maps["orders"]["amount"]
            for row in orders:
                assert row[status] in ORDER_STATUS
                # SYU validates amounts; invalid rows are filtered out.
                assert row[amount] > 0
            txns = db.table(dialect.table_names["txn"])
            kind = dialect.column_maps["txn"]["kind"]
            for row in txns:
                assert row[kind] in TXN_KINDS

    def test_hub_amounts_survive_validation(self, workload):
        hub = workload.scenario.all_databases["synth_hub"]
        for row in hub.table("orders_hub"):
            assert row["amount"] > 0
            assert row["status"] in ORDER_STATUS

    def test_scd_history_versions_are_dense(self, workload):
        hub = workload.scenario.all_databases["synth_hub"]
        versions: dict[int, list[int]] = {}
        current: dict[int, int] = {}
        for row in hub.table("dim_customer_hist"):
            versions.setdefault(row["custkey"], []).append(row["version"])
            if row["current"] == 1:
                current[row["custkey"]] = current.get(row["custkey"], 0) + 1
        for custkey, vs in versions.items():
            assert sorted(vs) == list(range(1, len(vs) + 1)), custkey
            assert current.get(custkey) == 1, custkey

    def test_golden_table_blocks_are_unique(self, workload):
        hub = workload.scenario.all_databases["synth_hub"]
        blocks = [
            (row["address"], row["phone"])
            for row in hub.table("golden_customer")
        ]
        assert len(blocks) == len(set(blocks))
