"""Client choreography, Monitor metrics/plots, verification."""

import pytest

from repro.errors import BenchmarkError
from repro.metrics.navg import compute_metrics
from repro.parallel import RunSpec, client_from_spec
from repro.resilience import FaultEvent, FaultSpec
from repro.toolsuite import Monitor
from repro.toolsuite.verification import VerificationReport


@pytest.fixture(scope="module")
def period_result():
    """One full period at d=0.05, shared across the read-only tests."""
    client = client_from_spec(RunSpec(datasize=0.05, periods=1, seed=5))
    scenario, engine = client.scenario, client.engine
    result = client.run()
    return scenario, engine, client, result


class TestPeriodChoreography:
    def test_all_fifteen_types_executed(self, period_result):
        _, _, _, result = period_result
        executed = {r.process_id for r in result.records}
        assert executed == {f"P{i:02d}" for i in range(1, 16)}

    def test_no_failed_instances(self, period_result):
        _, _, _, result = period_result
        assert result.error_instances == 0

    def test_message_counts_match_table_2(self, period_result):
        _, _, _, result = period_result
        by_type = {}
        for record in result.records:
            by_type[record.process_id] = by_type.get(record.process_id, 0) + 1
        assert by_type["P04"] == 56  # 1100*0.05 + 1
        assert by_type["P08"] == 46
        assert by_type["P10"] == 53
        assert by_type["P03"] == 1
        assert by_type["P12"] == 1

    def test_streams_assigned(self, period_result):
        _, _, _, result = period_result
        stream_of = {r.process_id: r.stream for r in result.records}
        assert stream_of["P01"] == "A"
        assert stream_of["P04"] == "B"
        assert stream_of["P12"] == "C"
        assert stream_of["P15"] == "D"

    def test_streams_c_and_d_serialized(self, period_result):
        """C starts only after A and B completed; D after C (Fig. 7)."""
        _, _, _, result = period_result
        ab_completions = [
            r.completion for r in result.records if r.stream in ("A", "B")
        ]
        p12 = next(r for r in result.records if r.process_id == "P12")
        p13 = next(r for r in result.records if r.process_id == "P13")
        p14 = next(r for r in result.records if r.process_id == "P14")
        p15 = next(r for r in result.records if r.process_id == "P15")
        assert p12.arrival >= max(ab_completions)
        assert p13.start >= p12.completion
        assert p14.arrival >= p13.completion
        assert p15.arrival >= p14.completion

    def test_dependent_extractions_serialized(self, period_result):
        _, _, _, result = period_result
        by_id = {r.process_id: r for r in result.records
                 if r.process_id in ("P04", "P05", "P06", "P07")}
        p04_last = max(
            r.completion for r in result.records if r.process_id == "P04"
        )
        assert by_id["P05"].arrival >= p04_last
        assert by_id["P06"].arrival >= by_id["P05"].completion
        assert by_id["P07"].arrival >= by_id["P06"].completion

    def test_verification_passes(self, period_result):
        _, _, _, result = period_result
        assert result.verification.ok, result.verification.summary()

    def test_period_bounds_validated(self):
        with pytest.raises(BenchmarkError, match="periods: out of range"):
            client_from_spec(RunSpec(periods=0))
        with pytest.raises(BenchmarkError, match="periods: out of range"):
            client_from_spec(RunSpec(periods=101))


class TestMonitor:
    def test_metrics_in_tu(self, period_result):
        """With t=1 engine units equal tu; with t=2 the report doubles."""
        _, _, client, _ = period_result
        base = client.monitor.metrics()
        doubled = Monitor(time_scale=2.0)
        doubled.absorb(client.monitor.records)
        report = doubled.metrics()
        for pid in base.process_ids:
            assert report[pid].navg_plus == pytest.approx(
                2 * base[pid].navg_plus
            )

    def test_metrics_for_period(self, period_result):
        _, _, client, _ = period_result

        def for_period(period):
            return compute_metrics(
                client.monitor.records.where("period", lambda p: p == period)
            )

        assert "P04" in for_period(0).per_type
        assert for_period(99).process_ids == []

    def test_ascii_plot_lists_all_types(self, period_result):
        _, _, client, _ = period_result
        plot = client.monitor.performance_plot()
        for i in range(1, 16):
            assert f"P{i:02d}" in plot
        assert "NAVG+" in plot

    def test_svg_plot_well_formed(self, period_result):
        _, _, client, _ = period_result
        svg = client.monitor.performance_plot_svg()
        from repro.xmlkit.doc import parse_xml

        doc = parse_xml(svg)
        # The stdlib parser expands the xmlns into the tag.
        assert doc.tag.endswith("svg")
        rects = [e for e in doc.iter() if e.tag.endswith("rect")]
        assert len(rects) == 2 * 15  # NAVG+ and NAVG bars per type

    def test_save_plot(self, period_result, tmp_path):
        _, _, client, _ = period_result
        path = tmp_path / "plot.svg"
        client.monitor.save_plot(str(path))
        assert path.read_text().startswith("<svg")

    def test_empty_monitor_plot(self):
        assert "(no data)" in Monitor().performance_plot()


class TestVerificationReport:
    def test_summary_lists_failures(self):
        report = VerificationReport()
        report.record("good_check", True)
        report.record("bad_check", False, "expected 1 got 2")
        assert not report.ok
        summary = report.summary()
        assert "FAILED" in summary
        assert "bad_check" in summary
        assert "expected 1 got 2" in summary

    def test_ok_summary(self):
        report = VerificationReport()
        report.record("only_check", True)
        assert report.ok
        assert "OK" in report.summary()

    def test_verification_detects_broken_state(self, period_result):
        """Tamper with the warehouse after the run: phase post must fail."""
        scenario, engine, client, _ = period_result
        from repro.toolsuite.verification import verify_period

        dwh = scenario.databases["dwh"]
        dwh.table("orders").insert(
            {"orderkey": 123456789, "custkey": 987654321,
             "orderdate": "2007-01-01", "status": "O",
             "priority": "5-LOW", "totalprice": 1}
        )
        report = verify_period(scenario, engine, client._last_factory)
        assert not report.ok
        assert any("integrity" in f or "partition" in f
                   for f in report.failures)


# -- one history: the Monitor reads the engine's ------------------------------

ENGINES = ("interpreter", "federated", "eai", "etl")


def _crashes(*periods):
    """One commit-point crash per entry, pinned to that period, 20 tu
    apart from 20 tu on."""
    return FaultSpec(name="crashes", events=tuple(
        FaultEvent(at=20.0 * (i + 1), kind="crash", point="commit", period=p)
        for i, p in enumerate(periods)
    ))


@pytest.mark.parametrize("engine", ENGINES)
def test_the_monitor_reads_the_engine_history(engine):
    """The client's Monitor keeps no copy: after every period it holds
    the engine's history object itself, and still counts each record
    it takes in once; the result is a copy of that one history."""
    client = client_from_spec(RunSpec(
        engine=engine, datasize=0.02, periods=2, seed=5, collect_metrics=True,
    ))
    for period in range(2):
        client.run_period(period)
        assert client.monitor.records is client.engine.records
    absorbed = client.observability.metrics.counter(
        "monitor_records_absorbed_total"
    ).value
    assert absorbed == len(client.engine.records) > 0


@pytest.mark.parametrize("spec, restored, failovers", [
    (RunSpec(engine="interpreter", datasize=0.02, periods=3, seed=5,
             durability="snapshot+wal", checkpoint_every=50.0,
             faults=_crashes(1, 2)),
     [90, 176], []),
    (RunSpec(engine="interpreter", datasize=0.02, periods=2, seed=5,
             durability="wal", cluster_hosts=3, faults=_crashes(0, 1)),
     [], [(748, 1, 1), (704, 0, 1)]),
], ids=["durable-crash", "cluster-failover"])
def test_recovery_rebinds_the_one_history(spec, restored, failovers):
    """Recovery and failover put the checkpoint's history back on the
    engine; the Monitor follows it, and what each report restored is
    what it restored when the Monitor kept a copy of its own."""
    client = client_from_spec(spec)
    result = client.run()
    assert client.monitor.records is client.engine.records
    assert result.records == client.engine.records
    assert [r.records_restored for r in result.recovery_reports] == restored
    assert [
        (f.rows_restored, f.catchup_records, f.redispatched)
        for f in result.failover_reports
    ] == failovers
