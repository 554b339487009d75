"""Instrumented benchmark runs: span coverage, consistency, zero overhead."""

import json

import pytest

from repro.parallel import RunSpec, client_from_spec


def _client(engine="interpreter", periods=1, seed=42, observed=True):
    return client_from_spec(RunSpec(
        engine=engine, datasize=0.02, periods=periods, seed=seed,
        collect_trace=observed, collect_metrics=observed,
    ))


@pytest.fixture(scope="module")
def traced_run():
    """One traced two-period interpreter run shared by read-only tests."""
    client = _client(periods=2)
    result = client.run()
    return client.observability, client, result


class TestSpanCoverage:
    def test_every_instance_has_a_span(self, traced_run):
        observability, _, result = traced_run
        instance_spans = observability.tracer.spans_of_kind("instance")
        # Acceptance: >= 95% coverage; we get one span per instance.
        assert len(instance_spans) == result.total_instances

    def test_span_tree_run_period_stream_instance(self, traced_run):
        observability, _, result = traced_run
        tracer = observability.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        runs = tracer.spans_of_kind("run")
        assert len(runs) == 1
        periods = tracer.spans_of_kind("period")
        assert len(periods) == result.periods
        assert all(p.parent_id == runs[0].span_id for p in periods)
        streams = tracer.spans_of_kind("stream")
        assert len(streams) == 4 * result.periods
        assert all(by_id[s.parent_id].kind == "period" for s in streams)
        for span in tracer.spans_of_kind("instance"):
            parent = by_id[span.parent_id]
            assert parent.kind == "stream"
            assert parent.name == span.attributes["stream"]

    def test_interpreter_instances_have_operator_and_network_children(
        self, traced_run
    ):
        observability, _, _ = traced_run
        tracer = observability.tracer
        instance_ids = {
            s.span_id for s in tracer.spans_of_kind("instance")
        }
        op_parents = {
            s.parent_id for s in tracer.spans_of_kind("operator")
        }
        # Every operator span hangs off an instance span, and nearly
        # every instance has operator children.
        assert op_parents <= instance_ids
        assert len(op_parents) >= 0.95 * len(instance_ids)
        assert tracer.spans_of_kind("network")

    def test_all_spans_finished(self, traced_run):
        observability, _, _ = traced_run
        assert all(s.finished for s in observability.tracer.spans)

    def test_children_contained_in_parents(self, traced_run):
        observability, _, _ = traced_run
        spans = observability.tracer.spans
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert span.start_time >= parent.start_time - 1e-9
            assert span.end_time <= parent.end_time + 1e-9


class TestChromeTraceOutput:
    def test_validates_as_json_with_consistent_ts_dur(self, traced_run):
        observability, _, _ = traced_run
        doc = json.loads(observability.chrome_trace())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(e["dur"] >= 0 for e in events)
        assert all(e["ts"] >= 0 for e in events)

    def test_periods_do_not_overlap_on_the_timeline(self, traced_run):
        observability, _, _ = traced_run
        periods = sorted(
            observability.tracer.spans_of_kind("period"),
            key=lambda s: s.start_time,
        )
        for earlier, later in zip(periods, periods[1:]):
            assert later.start_time >= earlier.end_time - 1e-9


class TestMetricsSideOfTheRun:
    def test_registry_saw_instances_and_transfers(self, traced_run):
        observability, _, result = traced_run
        snapshot = observability.metrics.snapshot()
        instance_total = sum(
            v for k, v in snapshot.items()
            if k.startswith("engine_instances_total")
        )
        assert instance_total == result.total_instances
        assert snapshot["network_transfers_total"] > 0
        assert snapshot["client_periods_total"] == result.periods
        assert snapshot["initializer_periods_total"] == result.periods

    def test_prometheus_dump_mentions_core_series(self, traced_run):
        observability, _, _ = traced_run
        text = observability.prometheus()
        assert "engine_instances_total" in text
        assert "engine_queue_wait_bucket" in text
        assert "network_payload_units_bucket" in text
        assert "scheduler_events_dispatched_total" in text


class TestZeroOverheadDefault:
    def test_default_run_identical_to_traced_run(self):
        """The unobserved default changes no benchmark numbers."""

        def run(observed):
            client = _client(observed=observed)
            client.run()
            return repr(client.monitor.metrics().rows())

        assert run(False) == run(True)

    def test_federated_default_run_untraced(self):
        client = _client("federated", seed=3, observed=False)
        client.run()
        assert client.observability.metrics is None
        assert client.observability.tracer is None


class TestFederatedTracing:
    def test_federated_engine_also_produces_operator_spans(self):
        client = _client("federated", seed=11)
        observability = client.observability
        result = client.run()
        tracer = observability.tracer
        assert len(tracer.spans_of_kind("instance")) == result.total_instances
        assert tracer.spans_of_kind("operator")
