"""Failure paths feeding the spans: partitions, healing, seeded jitter."""

import pytest

from repro.engine.base import InstanceHistory
from repro.parallel import RunSpec, client_from_spec


def _traced_client(seed=5, jitter=0.0):
    return client_from_spec(RunSpec(
        datasize=0.02, periods=1, seed=seed, jitter=jitter,
        collect_trace=True, collect_metrics=True,
    ))


class TestPartitionedNetwork:
    def test_error_record_and_error_status_span(self):
        client = _traced_client()
        scenario, observability = client.scenario, client.observability
        scenario.network.partition("IS", "ES")
        records = client.run_period(0)

        error_records = [r for r in records if r.status != "ok"]
        assert error_records  # everything touching ES failed
        error_spans = [
            s for s in observability.tracer.spans_of_kind("instance")
            if s.status == "error"
        ]
        assert len(error_spans) == len(error_records)
        assert all("partition" in s.error or "Network" in s.error
                   for s in error_spans)
        # Failed instances executed no operators, so no children beyond
        # queue-wait/management are laid out under their spans.
        error_ids = {s.span_id for s in error_spans}
        child_kinds = {
            s.kind for s in observability.tracer.spans
            if s.parent_id in error_ids
        }
        assert "operator" not in child_kinds

    def test_partition_errors_counted(self):
        client = _traced_client()
        scenario, observability = client.scenario, client.observability
        scenario.network.partition("IS", "ES")
        client.run_period(0)
        snapshot = observability.metrics.snapshot()
        assert snapshot["network_partition_errors_total"] > 0

    def test_heal_restores_clean_runs_and_spans(self):
        client = _traced_client()
        scenario, observability = client.scenario, client.observability
        scenario.network.partition("IS", "ES")
        client.run_period(0)
        scenario.network.heal("IS", "ES")
        client.engine.records = InstanceHistory()
        client.monitor.records = InstanceHistory()
        traced_before = len(observability.tracer.spans)
        records = client.run_period(0)
        assert all(r.status == "ok" for r in records)
        spans = [
            s for s in observability.tracer.spans[traced_before:]
            if s.kind == "instance"
        ]
        assert spans
        assert all(s.status == "ok" for s in spans)


class TestJitterReproducibility:
    def _trace_fingerprint(self, seed):
        client = _traced_client(seed=seed, jitter=0.3)
        observability = client.observability
        client.run_period(0)
        return observability.spans_jsonl(), observability.prometheus()

    def test_fixed_seed_reproducible_across_runs(self):
        spans_a, metrics_a = self._trace_fingerprint(seed=9)
        spans_b, metrics_b = self._trace_fingerprint(seed=9)
        assert spans_a == spans_b
        assert metrics_a == metrics_b

    def test_different_seed_differs(self):
        spans_a, _ = self._trace_fingerprint(seed=9)
        spans_b, _ = self._trace_fingerprint(seed=10)
        assert spans_a != spans_b
