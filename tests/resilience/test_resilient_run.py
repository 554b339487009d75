"""End-to-end degraded runs: recovery, determinism, byte-identity.

The canned spec mirrors ``examples/faults_basic.json`` (and the example
file itself is loaded to keep it honest): one partition, one link
degradation, one endpoint outage, transient engine faults and a poison
message, all pinned to period 0 of a seed-42 run.
"""

import os

import pytest

from repro.parallel import RunSpec, client_from_spec
from repro.resilience import FaultSpec

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "faults_basic.json"
)


def run_benchmark(faults=None, periods=1, seed=42):
    client = client_from_spec(RunSpec(
        datasize=0.05, periods=periods, seed=seed, faults=faults,
        collect_trace=True, collect_metrics=True,
    ))
    result = client.run()
    return client, result, client.observability


@pytest.fixture(scope="module")
def degraded():
    """One period under the canned example spec, shared by read-only tests."""
    spec = FaultSpec.load(EXAMPLE_SPEC)
    return run_benchmark(faults=spec)


class TestDegradedRun:
    def test_run_completes_with_recoveries(self, degraded):
        _, result, _ = degraded
        assert result.total_instances > 150
        recovered = len(result.records.recovered())
        assert recovered >= 2
        assert result.total_retries >= recovered

    def test_poison_message_dead_lettered_with_structure(self, degraded):
        _, result, _ = degraded
        poisoned = [
            l for l in result.dead_letters
            if l.error_type == "XsdValidationError"
        ]
        assert poisoned
        assert poisoned[0].process_id == "P04"
        assert poisoned[0].violations  # XSD detail survives dead-lettering
        assert poisoned[0].attempts == 1  # poison is not retried

    def test_verification_reports_only_dead_lettered_data(self, degraded):
        """Data checks see exactly the loss the dead-letter queue explains.

        The two P08 orders the open breaker dead-lettered never reached
        the warehouse, and phase-post reconciliation reports precisely
        them — degraded data completeness is visible, not silent.  (A
        follow-up clean period passes verification again; the CI smoke
        run covers that.)
        """
        _, result, _ = degraded
        dead_by_process = {}
        for letter in result.dead_letters:
            dead_by_process[letter.process_id] = (
                dead_by_process.get(letter.process_id, 0) + 1
            )
        assert dead_by_process  # the spec produced dead letters
        # P04 ingests Vienna orders, P08 Hongkong orders; each missing
        # count equals what was dead-lettered for that feed.
        feed_of = {"P04": "vienna", "P08": "hongkong"}
        expected = {
            f"{feed_of[pid]}_orders_reconciled": count
            for pid, count in dead_by_process.items()
        }
        assert len(result.verification.failures) == len(expected)
        for failure in result.verification.failures:
            name, _, detail = failure.partition(": ")
            assert name in expected
            assert detail.startswith(f"{expected[name]}/")

    def test_monitor_summary_matches_result(self, degraded):
        client, result, _ = degraded
        summary = client.monitor.resilience_summary()
        assert summary.recovered == len(result.records.recovered())
        assert summary.dead_lettered == len(result.dead_letters)
        assert summary.total == result.total_instances
        assert "recovered=" in summary.describe()

    def test_recovery_metrics_exported(self, degraded):
        _, _, observability = degraded
        text = observability.prometheus()
        assert "resilience_recovered_total" in text
        assert "resilience_retries_total" in text
        assert "faults_injected_total" in text
        assert "resilience_dead_letters_total" in text

    def test_degraded_instance_spans_annotated(self, degraded):
        _, _, observability = degraded
        retried = [
            s for s in observability.tracer.spans_of_kind("instance")
            if s.attributes.get("attempts", 1) > 1
        ]
        assert retried


class TestDeterminism:
    def test_same_seed_same_spec_identical_results(self, degraded):
        _, first, first_obs = degraded
        spec = FaultSpec.load(EXAMPLE_SPEC)
        _, second, second_obs = run_benchmark(faults=spec)
        assert first.records == second.records
        assert first.dead_letters == second.dead_letters
        assert first_obs.prometheus() == second_obs.prometheus()

    def test_empty_spec_byte_identical_to_plain_run(self):
        _, plain, plain_obs = run_benchmark()
        empty = FaultSpec(name="empty", seed=42, events=())
        _, guarded, guarded_obs = run_benchmark(faults=empty)
        assert plain.records == guarded.records
        assert len(guarded.records.recovered()) == 0
        assert len(guarded.dead_letters) == 0
        assert plain_obs.prometheus() == guarded_obs.prometheus()


class TestClientBoundary:
    def test_engine_exception_recorded_and_period_continues(self):
        client = client_from_spec(RunSpec(datasize=0.05, periods=1, seed=42))
        original = client.engine.handle_event

        def explode_on_p04(event):
            if event.process_id == "P04" and event.deadline > 50.0:
                raise RuntimeError("engine blew up mid-period")
            return original(event)

        client.engine.handle_event = explode_on_p04
        result = client.run()  # must not abort the period
        failed = [r for r in result.records if r.status == "error"]
        assert failed
        assert all(r.process_id == "P04" for r in failed)
        assert failed[0].error_type == "RuntimeError"
        assert "engine blew up" in failed[0].error
        # The rest of the period still executed: other streams completed.
        executed = {r.process_id for r in result.records}
        assert {"P08", "P10", "P12", "P15"} <= executed
