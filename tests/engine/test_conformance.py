"""Differential conformance: every engine variant vs the interpreter.

The benchmark's independence claim (Section III) only holds if the
engine variants are *interchangeable implementations of the same
processes*: at the same seed and scale factors they must leave the
landscape in a byte-identical state, run the same instances to the
same statuses, move the same number of rows and messages, and pass the
same verification checks.  Costs may differ — that is the quantity the
benchmark measures — so the conformance surface deliberately excludes
them.

One run per engine (module-scoped), then pairwise differential
assertions against the interpreter baseline, parametrized over all 15
process types of Table I.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import pytest

from repro.engine import ENGINES
from repro.parallel import RunSpec
from repro.scenario.processes import PROCESS_TABLE
from repro.storage import landscape_digest
from repro.toolsuite.client import BenchmarkClient, BenchmarkResult

BASELINE = "interpreter"
VARIANTS = sorted(set(ENGINES) - {BASELINE})

#: All 15 process types of Table I (P14 subprocesses report under P14).
PROCESS_IDS = [process_id for _, process_id, _ in PROCESS_TABLE]

SPEC = RunSpec(engine=BASELINE, datasize=0.02, time=1.0, seed=11)


def _family(process_id: str) -> str:
    """P14_S1/P14_S2/... report under their parent process type."""
    return process_id.split("_")[0]


@dataclass
class Capture:
    """Everything on the conformance surface from one engine run."""

    engine: str
    result: BenchmarkResult
    digest: str
    table_rows: dict[str, int]
    transfers: int

    @property
    def instances_per_process(self) -> Counter:
        return Counter(_family(r.process_id) for r in self.result.records)

    @property
    def statuses_per_process(self) -> Counter:
        return Counter(
            (_family(r.process_id), r.status) for r in self.result.records
        )

    @property
    def instance_identities(self) -> list[tuple]:
        """Order, stream, period and status of every instance — not costs."""
        return [
            (r.process_id, r.period, r.stream, r.status, r.error_type)
            for r in self.result.records
        ]


def _run(engine: str) -> Capture:
    client = BenchmarkClient.from_spec(replace(SPEC, engine=engine))
    result = client.run()
    table_rows = {
        f"{name}.{table}": len(db.table(table))
        for name, db in sorted(client.scenario.all_databases.items())
        for table in db.table_names
    }
    return Capture(
        engine=engine,
        result=result,
        digest=landscape_digest(client.scenario.all_databases.values()),
        table_rows=table_rows,
        transfers=client.scenario.network.transfer_count,
    )


@pytest.fixture(scope="module")
def captures() -> dict[str, Capture]:
    return {engine: _run(engine) for engine in ENGINES}


@pytest.fixture(scope="module")
def baseline(captures) -> Capture:
    return captures[BASELINE]


class TestBaselineIsMeaningful:
    """Guards against a vacuous conformance pass."""

    def test_every_process_type_actually_ran(self, baseline):
        ran = baseline.instances_per_process
        for process_id in PROCESS_IDS:
            assert ran[process_id] > 0, f"{process_id} never ran"

    def test_landscape_is_populated(self, baseline):
        assert sum(baseline.table_rows.values()) > 0
        assert baseline.transfers > 0

    def test_verification_passed(self, baseline):
        assert baseline.result.verification.ok
        assert len(baseline.result.verification.checks) > 0


@pytest.mark.parametrize("variant", VARIANTS)
class TestEngineConformance:
    def test_landscape_digest_identical(self, captures, baseline, variant):
        assert captures[variant].digest == baseline.digest

    def test_per_table_row_counts_identical(
        self, captures, baseline, variant
    ):
        assert captures[variant].table_rows == baseline.table_rows

    def test_network_message_counts_identical(
        self, captures, baseline, variant
    ):
        assert captures[variant].transfers == baseline.transfers

    def test_instance_sequence_identical(self, captures, baseline, variant):
        assert (
            captures[variant].instance_identities
            == baseline.instance_identities
        )

    def test_verification_checks_identical(
        self, captures, baseline, variant
    ):
        ours = captures[variant].result.verification
        theirs = baseline.result.verification
        assert ours.checks == theirs.checks
        assert ours.failures == theirs.failures
        assert ours.ok and theirs.ok


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("process_id", PROCESS_IDS)
class TestPerProcessConformance:
    def test_instance_count_matches(
        self, captures, baseline, variant, process_id
    ):
        assert (
            captures[variant].instances_per_process[process_id]
            == baseline.instances_per_process[process_id]
        )

    def test_status_mix_matches(
        self, captures, baseline, variant, process_id
    ):
        def mix(capture):
            return {
                status: n
                for (pid, status), n in capture.statuses_per_process.items()
                if pid == process_id
            }

        assert mix(captures[variant]) == mix(baseline)
