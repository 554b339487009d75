"""A session's outcome does not depend on what its process ran before.

``BenchmarkClient`` deploys the process's resident definitions
(``repro.scenario.processes.resident_processes``), so the trees — and
every plan bound on them — outlive a session.  What must not outlive it
is anything a report can see: fingerprints, landscape digests, metrics
exports and span trees of a spec are the same in a fresh process, after
sessions on the other three engines, after a run of the same spec, on
two threads at once, and through crash redeploys.
"""

import asyncio
import sys
import threading

import pytest

from repro.observability.export import export_prometheus
from repro.parallel import RunSpec, WorkerPool, run_spec
from repro.scenario.processes import resident_processes
from repro.serve.dispatch import InlineDispatcher
from tests.cluster.test_failover import CRASHES  # arrival + commit, every period

ENGINES = ("interpreter", "federated", "eai", "etl")


def observed(engine, **overrides):
    fields = dict(
        engine=engine, datasize=0.02, periods=1, seed=5,
        collect_metrics=True, collect_trace=True,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def everything(outcome):
    """All a caller can read off a finished session."""
    assert outcome.ok, outcome.error
    return {
        "fingerprint": outcome.fingerprint(),
        "digest": outcome.landscape_digest,
        "metrics": export_prometheus(outcome.metrics_shard),
        "spans": outcome.spans,
    }


@pytest.fixture(scope="module")
def fresh_process():
    """``run(spec)`` in an interpreter that has run nothing else yet
    (one spawned worker per call)."""
    def run(spec):
        pool = WorkerPool(workers=1, start_method="spawn")
        try:
            return pool.submit(spec).result(timeout=120)
        finally:
            pool.close()

    return run


class TestSerialSessions:
    def test_fifth_session_equals_the_first_and_a_fresh_process(
        self, fresh_process
    ):
        order = (*ENGINES, ENGINES[0])
        sessions = [everything(run_spec(observed(engine))) for engine in order]
        first, fifth = sessions[0], sessions[4]
        assert fifth == first
        assert everything(fresh_process(observed(ENGINES[0]))) == first
        # The four engines did run four different sessions in between.
        assert len({s["fingerprint"] for s in sessions}) == 4

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_repeats_itself_after_the_others(self, engine):
        spec = RunSpec(engine=engine, datasize=0.02, periods=1, seed=9)
        before = run_spec(spec).fingerprint()
        for other in ENGINES:
            run_spec(RunSpec(engine=other, datasize=0.03, periods=1, seed=2))
        assert run_spec(spec).fingerprint() == before

    def test_sessions_of_one_thread_deploy_the_same_trees(self):
        from repro.toolsuite.client import BenchmarkClient

        deployed = []
        for engine in ("interpreter", "federated"):
            client = BenchmarkClient.from_spec(
                RunSpec(engine=engine, datasize=0.02, periods=1)
            )
            client._phase_pre()
            deployed.append(client.engine.process_type("P09"))
        assert deployed[0] is deployed[1] is resident_processes()["P09"]


class TestConcurrentSessions:
    def test_every_thread_shares_one_resident_set(self):
        mine = resident_processes()
        assert resident_processes() is mine
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(resident_processes())
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert theirs[0] is mine

    def test_two_inline_slots_equal_their_serial_runs(self):
        """Four sessions on two threads, switching every 50 µs, on one
        resident set: no definition holds what one instance leaves for
        a later step, so neither session sees the other's."""
        specs = [
            RunSpec(engine=engine, datasize=0.02, periods=1, seed=seed)
            for seed, engine in enumerate(ENGINES, start=21)
        ]
        serial = [run_spec(spec).fingerprint() for spec in specs]

        async def storm():
            dispatcher = InlineDispatcher(slots=2)
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*(dispatcher.run(spec) for spec in specs)),
                    timeout=300,
                )
            finally:
                dispatcher.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            outcomes = asyncio.run(storm())
        finally:
            sys.setswitchinterval(interval)
        assert [o.status for o in outcomes] == ["ok"] * len(specs)
        assert [o.fingerprint() for o in outcomes] == serial


class TestCrashRedeploys:
    """A crash wipes the deployment; the redeploy is of the resident
    trees the crashed instance was running on."""

    @pytest.mark.parametrize("engine", ("interpreter", "federated"))
    def test_durable_run_converges_again_and_again(self, engine):
        plain = run_spec(RunSpec(engine=engine, datasize=0.02, periods=2, seed=7))
        crashed = RunSpec(
            engine=engine, datasize=0.02, periods=2, seed=7, faults=CRASHES,
            durability="snapshot+wal", checkpoint_every=100.0,
        )
        for _ in range(2):
            outcome = run_spec(crashed)
            assert outcome.ok, outcome.error
            assert outcome.result.recoveries == 4  # two a period
            assert outcome.landscape_digest == plain.landscape_digest
            assert outcome.fingerprint() == plain.fingerprint()

    def test_cluster_failover_converges_again_and_again(self):
        plain = run_spec(
            RunSpec(engine="federated", datasize=0.02, periods=1, seed=7)
        )
        clustered = RunSpec(
            engine="federated", datasize=0.02, periods=1, seed=7,
            faults=CRASHES, durability="snapshot+wal", checkpoint_every=200.0,
            cluster_hosts=3, cluster_replicas=1, repl_mode="sync",
        )
        for _ in range(2):
            outcome = run_spec(clustered)
            assert outcome.ok, outcome.error
            assert outcome.result.failovers == 2
            assert outcome.fingerprint() == plain.fingerprint()

    def test_observed_crash_run_repeats_itself(self):
        """Redeploys compile and count what the first deploy did, so the
        metrics export of a crashed run does not depend on which of its
        expressions an earlier run left cached."""
        spec = observed(
            "interpreter", faults=CRASHES, durability="wal", collect_trace=False,
        )
        first = everything(run_spec(spec))
        run_spec(observed("federated"))
        assert everything(run_spec(spec)) == first
