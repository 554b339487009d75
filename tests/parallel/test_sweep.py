"""The deterministic parallel sweep executor (repro.parallel).

The contract under test: a sweep fanned across N worker processes is
byte-identical — per-instance records, landscape digests, NAVG+ tables,
verification outcomes, merged observability shards — to the same sweep
run serially, and a grid point that crashes its worker outright fails
alone while the rest of the sweep completes.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.parallel import (
    RunOutcome,
    RunSpec,
    SweepError,
    SweepExecutor,
    expand_grid,
    grid_from_axes,
    parse_grid_axes,
    run_spec,
)
from repro.parallel import pool as pool_module
from repro.parallel import spec as spec_module

#: Small enough to keep the suite quick, large enough that every stream
#: (A/B/C/D) actually runs instances.
FAST = dict(datasize=0.02, time=1.0)


def fast_spec(**overrides) -> RunSpec:
    base = dict(FAST, seed=11)
    base.update(overrides)
    return RunSpec(**base)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


class TestParseGridAxes:
    def test_parses_all_three_axes(self):
        axes = parse_grid_axes(["d=0.02,0.05", "t=1,2", "f=0,3"])
        assert axes == {"d": [0.02, 0.05], "t": [1.0, 2.0], "f": [0, 3]}

    def test_long_spellings(self):
        axes = parse_grid_axes(
            ["datasize=0.1", "time=2.0", "distribution=1"]
        )
        assert axes == {"d": [0.1], "t": [2.0], "f": [1]}

    def test_values_keep_written_order(self):
        assert parse_grid_axes(["d=0.05,0.02"])["d"] == [0.05, 0.02]

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepError, match="bad grid axis"):
            parse_grid_axes(["q=1,2"])

    def test_missing_equals_rejected(self):
        with pytest.raises(SweepError, match="bad grid axis"):
            parse_grid_axes(["d0.02"])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SweepError, match="given twice"):
            parse_grid_axes(["d=0.02", "datasize=0.05"])

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="no values"):
            parse_grid_axes(["d="])

    def test_non_numeric_rejected(self):
        with pytest.raises(SweepError, match="bad grid axis"):
            parse_grid_axes(["f=abc"])


class TestExpandGrid:
    def test_product_order_engines_then_d_t_f_seed(self):
        specs = expand_grid(
            engines=["interpreter", "federated"],
            datasizes=[0.02, 0.05],
            seeds=[1, 2],
        )
        keys = [
            (s.engine, s.datasize, s.time, s.distribution, s.seed, s.synth)
            for s in specs
        ]
        assert keys == [
            ("interpreter", 0.02, 1.0, 0, 1, ""),
            ("interpreter", 0.02, 1.0, 0, 2, ""),
            ("interpreter", 0.05, 1.0, 0, 1, ""),
            ("interpreter", 0.05, 1.0, 0, 2, ""),
            ("federated", 0.02, 1.0, 0, 1, ""),
            ("federated", 0.02, 1.0, 0, 2, ""),
            ("federated", 0.05, 1.0, 0, 1, ""),
            ("federated", 0.05, 1.0, 0, 2, ""),
        ]

    def test_common_fields_reach_every_spec(self):
        specs = expand_grid(seeds=[1, 2], periods=3, durability="wal")
        assert all(s.periods == 3 and s.durability == "wal" for s in specs)

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="no values"):
            expand_grid(engines=[])

    def test_grid_from_axes_fills_defaults(self):
        specs = grid_from_axes(
            {"d": [0.02]}, engines=["interpreter"], seeds=[42]
        )
        assert len(specs) == 1
        assert specs[0].time == 1.0 and specs[0].distribution == 0


class TestRunSpec:
    def test_is_picklable(self):
        spec = fast_spec(collect_metrics=True)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_label_is_stable(self):
        assert fast_spec(seed=7).label == "interpreter d=0.02 t=1 f=0 seed=7"


# ---------------------------------------------------------------------------
# single-spec execution and failure containment
# ---------------------------------------------------------------------------


class TestRunSpecExecution:
    def test_ok_outcome_carries_everything(self):
        outcome = run_spec(fast_spec())
        assert outcome.ok and outcome.status == "ok"
        assert outcome.result is not None
        assert outcome.result.total_instances > 0
        assert outcome.result.verification.ok
        assert len(outcome.landscape_digest) == 64
        assert outcome.wall_seconds > 0

    def test_outcome_is_picklable(self):
        outcome = run_spec(fast_spec(collect_metrics=True))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.fingerprint() == outcome.fingerprint()

    def test_fingerprint_ignores_wall_clock(self):
        outcome = run_spec(fast_spec())
        before = outcome.fingerprint()
        outcome.wall_seconds = 999.0
        assert outcome.fingerprint() == before

    def test_unknown_engine_is_contained(self):
        outcome = run_spec(fast_spec(engine="quantum"))
        assert outcome.status == "error"
        assert outcome.error_type == "BenchmarkError"
        assert "quantum" in outcome.error

    def test_metrics_shard_only_when_requested(self):
        assert run_spec(fast_spec()).metrics_shard is None
        shard = run_spec(fast_spec(collect_metrics=True)).metrics_shard
        assert shard is not None
        assert any(
            m.name == "engine_instances_total" for m in shard.collect()
        )

    def test_no_run_ships_spans(self):
        """The spans channel belongs to a wrapper, not to a run."""
        assert run_spec(fast_spec()).spans is None
        assert run_spec(fast_spec(collect_trace=True)).spans is None


# ---------------------------------------------------------------------------
# byte-identity: serial vs parallel
# ---------------------------------------------------------------------------

GRID = expand_grid(
    engines=["interpreter", "federated"],
    datasizes=[0.02],
    times=[1.0],
    seeds=[11, 12],
    collect_metrics=True,
)


@pytest.fixture(scope="module")
def serial_result():
    return SweepExecutor(workers=1).run(GRID)


@pytest.fixture(scope="module")
def parallel_result():
    return SweepExecutor(workers=3).run(GRID)


class TestByteIdentity:
    def test_parallel_equals_serial_fingerprint(
        self, serial_result, parallel_result
    ):
        assert serial_result.fingerprint() == parallel_result.fingerprint()

    def test_every_point_matches(self, serial_result, parallel_result):
        for serial, parallel in zip(
            serial_result.outcomes, parallel_result.outcomes
        ):
            assert serial.spec == parallel.spec
            assert serial.landscape_digest == parallel.landscape_digest
            assert serial.result.records == parallel.result.records
            assert (
                serial.result.metrics.as_table()
                == parallel.result.metrics.as_table()
            )

    def test_outcomes_come_back_in_grid_order(self, parallel_result):
        assert [o.spec for o in parallel_result.outcomes] == GRID

    def test_json_documents_identical(self, serial_result, parallel_result):
        assert serial_result.to_json() == parallel_result.to_json()

    def test_merged_metrics_independent_of_worker_count(
        self, serial_result, parallel_result
    ):
        assert (
            serial_result.merged_metrics().snapshot()
            == parallel_result.merged_metrics().snapshot()
        )

    def test_all_points_verified(self, parallel_result):
        assert parallel_result.ok
        assert parallel_result.failed == []
        assert parallel_result.total_instances > 0

    def test_engine_variants_converge_per_seed(self, serial_result):
        by_key = {
            (o.spec.engine, o.spec.datasize, o.spec.time, o.spec.distribution,
             o.spec.seed, o.spec.synth): o.landscape_digest
            for o in serial_result.outcomes
        }
        for (engine, d, t, f, seed, synth), digest in by_key.items():
            if engine != "interpreter":
                continue
            twin = by_key[("federated", d, t, f, seed, synth)]
            assert digest == twin


# ---------------------------------------------------------------------------
# worker-crash containment
# ---------------------------------------------------------------------------

CONTAINMENT_GRID = [fast_spec(seed=seed) for seed in (31, 32, 33, 34)]
#: In a pool worker, the second grid point kills its process outright ...
CRASH_SEED = 32
#: ... and the third fails to build its client, in a worker or inline.
FAILING_SEED = 33


@pytest.fixture(scope="module")
def failing_client():
    """``client_from_spec`` raising for one seed, patched in before any
    worker forks."""
    real = spec_module.client_from_spec

    def failing(spec, workload=None):
        if spec.seed == FAILING_SEED:
            raise RuntimeError(f"no client for {spec.label}")
        return real(spec, workload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spec_module, "client_from_spec", failing)
        yield


@pytest.fixture(scope="module")
def contained_parallel(failing_client):
    real = pool_module.run_spec

    def crashing(spec):
        if spec.seed == CRASH_SEED:
            os._exit(70)
        return real(spec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "run_spec", crashing)
        return SweepExecutor(workers=2).run(CONTAINMENT_GRID)


class TestCrashContainment:
    def test_dead_worker_fails_only_its_grid_point(self, contained_parallel):
        statuses = [o.status for o in contained_parallel.outcomes]
        assert statuses == ["ok", "crashed", "error", "ok"]

    def test_crash_outcome_is_structured(self, contained_parallel):
        crashed = contained_parallel.outcomes[1]
        assert crashed.error_type == "WorkerCrashed"
        assert "died" in crashed.error
        assert crashed.result is None

    def test_error_outcome_keeps_exception_type(self, contained_parallel):
        errored = contained_parallel.outcomes[2]
        assert errored.error_type == "RuntimeError"
        assert "no client" in errored.error

    def test_survivors_still_verify(self, contained_parallel):
        for index in (0, 3):
            outcome = contained_parallel.outcomes[index]
            assert outcome.ok and outcome.result.verification.ok

    def test_sweep_reports_failure(self, contained_parallel):
        assert not contained_parallel.ok
        assert len(contained_parallel.failed) == 2

    def test_serial_sweep_mirrors_the_containment(self, contained_parallel):
        """Inline, the failing point fails the same way; only a worker
        process can die, so the crash point stays out."""
        survivors = [
            o for o in contained_parallel.outcomes if o.spec.seed != CRASH_SEED
        ]
        serial = SweepExecutor(workers=1).run([o.spec for o in survivors])
        assert [o.status for o in serial.outcomes] == ["ok", "error", "ok"]
        assert (
            [o.fingerprint() for o in serial.outcomes]
            == [o.fingerprint() for o in survivors]
        )


class TestExecutorValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(SweepError, match="workers"):
            SweepExecutor(workers=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(SweepError, match="nothing to sweep"):
            SweepExecutor(workers=1).run([])

    def test_single_spec_runs_inline(self):
        result = SweepExecutor(workers=4).run([fast_spec(seed=41)])
        assert result.start_method == "serial"
        assert result.workers == 1
        assert result.outcomes[0].ok

    def test_crashed_outcome_classmethod(self):
        outcome = RunOutcome.crashed(fast_spec())
        assert outcome.status == "crashed" and not outcome.ok
        assert outcome.navg_plus_total() == 0.0
