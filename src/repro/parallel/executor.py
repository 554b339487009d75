"""The deterministic parallel sweep executor.

Fans independent :class:`RunSpec`\\ s out across ``multiprocessing``
workers and merges the outcomes back **in grid order**, so a parallel
sweep is byte-identical (landscape digests, per-instance records, NAVG+
tables, verification outcomes) to the serial one at the same seeds.

Determinism model
-----------------

* Every grid point is self-contained: the worker builds its own
  landscape, engine, virtual clocks and RNGs from nothing but the spec
  (:meth:`BenchmarkClient.from_spec`), so scheduling of workers cannot
  leak between points.
* Workers return complete :class:`RunOutcome` objects; the parent stores
  them at the spec's original grid index.  Completion order is
  irrelevant — the merged result reads as if the specs ran serially.
* Observability shards (per-worker metrics registries and span rows)
  are merged into one registry/tracer *in grid order*, which keeps the
  merged export independent of the worker count too.

Worker-crash containment
------------------------

The pool (:class:`repro.parallel.pool.WorkerPool`) is hand-rolled over
``Pipe``-connected worker processes rather than ``concurrent.futures``
because a worker that dies outright (OOM kill, segfault, ``os._exit``)
must fail **only its own grid point**: the pool detects the broken pipe,
records the point as ``"crashed"`` with ``error_type="WorkerCrashed"``,
replaces the worker, and the sweep completes.
(``ProcessPoolExecutor`` marks the whole pool broken instead.)  The
same pool, in its persistent form, executes sessions for the
:mod:`repro.serve` front-end.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.parallel.pool import WorkerPool, _pick_start_method
from repro.parallel.spec import RunOutcome, RunSpec, SweepError, run_spec


@dataclass
class SweepResult:
    """All grid points of one sweep, merged in deterministic grid order."""

    outcomes: list[RunOutcome]
    workers: int
    wall_seconds: float = 0.0
    start_method: str = "serial"

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def ok(self) -> bool:
        return all(
            o.ok and (o.result is None or o.result.verification.ok)
            for o in self.outcomes
        )

    @property
    def failed(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def total_instances(self) -> int:
        return sum(
            o.result.total_instances
            for o in self.outcomes
            if o.result is not None
        )

    def fingerprint(self) -> str:
        """Hash over every grid point's fingerprint, in grid order.

        Two sweeps over the same grid and seeds converged iff this
        matches — the CI smoke job compares it across worker counts.
        """
        hasher = hashlib.sha256()
        for outcome in self.outcomes:
            hasher.update(outcome.fingerprint().encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def merged_metrics(self) -> MetricsRegistry:
        """One registry with every worker's metrics shard folded in.

        Shards merge in grid order, so the merged registry is identical
        whether the sweep ran on one worker or many.
        """
        merged = MetricsRegistry()
        for outcome in self.outcomes:
            if outcome.metrics_shard is not None:
                merged.merge(outcome.metrics_shard)
        return merged

    def merged_trace(self) -> Tracer:
        """One tracer with every grid point's span shard absorbed.

        Grid points are laid side by side on the merged timeline, each
        shifted past the previous point's last span end.
        """
        tracer = Tracer()
        offset = 0.0
        for outcome in self.outcomes:
            if not outcome.spans:
                continue
            spans = tracer.absorb(outcome.spans, time_offset=offset)
            offset = max(
                (s.end_time for s in spans if s.end_time is not None),
                default=offset,
            )
        return tracer

    def to_json(self) -> dict:
        """Deterministic JSON document (no wall-clock fields)."""
        return {
            "points": [o.to_json() for o in self.outcomes],
            "fingerprint": self.fingerprint(),
        }


class SweepExecutor:
    """Executes RunSpecs serially (``workers=1``) or across a pool.

    ``workers=1`` runs every spec inline in the calling process — that
    is the serial baseline the byte-identity contract is defined
    against.  ``workers>1`` fans specs out over that many worker
    processes (capped at the number of specs).
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = _pick_start_method(start_method)

    def run(self, specs: Sequence[RunSpec]) -> SweepResult:
        specs = list(specs)
        if not specs:
            raise SweepError("nothing to sweep: no RunSpecs given")
        started = time.perf_counter()
        if self.workers == 1 or len(specs) == 1:
            outcomes = [self._run_serial(spec) for spec in specs]
            return SweepResult(
                outcomes=outcomes,
                workers=1,
                wall_seconds=time.perf_counter() - started,
                start_method="serial",
            )
        outcomes = self._run_pool(specs)
        return SweepResult(
            outcomes=outcomes,
            workers=min(self.workers, len(specs)),
            wall_seconds=time.perf_counter() - started,
            start_method=self.start_method,
        )

    # -- serial path -----------------------------------------------------------

    @staticmethod
    def _run_serial(spec: RunSpec) -> RunOutcome:
        if spec.sabotage == "hard-exit":
            # Mirror the pool's containment outcome instead of killing
            # the calling process: serial and parallel sweeps stay
            # byte-identical even under sabotage.
            return RunOutcome.crashed(spec)
        return run_spec(spec)

    # -- pool path ---------------------------------------------------------------

    def _run_pool(self, specs: list[RunSpec]) -> list[RunOutcome]:
        """Fan the batch out over a :class:`WorkerPool`.

        Specs are submitted in grid order (the pool dispatches FIFO) and
        outcomes are collected at the spec's original grid index, so
        completion order — the only thing the worker count changes — is
        invisible in the merged result.
        """
        pool = WorkerPool(
            workers=min(self.workers, len(specs)),
            start_method=self.start_method,
        )
        try:
            futures = [pool.submit(spec) for spec in specs]
            return [future.result() for future in futures]
        finally:
            pool.close()


def run_sweep(
    specs: Sequence[RunSpec],
    workers: int = 1,
    start_method: str | None = None,
) -> SweepResult:
    """Convenience wrapper: build an executor and run the sweep."""
    return SweepExecutor(workers=workers, start_method=start_method).run(specs)


@dataclass
class ConvergenceReport:
    """A run under faults next to its fault-free twin.

    Convergence is byte-identity of every per-instance record (hence of
    NAVG+) and of the final landscape digest, with the faulted run's
    verification passing; ``fingerprints_equal`` folds the NAVG+ table
    and both verification outcomes in as well.
    """

    baseline: RunOutcome
    faulted: RunOutcome

    @property
    def incomplete(self) -> RunOutcome | None:
        """The first of the two runs that produced no result, if any."""
        for outcome in (self.baseline, self.faulted):
            if outcome.result is None:
                return outcome
        return None

    @property
    def records_equal(self) -> bool:
        return self.faulted.result.records == self.baseline.result.records

    @property
    def digests_equal(self) -> bool:
        return self.faulted.landscape_digest == self.baseline.landscape_digest

    @property
    def fingerprints_equal(self) -> bool:
        return self.faulted.fingerprint() == self.baseline.fingerprint()

    @property
    def converged(self) -> bool:
        return (
            self.records_equal
            and self.digests_equal
            and self.faulted.result.verification.ok
        )


def prove_convergence(faulted: RunSpec, jobs: int = 1) -> ConvergenceReport:
    """Run ``faulted`` and its fault-free twin; report whether they agree.

    The twin is the same grid point with no fault timeline, durability
    off and a single host — what ``repro recover`` and ``repro cluster
    run`` compare their crashed runs against.  Both are plain RunSpecs,
    so ``jobs=2`` executes them concurrently.
    """
    baseline = replace(
        faulted,
        faults=None,
        durability="off",
        checkpoint_every=None,
        cluster_hosts=0,
        collect_metrics=False,
        collect_trace=False,
    )
    outcomes = SweepExecutor(workers=jobs).run([baseline, faulted]).outcomes
    return ConvergenceReport(*outcomes)
