"""repro.parallel: the deterministic parallel sweep executor.

The paper's execution schedule is a grid over three scale factors
(datasize *d*, time *t*, distribution *f*); every published DIPBench
figure is a sweep over that grid.  This package fans independent grid
points — scale-factor combinations, seed replicas, engine variants —
out across ``multiprocessing`` workers, each with its own isolated
landscape/engine/clock, and merges the results back in deterministic
grid order, so a parallel sweep is byte-identical to the serial one at
the same seeds.

* :class:`RunSpec` — one picklable benchmark configuration,
* :func:`client_from_spec` — the one place a spec becomes a wired client,
* :func:`run_spec` — execute one spec, failures contained per point,
* :func:`expand_grid` / :func:`parse_grid_axes` — grid construction,
* :class:`SweepExecutor` / :func:`run_sweep` — the worker pool,
* :class:`SweepResult` — grid-ordered outcomes + merged shards,
* :func:`prove_convergence` — a faulted run against its fault-free twin.
"""

from repro.parallel.executor import (
    ConvergenceReport,
    SweepExecutor,
    SweepResult,
    prove_convergence,
    run_sweep,
)
from repro.parallel.grid import expand_grid, grid_from_axes, parse_grid_axes
from repro.parallel.pool import WorkerPool
from repro.parallel.spec import (
    RunOutcome,
    RunSpec,
    SweepError,
    SweepSabotage,
    client_from_spec,
    run_spec,
)

__all__ = [
    "RunSpec",
    "RunOutcome",
    "run_spec",
    "client_from_spec",
    "SweepError",
    "SweepSabotage",
    "expand_grid",
    "grid_from_axes",
    "parse_grid_axes",
    "SweepExecutor",
    "SweepResult",
    "run_sweep",
    "ConvergenceReport",
    "prove_convergence",
    "WorkerPool",
]
