"""Dispatchers: how admitted sessions reach the benchmark machinery.

Both dispatchers execute a :class:`RunSpec` exactly the way the PR-4
sweep executor does — ``run_spec`` builds an isolated landscape, engine
and clocks from the spec alone, and failures come back as contained
``error``/``crashed`` outcomes — so a served session is byte-identical
to the same spec run directly.

* :class:`PoolDispatcher` — the production path: a persistent
  :class:`repro.parallel.WorkerPool` of worker *processes*.  Sessions
  from different tenants run in genuinely separate processes (per-tenant
  landscape isolation is physical), and a run that dies takes only its
  own session.
* :class:`InlineDispatcher` — a thread-pool fallback for platforms
  where spawning processes per server is undesirable (and for tests
  that monkeypatch ``run_spec``: threads share the patched module).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.parallel.pool import WorkerPool
from repro.parallel.spec import RunOutcome, RunSpec, run_spec


class InlineDispatcher:
    """Execute specs on a thread pool inside the server process."""

    name = "inline"

    def __init__(self, slots: int = 2):
        self.slots = slots
        self._executor = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="repro-serve"
        )

    async def run(self, spec: RunSpec) -> RunOutcome:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, run_spec, spec)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


class PoolDispatcher:
    """Execute specs on a persistent pool of worker processes."""

    name = "pool"

    def __init__(self, slots: int = 2):
        self.slots = slots
        self._pool = WorkerPool(workers=slots)

    async def run(self, spec: RunSpec) -> RunOutcome:
        return await asyncio.wrap_future(self._pool.submit(spec))

    def close(self) -> None:
        self._pool.close()


DISPATCHERS = {"pool": PoolDispatcher, "inline": InlineDispatcher}
