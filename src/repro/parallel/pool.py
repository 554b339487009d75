"""A persistent worker pool over pipe-connected ``run_spec`` processes.

The PR-4 sweep executor fans a *batch* of :class:`RunSpec`\\ s out and
blocks until the whole grid is merged.  The serving layer
(:mod:`repro.serve`) needs the same worker processes — isolated
landscapes, crash containment, picklable outcomes — but as a *service*:
specs arrive one at a time from many tenants, and each caller wants its
own result back as soon as its run finishes.

:class:`WorkerPool` is that persistent form.  It owns a fixed set of
worker processes plus one collector thread, and exposes
``submit(spec) -> Future[RunOutcome]``.  The collector thread is the
single owner of every pipe (submissions travel through an internal
queue), so no two threads ever touch a ``Connection`` concurrently.

Crash containment matches the sweep executor: a worker that dies
outright (OOM kill, segfault, ``os._exit``) fails only the spec it was
executing — the future resolves to ``RunOutcome.crashed(spec)`` — and
the pool replaces the worker and keeps serving.

:class:`SweepExecutor` runs its parallel path on top of this pool, so
batch sweeps and served sessions exercise the same machinery.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.parallel.spec import RunOutcome, RunSpec, SweepError, run_spec


def _pick_start_method(requested: str | None) -> str:
    """``fork`` where available (fast, inherits the warm interpreter);
    ``spawn`` otherwise.  Both produce identical outcomes — every worker
    rebuilds its state from the spec alone."""
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise SweepError(
                f"start method {requested!r} not available "
                f"(have {available})"
            )
        return requested
    return "fork" if "fork" in available else "spawn"


def _worker_loop(conn) -> None:
    """One pool worker: receive a spec, send back its outcome.

    The ``hard-exit`` sabotage hook dies *without* a traceback or a
    reply, exactly like an externally killed process — it exists so the
    containment path is testable deterministically.
    """
    try:
        while True:
            spec = conn.recv()
            if spec is None:
                return
            if spec.sabotage == "hard-exit":
                os._exit(70)
            conn.send(run_spec(spec))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


@dataclass
class _Worker:
    process: multiprocessing.Process
    conn: "connection.Connection"
    #: (future, spec) currently executing, or None when idle.
    current: tuple[Future, RunSpec] | None = None


class WorkerPool:
    """Fixed-size pool of ``run_spec`` worker processes with futures.

    >>> pool = WorkerPool(workers=2)
    >>> future = pool.submit(RunSpec(datasize=0.02))
    >>> outcome = future.result()
    >>> pool.close()

    Submissions are dispatched to idle workers in FIFO order, so a batch
    submitted in grid order executes in grid order — which is what keeps
    :class:`SweepExecutor` byte-identical across worker counts when it
    runs on this pool.
    """

    def __init__(self, workers: int = 2, start_method: str | None = None):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = _pick_start_method(start_method)
        self._ctx = multiprocessing.get_context(self.start_method)
        self._tasks: "queue.Queue[tuple[Future, RunSpec] | None]" = (
            queue.Queue()
        )
        self._pool = [self._spawn() for _ in range(workers)]
        # submit() and close() send one empty message here; the collector
        # waits on the read end together with the busy workers' pipes, so
        # it sees a submission at once however long the runs take.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._closed = False
        self._lock = threading.Lock()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-worker-pool", daemon=True
        )
        self._collector.start()

    # -- public API -----------------------------------------------------------

    def submit(self, spec: RunSpec) -> "Future[RunOutcome]":
        """Queue one spec; the future resolves to its :class:`RunOutcome`.

        The future never raises for a *run* failure — errors and worker
        crashes come back as ``status="error"`` / ``"crashed"`` outcomes,
        mirroring the sweep executor's containment contract.
        """
        with self._lock:
            if self._closed:
                raise SweepError("worker pool is closed")
            future: "Future[RunOutcome]" = Future()
            self._tasks.put((future, spec))
            self._wake_w.send_bytes(b"")
            return future

    def run(self, spec: RunSpec) -> RunOutcome:
        """Submit one spec and block for its outcome."""
        return self.submit(spec).result()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the collector, terminate the workers, fail pending work.

        Idempotent.  Futures still queued or in flight resolve to
        ``crashed`` outcomes so no caller blocks forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._tasks.put(None)
        self._wake_w.send_bytes(b"")
        self._collector.join(timeout=timeout)
        self._wake_w.close()
        self._wake_r.close()
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
        for worker in self._pool:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.terminate()
                worker.process.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- collector thread ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        return _Worker(process=process, conn=parent_conn)

    def _dispatch_pending(self, pending: list) -> None:
        for worker in self._pool:
            if not pending:
                return
            if worker.current is None:
                worker.current = pending.pop(0)
                worker.conn.send(worker.current[1])

    def _collect_loop(self) -> None:
        """Single owner of every worker pipe.

        Each round drains the submission queue, dispatches to idle
        workers in FIFO order, then sleeps until a busy worker answers
        or :meth:`submit`/:meth:`close` wakes it; worker death is
        contained to the future it was serving.
        """
        pending: list[tuple[Future, RunSpec]] = []
        while True:
            while self._wake_r.poll():
                self._wake_r.recv_bytes()
            # Whatever was queued before a wake-up consumed above is
            # visible now; a later one leaves the pipe readable.
            while True:
                try:
                    task = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if task is None:
                    self._fail_pending(pending)
                    return
                pending.append(task)
            self._dispatch_pending(pending)
            busy = [w for w in self._pool if w.current is not None]
            ready = connection.wait([self._wake_r, *(w.conn for w in busy)])
            for conn in ready:
                if conn is self._wake_r:
                    continue
                worker = next(w for w in self._pool if w.conn is conn)
                assert worker.current is not None
                future, spec = worker.current
                try:
                    outcome = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task: contain the failure to
                    # its spec and replace the worker.
                    self._pool.remove(worker)
                    worker.conn.close()
                    worker.process.join()
                    self._pool.append(self._spawn())
                    outcome = RunOutcome.crashed(spec)
                else:
                    worker.current = None
                # A caller may have cancelled (e.g. a timed-out await);
                # the run still completed, its result is just dropped.
                if not future.done():
                    future.set_result(outcome)

    def _fail_pending(self, pending: list) -> None:
        """Resolve everything still queued or in flight at close time."""
        for worker in self._pool:
            if worker.current is not None:
                future, spec = worker.current
                worker.current = None
                if not future.done():
                    future.set_result(RunOutcome.crashed(spec))
        for future, spec in pending:
            if not future.done():
                future.set_result(RunOutcome.crashed(spec))
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is None:
                continue
            future, spec = task
            if not future.done():
                future.set_result(RunOutcome.crashed(spec))
