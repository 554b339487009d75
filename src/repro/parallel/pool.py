"""A persistent worker pool over pipe-connected ``run_spec`` processes.

The sweep executor's parallel path and the serving layer's pool
dispatcher both run here: ``submit(spec) -> Future[RunOutcome]``, each
spec in an isolated worker process.  One thread of the pool owns each
worker process: it takes the next spec from one FIFO queue, sends it
down its worker's pipe and waits for the outcome; no other thread ever
touches that pipe.  A worker that dies outright (OOM kill, segfault,
``os._exit``) fails only the spec it was executing — the future
resolves to ``RunOutcome.crashed(spec)`` — and its thread starts a
replacement and keeps serving.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from concurrent.futures import Future

from repro.parallel.spec import RunOutcome, RunSpec, SweepError, run_spec

#: ``fork`` where available (fast, inherits the warm interpreter);
#: ``spawn`` otherwise.  Both produce identical outcomes — every worker
#: rebuilds its state from the spec alone.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
_CONTEXT = multiprocessing.get_context(START_METHOD)

#: How long :meth:`WorkerPool.close` waits for each thread, and each
#: thread for its stopped worker, before giving up on it.
_STOP_TIMEOUT_S = 10.0

#: Held from pipe creation until the parent closed the child's end, so
#: a worker started by one thread never inherits the child end of
#: another thread's new pipe (which would hide that worker's death).
_STARTING = threading.Lock()


def _worker_loop(conn) -> None:
    """One pool worker: receive a spec, send back its outcome."""
    try:
        while (spec := conn.recv()) is not None:
            conn.send(run_spec(spec))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


def _start_worker():
    with _STARTING:
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        process = _CONTEXT.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
    return process, parent_conn


class WorkerPool:
    """Fixed-size pool of ``run_spec`` worker processes with futures.

    Every thread takes from one FIFO queue, so a batch submitted in
    grid order starts in grid order.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._lock = threading.Lock()
        started = [_start_worker() for _ in range(workers)]
        self._threads = [
            threading.Thread(target=self._serve, args=worker, daemon=True)
            for worker in started
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, spec: RunSpec) -> "Future[RunOutcome]":
        """Queue one spec; the future resolves to its :class:`RunOutcome`.

        The future never raises for a *run* failure — errors and worker
        crashes come back as ``status="error"`` / ``"crashed"`` outcomes,
        mirroring the sweep executor's containment contract.  A future
        cancelled while still queued is never run.
        """
        with self._lock:
            if self._closed:
                raise SweepError("worker pool is closed")
            future: "Future[RunOutcome]" = Future()
            self._tasks.put((future, spec))
            return future

    def close(self) -> None:
        """Fail the queued work, stop the workers and their threads.

        Idempotent.  Futures still queued resolve to ``crashed``
        outcomes; a run in flight resolves when it ends, and a thread
        still waiting for one is left to stop its worker on its own.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            while True:
                future, spec = self._tasks.get_nowait()
                if future.set_running_or_notify_cancel():
                    future.set_result(RunOutcome.crashed(spec))
        except queue.Empty:
            pass
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(_STOP_TIMEOUT_S)

    def _serve(self, process, conn) -> None:
        """Feed one worker from the queue until :meth:`close`."""
        while (task := self._tasks.get()) is not None:
            future, spec = task
            if not future.set_running_or_notify_cancel():
                continue
            try:
                conn.send(spec)
                outcome = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-task: contain the failure to its
                # spec and replace the worker.
                conn.close()
                process.join()
                process, conn = _start_worker()
                outcome = RunOutcome.crashed(spec)
            future.set_result(outcome)
        try:
            conn.send(None)
        except OSError:
            pass
        conn.close()
        process.join(_STOP_TIMEOUT_S)
        if process.is_alive():  # pragma: no cover
            process.terminate()
            process.join()
