"""Host-speed calibration: a fixed kernel, timed in a process of its own
next to every unit.

This box is shared: back-to-back 20 s runs of one commit put the raw
median period time anywhere within ±20 % (CPU time moves with it, so it
is the core getting slower — neighbours, frequency — not descheduling),
and the speed drifts over seconds to minutes.  The driver accepts a
metric only if its run-to-run spread stays inside a bound of at most
0.25; raw wall-clock times on this box do not.

So every run starts one *kernel process*.  It imports nothing of the
program under test and does nothing but time a fixed 1 ms kernel of
interpreter work (dict and list building, string formatting, a filtering
loop) in thread CPU time: nothing the program does to its own
interpreter (GC settings, heap size, caches) reaches the kernel, and the
kernel never runs inside a measured process or event loop.  The kernel
must run on a core the workload keeps awake — a core that slept reads
up to 1.4x slow for reasons that have nothing to do with the program —
so there are two ways of asking:

* single-threaded workloads: the measuring child asks before and after
  every unit and waits for the answer; both processes are pinned to one
  CPU, so the kernel runs at the same moment on the same, still warm
  core as the unit;
* ``served`` (both cores busy in pool workers): the kernel process
  samples by itself every 20 ms while sessions run, stamping
  ``perf_counter_ns`` (one clock for all processes), and each session
  reads the samples taken while it was in flight.

A *reference* time is the raw time divided by ``kernel time /
NOMINAL_NS`` around it: what the work would take on a host that runs the
kernel in exactly 1 ms.  It is a plain ratio, no fitted exponent.
``bench/README.md`` ("Steadiness") has the evidence on all five
workloads and what was tried and rejected; raw values are always
reported beside the reference ones.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from bisect import bisect_left, bisect_right

#: The kernel's time on the reference host (this box when quiet ≈ 1.0 ms).
NOMINAL_NS = 1_000_000
#: Pause between two samples of a free run: ~5 % of one core.
INTERVAL_S = 0.02


def _kernel(n: int = 1500) -> int:
    index = {}
    rows = []
    for i in range(n):
        row = {"k": i, "name": "c%d" % i, "v": i * 0.5, "flag": None}
        index[(i,)] = len(rows)
        rows.append(row)
    total = 0
    for row in rows:
        if row["k"] % 3 == 0 and row["flag"] is None:
            total += int(row["v"]) + len(row["name"])
    return total


def _sample(runs: int = 3) -> int:
    """Kernel CPU time now, in ns: the fastest of ``runs`` runs (asked
    after a wait, the first one wakes the core and refills its caches;
    a free run samples often enough to take one at a time)."""
    best = None
    for _ in range(runs):
        start = time.thread_time_ns()
        _kernel()
        elapsed = time.thread_time_ns() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def pin(cpu: int | None) -> None:
    """Keep this process on one CPU (no-op where the OS cannot)."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def shared_cpu() -> int | None:
    """The CPU a single-threaded child and the kernel process share."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def _kernel_main(conn, cpu: int | None) -> None:
    """Process entry point: answer ``"sample"`` with one sample; on
    ``"run"`` sample every ``INTERVAL_S`` until the next message and
    answer with the ``(stamp, kernel ns)`` pairs; ``None`` ends it."""
    pin(cpu)
    for _ in range(20):  # warm the kernel's code and allocator
        _kernel()
    conn.send("ready")
    while (request := conn.recv()) is not None:
        if request == "run":
            samples = [(time.perf_counter_ns(), _sample(runs=1))]
            while not conn.poll(INTERVAL_S):
                samples.append((time.perf_counter_ns(), _sample(runs=1)))
            conn.recv()
            conn.send(samples)
        else:
            conn.send(_sample())
    conn.close()


def sample(conn) -> int:
    """Ask the kernel process for one sample and wait for it."""
    conn.send("sample")
    return conn.recv()


class FreeRun:
    """The kernel process sampling by itself between ``with`` entry and
    exit; afterwards :meth:`kernel_ns_during` answers for any interval."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.stamps: list[int] = []
        self.kernel_ns: list[int] = []

    def __enter__(self) -> "FreeRun":
        self._conn.send("run")
        return self

    def __exit__(self, *exc_info) -> None:
        self._conn.send("stop")
        samples = self._conn.recv()
        self.stamps = [stamp for stamp, _ns in samples]
        self.kernel_ns = [ns for _stamp, ns in samples]

    def kernel_ns_during(self, start_ns: int, end_ns: int) -> float:
        """Median kernel time over the samples stamped inside the
        interval, plus the one before and the one after."""
        first = max(bisect_left(self.stamps, start_ns) - 1, 0)
        last = bisect_right(self.stamps, end_ns) + 1
        window = self.kernel_ns[first:last] or self.kernel_ns[-1:]
        if not window:
            raise ValueError("the free run took no sample")
        return statistics.median(window)


def slowdown(kernel_ns: float) -> float:
    """Host slowdown against the reference host."""
    return kernel_ns / NOMINAL_NS


def slowdowns(samples: list[int]) -> list[float]:
    """Host slowdown per unit from the ``len(units) + 1`` kernel samples
    taken around the units (mean of the one before and the one after)."""
    return [
        slowdown((before + after) / 2.0)
        for before, after in zip(samples, samples[1:])
    ]


class KernelProcess:
    """Context manager around the kernel process; ``conn`` is the end
    the measuring children ask through, one child at a time."""

    def __init__(self, cpu: int | None) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, theirs = ctx.Pipe()
        self._theirs = theirs
        self._process = ctx.Process(target=_kernel_main, args=(theirs, cpu))

    def __enter__(self) -> "KernelProcess":
        self._process.start()
        self._theirs.close()
        if not self.conn.poll(30.0) or self.conn.recv() != "ready":
            self._process.kill()
            self._process.join()
            raise RuntimeError("the kernel process did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass  # already gone
        self.conn.close()
        self._process.join(timeout=30.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
