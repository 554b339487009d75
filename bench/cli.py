"""``python3 -m bench``: run workloads in fresh children, print every metric.

Driver form (one workload, machine-readable last line)::

    python3 -m bench --workload classic --seed 5 --seconds 20 --trace 0

Human form (all five workloads, a table each)::

    python3 -m bench [--seed N] [--repeat N] [--trace] [--quick] [--out F]

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` is a separate run that prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from bench.calibrate import KernelProcess, shared_cpu
from bench.stats import median

ROOT = Path(__file__).resolve().parent.parent
#: Set-up probes per run besides the measured child's own set-up.
SETUP_PROBES = 3
DEFAULT_SEED = 5


def _default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20


def _end_group(pgid: int, patience: float = 10.0) -> None:
    """Kill what is left of a child's process group (nothing, unless the
    child was killed before it stopped its pool workers) and wait until
    the group is empty."""
    deadline = time.monotonic() + patience
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    The first ``spawn`` starts it; left alone it notices only *after*
    this process has gone that nobody holds its pipe any more, and so
    outlives the command by a moment (Python stops it itself from 3.13)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _spawn(plan, seconds: float, trace: bool, setup_only: bool, kernel: KernelProcess,
           cpu: int | None, quick: bool = False) -> dict:
    """Run one child to completion and return what it sent."""
    from bench.child import MIN_UNITS, QUICK_UNITS, child_main

    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=child_main,
        args=(sender, plan, seconds, trace, setup_only, time.perf_counter_ns(),
              kernel.conn, cpu, QUICK_UNITS if quick else MIN_UNITS),
    )
    process.start()
    sender.close()
    try:
        if not receiver.poll(seconds + 120.0):
            raise RuntimeError("benchmark child sent nothing before the timeout")
        result = receiver.recv()
    except EOFError:
        raise RuntimeError("benchmark child died without a result") from None
    except BaseException:  # timeout, SIGTERM, ^C: do not wait for the child
        process.kill()
        raise
    finally:
        receiver.close()
        process.join(timeout=30.0)
        if process.is_alive():
            process.kill()
            process.join()
        _end_group(process.pid)
    if "error" in result:
        raise RuntimeError(f"benchmark child failed:\n{result['error']}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> tuple[dict, list[dict]]:
    """One run of one workload: set-up probes, then the measured child,
    all asking one kernel process for the host's speed.

    Every child is a fresh ``spawn``ed process with all ``REPRO_*``
    variables scrubbed and a private spill directory, removed afterwards.
    Returns the measured child's result and every child's set-up result.
    """
    from bench.workloads import build

    plan = build(name, seed)
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_")}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    spill = tempfile.mkdtemp(prefix="spill-", dir=scratch)
    os.environ["REPRO_SPILL_DIR"] = spill
    # Single-threaded children share one CPU with the kernel process;
    # the served one needs both for its workers, so the kernel process
    # goes wherever the scheduler finds room.
    cpu = shared_cpu() if plan.spec is not None else None
    try:
        with KernelProcess(cpu) as kernel:
            probed = [
                _spawn(plan, seconds, False, True, kernel, cpu)
                for _ in range(0 if quick else SETUP_PROBES)
            ]
            result = _spawn(plan, seconds, trace, False, kernel, cpu, quick=quick)
        return result, [*probed, result]
    finally:
        del os.environ["REPRO_SPILL_DIR"]
        os.environ.update(saved)
        shutil.rmtree(spill, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run once and reduce to the contract's result object (plus extras
    for the human tables and ``--out``, under keys the driver line drops)."""
    from bench import metrics

    result, setups = run_workload(name, seed, seconds, trace, quick)
    attempted, failed = metrics.accounting(result)
    values = (
        metrics.per_layer(result) if trace
        else metrics.end_to_end(result, setups, strict=not quick)
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "_units": len(result["unit_ms"]),
        "_raw": metrics.raw_summary(result, setups),
        "_counts": result["counts"],
        "_gates": result["gates"],
        "_layers": metrics.layer_table(result) if trace else [],
    }


def contract(run: dict) -> dict:
    """The result object the driver reads (human-table extras dropped)."""
    return {k: v for k, v in run.items() if not k.startswith("_")}


def _saved(run: dict) -> dict:
    """What ``--out`` keeps: the contract object, the raw clock readings
    and host speed beside it, and the deterministic counters."""
    return {**contract(run), "raw": run["_raw"], "counts": run["_counts"]}


def _print_run(name: str, run: dict, trace: bool) -> None:
    status = "ok" if run["correct"] else "FAILED"
    print(f"\n== {name}: {status}  units={run['_units']} "
          f"attempted={run['attempted']} failed={run['failed']}")
    for gate, ok in run["_gates"].items():
        print(f"   gate {gate:<28} {'pass' if ok else 'FAIL'}")
    if trace and run["_layers"]:
        print(f"   {'layer':<26}{'self ms/unit':>14}{'share':>9}{'calls/unit':>12}")
        for layer, ms, share, calls in run["_layers"]:
            print(f"   {layer:<26}{ms:>14.3f}{share:>8.1%}{calls:>12}")
        total = sum(share for _l, _ms, share, _c in run["_layers"])
        print(f"   {'(sum of shares)':<26}{'':>14}{total:>8.1%}")
    for metric, entry in run["metrics"].items():
        print(f"   {metric:<38}{entry['value']:>16.4f} {entry['unit']}")
    for metric, value in run["_raw"].items():
        print(f"   ({metric:<36}{value:>16.4f})")
    counts = {k: v for k, v in sorted(run["_counts"].items()) if v}
    print(f"   counters, first units: {json.dumps(counts)}")


def _median_run(runs: list[dict]) -> dict:
    """Reduce ``--repeat`` runs of one workload: per-metric medians,
    summed accounting, every run's values kept for ``compare``."""
    names = runs[0]["metrics"]
    gates = {g: all(r["_gates"][g] for r in runs) for g in runs[0]["_gates"]}
    # Counters (read by every child) and count metrics (traced runs) are
    # taken over a fixed prefix of units: for one seed they must repeat
    # exactly, run after run.
    gates["counts_repeat_exactly"] = all(
        r["_counts"] == runs[0]["_counts"] for r in runs
    ) and all(
        len({r["metrics"][n]["value"] for r in runs}) == 1
        for n in names if names[n]["unit"] == "count"
    )
    return {
        "correct": all(r["correct"] for r in runs) and gates["counts_repeat_exactly"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs) + (not gates["counts_repeat_exactly"]),
        "metrics": {
            n: {
                "value": median([r["metrics"][n]["value"] for r in runs]),
                "unit": names[n]["unit"],
                "runs": [r["metrics"][n]["value"] for r in runs],
            }
            for n in names
        },
        "_units": sum(r["_units"] for r in runs),
        "_raw": {k: median([r["_raw"][k] for r in runs]) for k in runs[0]["_raw"]},
        "_counts": runs[0]["_counts"],
        "_gates": gates,
        "_layers": runs[-1]["_layers"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh runs per workload; medians are reported")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: seconds / 10, no set-up probes, "
                             "output flagged non-comparable")
    parser.add_argument("--out", metavar="FILE.json",
                        help="write all results with provenance (human form)")
    args = parser.parse_args(argv)

    try:
        from bench.workloads import WHY
    except ImportError as exc:
        print(f"bench: cannot import the program under test ({exc}); run from a "
              f"checkout that has src/repro", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WHY:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WHY)}")
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    if args.quick:
        seconds /= 10.0
    names = [args.workload] if args.workload else list(WHY)
    trace = bool(args.trace)

    results: dict[str, dict] = {}
    for name in names:
        runs = [
            measure(name, args.seed, seconds, trace, args.quick)
            for _ in range(max(args.repeat, 1))
        ]
        results[name] = runs[0] if len(runs) == 1 else _median_run(runs)
        _print_run(name, results[name], trace)
    if args.quick:
        print("\nNOT COMPARABLE: --quick run (short, percentile sample rule waived)")

    if args.out:
        Path(args.out).write_text(json.dumps({
            "provenance": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "date": time.strftime("%Y-%m-%d"),
                "seed": args.seed,
                "seconds": seconds,
                "repeat": args.repeat,
                "trace": int(trace),
                "comparable": not args.quick,
            },
            "workloads": {n: _saved(r) for n, r in results.items()},
        }, indent=1) + "\n")

    print()
    if args.workload:
        print(json.dumps(contract(results[args.workload])))
    else:
        print(json.dumps({"workloads": {n: contract(r) for n, r in results.items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1
