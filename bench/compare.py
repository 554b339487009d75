"""``python3 -m bench.compare A.json B.json``: parent against change.

Both files come from ``python3 -m bench --repeat N --out FILE`` (same
seed, same seconds).  Untraced files are judged per (metric, workload)
against the bounds fixed in ``BENCHMARK.json``:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    A's own run-to-run spread (interquartile distance / median) is wider
    than the bound, so "no worse than the bound" cannot be shown — unless
    every run of B reads better than every run of A.
``improved``
    B wins at least nine tenths of all (A run, B run) pairs, ties
    counting for neither, and the medians differ by more than A's spread.
``unchanged``
    none of the above.

The verdicts are on reference times (raw time / host-probe slowdown, see
``bench/calibrate.py``); each workload's header shows how much the host's
speed differed between the two files and every timed row shows the raw
clock readings' change beside the verdict, so a verdict that rests on
the normalisation alone is visible as one.  The deterministic counters
of the untraced runs are compared exactly.

Traced files get per-layer deltas instead: self times as a percentage
(no verdict — they carry the tracing overhead), counts exactly.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

from bench.stats import median, spread

ROOT = Path(__file__).resolve().parent.parent


def _bounds() -> dict[str, tuple[str, float]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def _runs(entry: dict) -> list[float]:
    return entry.get("runs") or [entry["value"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(status, relative change of the median; positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    noise = spread(a) if len(a) >= 2 else 0.0
    pairs = list(product(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if worse_by > bound:
        return "regressed", worse_by
    if noise > bound and losses > 0:
        return "unresolved", worse_by
    if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > noise * abs(med_a):
        return "improved", worse_by
    return "unchanged", worse_by


def _change(a: dict, b: dict, key: str) -> float:
    """Relative change of ``key`` from A to B (0 when either lacks it)."""
    return (b[key] - a[key]) / a[key] if a.get(key) and key in b else 0.0


def compare(a_doc: dict, b_doc: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed or stayed unresolved."""
    lines: list[str] = []
    flagged = False
    traced = bool(a_doc["provenance"].get("trace"))
    if traced != bool(b_doc["provenance"].get("trace")):
        raise ValueError("cannot compare a traced file with an untraced one")
    for key in ("seed", "seconds"):
        if a_doc["provenance"].get(key) != b_doc["provenance"].get(key):
            lines.append(f"WARNING: {key} differs between the two files")
    bounds = _bounds()
    for workload, a_run in a_doc["workloads"].items():
        b_run = b_doc["workloads"].get(workload)
        if b_run is None:
            lines.append(f"{workload}: missing from B")
            flagged = True
            continue
        a_raw, b_raw = a_run.get("raw", {}), b_run.get("raw", {})
        host = _change(a_raw, b_raw, "host_kernel_ms_p50")
        lines.append(
            f"== {workload}  (failed: A={a_run['failed']} B={b_run['failed']}; "
            f"host kernel {a_raw.get('host_kernel_ms_p50', 0):.3f} -> "
            f"{b_raw.get('host_kernel_ms_p50', 0):.3f} ms, {host:+.1%})"
        )
        if b_run["failed"] > a_run["failed"]:
            lines.append("   more operations fail in B: no gain counts")
            flagged = True
        a_counts, b_counts = a_run.get("counts", {}), b_run.get("counts", {})
        for key in sorted(set(a_counts) | set(b_counts)):
            if a_counts.get(key, 0) != b_counts.get(key, 0):
                lines.append(
                    f"   counter {key:<30}{a_counts.get(key, 0):>12} ->"
                    f"{b_counts.get(key, 0):>12}  differs by "
                    f"{b_counts.get(key, 0) - a_counts.get(key, 0):+}"
                )
        for name, a_entry in a_run["metrics"].items():
            b_entry = b_run["metrics"].get(name)
            if b_entry is None:
                continue
            a_med, b_med = a_entry["value"], b_entry["value"]
            if not traced:
                better, bound = bounds[name]
                status, worse_by = verdict(_runs(a_entry), _runs(b_entry), better, bound)
                flagged |= status in ("regressed", "unresolved")
                word = "worse" if worse_by > 0 else "better"
                raw = (
                    f"  (raw {_change(a_raw, b_raw, name + '_raw'):+.1%})"
                    if name + "_raw" in a_raw and name + "_raw" in b_raw else ""
                )
                lines.append(
                    f"   {name:<20}{a_med:>14.4f} ->{b_med:>14.4f} {a_entry['unit']:<6}"
                    f"{abs(worse_by):>7.1%} {word:<7} bound {bound:.0%}  {status}{raw}"
                )
            elif a_entry["unit"] == "count":
                if a_med != b_med:
                    lines.append(
                        f"   {name:<38}{a_med:>14.0f} ->{b_med:>14.0f}  "
                        f"count differs by {b_med - a_med:+.0f}"
                    )
            elif a_med or b_med:
                change = (b_med - a_med) / a_med if a_med else float("inf")
                lines.append(
                    f"   {name:<38}{a_med:>14.4f} ->{b_med:>14.4f} "
                    f"{a_entry['unit']:<6}{change:>+8.1%}"
                )
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in args)
    lines, flagged = compare(a_doc, b_doc)
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
