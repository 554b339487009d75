"""The one command, end to end, at smoke size."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _alive_in_session(sid: int) -> list[str]:
    """Command names of the live processes of a session (Linux /proc)."""
    alive = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            name, rest = Path(f"/proc/{pid}/stat").read_text().split("(", 1)[1].rsplit(")", 1)
        except OSError:
            continue  # gone while we looked
        state, _ppid, _pgrp, session = rest.split()[:4]
        if int(session) == sid and state != "Z":
            alive.append(f"{pid}:{name}")
    return alive


def test_quick_run_passes_every_gate_in_under_30s_and_leaves_no_process():
    started = time.monotonic()
    done = subprocess.Popen(
        [sys.executable, "-m", "bench", "--quick"], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    stdout, stderr = done.communicate(timeout=120)
    # Looked at right away: a helper that ends "soon after" is a leak.
    left_running = _alive_in_session(done.pid) if Path("/proc/self/stat").exists() else []
    elapsed = time.monotonic() - started
    assert done.returncode == 0, stdout + stderr
    assert not left_running, f"processes outlived the command: {left_running}"
    assert "NOT COMPARABLE" in stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert list(last["workloads"]) == ["classic", "synth", "budget", "durable", "served"]
    for run in last["workloads"].values():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert all(m["value"] > 0 for m in run["metrics"].values())
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    assert not (ROOT / ".bench_tmp").exists()
