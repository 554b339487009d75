"""The repo benchmark: five end-to-end workloads with outside-in layer attribution.

``python3 -m bench`` is the one command (see ``bench/README.md`` and
``BENCHMARK.json`` at the repo root).  Nothing in here is imported by
``src/`` — the harness drives the program strictly from outside.
"""

import importlib.util
import sys
from pathlib import Path

# The benchmark runs from a bare source checkout (no install, no
# PYTHONPATH): make ``repro`` importable from ``src/`` when it is not
# already.  Spawned children inherit the parent's ``sys.path``.
_SRC = Path(__file__).resolve().parent.parent / "src"
if importlib.util.find_spec("repro") is None and (_SRC / "repro").is_dir():
    sys.path.insert(0, str(_SRC))
