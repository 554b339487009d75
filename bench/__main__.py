"""``python3 -m bench`` (the guard matters: spawned children re-import this)."""

import signal
import sys

from bench.cli import main, stop_resource_tracker


def _terminated(signum, _frame):
    # Leave through the ``finally`` blocks that stop the children.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
