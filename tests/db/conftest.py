"""Shared handle for the differential suites: reach every rung of the
operator ladders without a production switch."""

import sys

import pytest

from repro.db import vector

DEFAULT_GATE = vector.BATCH_THRESHOLD
#: The default gate, every join batch on the columnar join, none.
GATES = (DEFAULT_GATE, 1, sys.maxsize)


@pytest.fixture()
def rungs(monkeypatch):
    """``for gate in rungs(): ...`` runs a block once per batch gate
    (:data:`GATES` unless others are given).

    At the default constant the suites' small inputs stay on the scalar
    rung; patched to 1, every non-empty join batch takes the columnar
    join; at ``sys.maxsize`` none does.
    The patch is test-only — production has no setter, flag or env var.
    """

    def each(*gates: int):
        for gate in gates or GATES:
            monkeypatch.setattr(vector, "BATCH_THRESHOLD", gate)
            yield gate

    return each
