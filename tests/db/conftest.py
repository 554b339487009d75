"""Shared handle for the differential suites: reach every rung of the
operator ladders without a production switch."""

import pytest

from repro.db import vector

DEFAULT_GATE = vector.BATCH_THRESHOLD


@pytest.fixture()
def rungs(monkeypatch):
    """``for gate in rungs(): ...`` runs a block once per batch gate.

    At the default constant the suites' small inputs stay on the scalar
    rung; patched to 1, every non-empty batch takes the column kernels.
    The patch is test-only — production has no setter, flag or env var.
    """

    def each(*gates: int):
        for gate in gates or (DEFAULT_GATE, 1):
            monkeypatch.setattr(vector, "BATCH_THRESHOLD", gate)
            yield gate

    return each
