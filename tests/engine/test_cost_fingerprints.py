"""Exact priced costs of every engine, pinned by run fingerprint.

``tests/metrics/golden_navg.json`` pins two engines' NAVG+ tables to six
digits; nothing else holds the EAI and ETL price lists to the bit.
:meth:`RunOutcome.fingerprint` hashes every instance record's ``repr``
(its ``CostBreakdown`` floats included), so one changed charge — an E1
receive overhead dropped, or charged on an E2 event — moves the pin.

The runs are virtual-time and seeded, so the digests do not depend on
the host or on ``PYTHONHASHSEED``.  A change that moves them on purpose
(a cost-model fix) regenerates them with::

    PYTHONPATH=src python tests/engine/test_cost_fingerprints.py
"""

from __future__ import annotations

import pytest

from repro.parallel import RunSpec, run_spec

CLASSIC = dict(datasize=0.02, periods=1, seed=5)

#: (spec, fingerprint) by case name.
PINNED: dict[str, tuple[RunSpec, str]] = {
    "interpreter": (
        RunSpec(engine="interpreter", **CLASSIC),
        "18fd101f9eda2b5153c7c7e331072341c2a63aebc3bbcbaa103ba0db659f1113",
    ),
    "federated": (
        RunSpec(engine="federated", **CLASSIC),
        "7aa2493632d1d348c7d54ec3d0f586333f84015acff52a0c50cf4abf6e25839a",
    ),
    "eai": (
        RunSpec(engine="eai", **CLASSIC),
        "3715635927f42db3f4a0a08564fab8bdcadb1ccff7b146e81da57a9491dff586",
    ),
    "etl": (
        RunSpec(engine="etl", **CLASSIC),
        "9cb00afc74c9e653c4b7fc2cc5ace89d479470308de929d96bcd7bb5412427b0",
    ),
    "synth-etl": (
        RunSpec(engine="etl", synth="sources=2", **CLASSIC),
        "fbdf4ba8bcbadbf5360557d501d32ef56451f8bcdc82a7f323269e6d7c1867ea",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_priced_costs_are_pinned(case):
    spec, fingerprint = PINNED[case]
    outcome = run_spec(spec)
    assert outcome.ok, outcome.error
    assert outcome.result.verification.ok
    assert outcome.fingerprint() == fingerprint


if __name__ == "__main__":
    for name, (spec, _) in PINNED.items():
        print(f"{name}: {run_spec(spec).fingerprint()}")
