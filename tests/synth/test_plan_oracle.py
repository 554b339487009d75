"""``build_period_plan`` against its reference model, draw for draw.

The plan builder keeps a set beside each source's order keys and a key
list beside each SCD state, and a uniform draw runs one Python frame;
``tests/oracle/synth_plan.py`` is the body from before, drawing through
the distribution methods of that time.  The two must build equal plans
for every sampled spec, seed, distribution family and period.
"""

from __future__ import annotations

import pytest

from repro.synth import SynthSpec, build_period_plan
from tests.oracle import synth_plan as oracle

#: Every family, both update paths (a kept key drawn again, a new one)
#: and several sources per consolidation group.
SPECS = (
    "",
    "families=pipeline,sources=4,fan_out=2,update_ratio=0.9,messages=24",
    "families=scd+dirty,noise=0.4,update_ratio=0.8,rounds=3",
    "families=pipeline+cdc,fan_out=3,scale=2",
    "families=scd,update_ratio=0.5,messages=30,scale=0.5",
    "sources=4,depth=6,fan_out=4,mix=relational,update=0.8,scale=3,rounds=2,msgs=16",
)


@pytest.mark.parametrize("knobs", SPECS)
@pytest.mark.parametrize("seed", (5, 11, 42))
def test_plans_equal_the_reference_model(knobs, seed):
    spec = SynthSpec.parse(knobs).resolve(seed)
    for f, period in ((0, 0), (0, 1), (0, 7), (1, 0), (2, 3), (3, 5)):
        plan = build_period_plan(spec, f, period)
        assert plan == oracle.build_period_plan(spec, f, period), (f, period)
        assert plan.message_count() > 0
