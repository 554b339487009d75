"""Deploy validates each definition once — and still fails where the
quadratic loop did.

The oracle (``tests/oracle/storage.py::Deployment``) re-validates every
resolved definition on every ``deploy``; production validates a
definition at the one deploy that resolves the last of its subprocess
references.  For every deployment order of a process set with forward
references, an invalid definition and a reference nothing resolves, both
must raise the same error at the same call.
"""

from itertools import permutations
from unittest import mock

import pytest

from repro.engine import ENGINES, MtmInterpreterEngine
from repro.engine import base as engine_base
from repro.mtm import (
    EventType,
    ProcessGroup,
    ProcessType,
    Sequence,
    Signal,
    Subprocess,
)
from repro.scenario import build_processes
from tests.engine.test_engine_base import fresh_registry
from tests.oracle.storage import Deployment


def process(pid, *subprocess_ids, valid=True, child=False):
    steps = [Subprocess(s) for s in subprocess_ids] + [Signal()]
    return ProcessType(
        pid,
        ProcessGroup.D,
        "t",
        # An E1 process that does not start with RECEIVE is invalid.
        EventType.E2_SCHEDULE if valid else EventType.E1_MESSAGE,
        Sequence(steps),
        subprocess_only=child,
    )


def outcome(deployer, order, one_call):
    """Per-call results: ``None`` or ``(error type, message)``; stops at
    the first refusal like any caller of ``deploy`` would."""
    results = []
    try:
        if one_call:
            deployer.deploy_all(order)
            results.append(None)
        else:
            for item in order:
                deployer.deploy(item)
                results.append(None)
    except Exception as exc:  # compared, not handled
        results.append((type(exc), str(exc)))
    return results


def both(order, one_call):
    engine = MtmInterpreterEngine(fresh_registry())
    reference = Deployment(engine.engine_name)
    return outcome(engine, order, one_call), outcome(reference, order, one_call)


PROCESS_SETS = {
    "forward-references": lambda: [
        process("TOP", "MID", "LEAF"),
        process("MID", "LEAF", child=True),
        process("LEAF", child=True),
        process("ALONE"),
    ],
    "one-invalid": lambda: [
        process("TOP", "BAD", "LEAF"),
        process("BAD", "LEAF", valid=False),
        process("LEAF", child=True),
        process("ALONE"),
    ],
    "two-invalid-resolved-by-one-deploy": lambda: [
        process("BAD1", "LEAF", valid=False),
        process("BAD2", "LEAF", valid=False),
        process("LEAF", child=True),
    ],
    "never-resolved": lambda: [
        process("TOP", "GHOST", "LEAF"),
        process("LEAF", child=True),
        process("ALONE"),
        process("OTHER", "TOP"),
    ],
    "invalid-and-never-resolved": lambda: [
        process("TOP", "GHOST"),
        process("BAD", "LEAF", valid=False),
        process("LEAF", child=True),
        process("WAITS", "BAD"),
    ],
}


@pytest.mark.parametrize("one_call", [False, True], ids=["deploy", "deploy_all"])
@pytest.mark.parametrize("name", sorted(PROCESS_SETS))
def test_every_deployment_order_fails_where_the_oracle_does(name, one_call):
    refusals = 0
    for order in permutations(PROCESS_SETS[name]()):
        got, expected = both(list(order), one_call)
        assert got == expected, [p.process_id for p in order]
        refusals += got[-1] is not None
    # Only ``deploy_all`` checks the closure; ``deploy`` lets a dangling
    # reference wait for a later deploy.
    clean = name == "forward-references" or (
        name == "never-resolved" and not one_call
    )
    assert (refusals == 0) == clean


def test_a_refused_definition_is_refused_again_by_the_next_deploy():
    # The oracle keeps tripping over an invalid definition it installed;
    # so does production, which must not forget it after one refusal.
    bad, leaf, other = (
        process("BAD", "LEAF", valid=False),
        process("LEAF", child=True),
        process("OTHER"),
    )
    engine = MtmInterpreterEngine(fresh_registry())
    reference = Deployment(engine.engine_name)
    for deployer in (engine, reference):
        deployer.deploy(bad)
    first = [outcome(d, [leaf], False) for d in (engine, reference)]
    second = [outcome(d, [other], False) for d in (engine, reference)]
    assert first[0] == first[1] and first[0][-1] is not None
    assert second[0] == second[1] and second[0][-1] is not None


def test_a_crash_forgets_definitions_still_waiting_for_a_reference():
    engine = MtmInterpreterEngine(fresh_registry())
    engine.deploy(process("TOP", "GHOST"))
    engine.crash()
    engine.deploy_all([process("ALONE")])  # GHOST is nobody's problem now
    assert engine.deployed_ids == ["ALONE"]


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_scenario_deploy_validates_each_definition_once(engine_name):
    processes = list(build_processes().values())
    reference = Deployment()
    reference.deploy_all(processes)
    engine = ENGINES[engine_name](fresh_registry())
    with mock.patch.object(
        engine_base,
        "assert_valid_definition",
        wraps=engine_base.assert_valid_definition,
    ) as validate:
        engine.deploy_all(processes)
        assert validate.call_count == len(processes) < reference.validations
        engine.crash()
        engine.deploy_all(processes)
        assert validate.call_count == 2 * len(processes)
    assert [c.args[0].process_id for c in validate.call_args_list].count(
        "P14"
    ) == 2
