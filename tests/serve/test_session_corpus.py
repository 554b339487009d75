"""``dipbench.session/v1`` pinned by a corpus of documents.

Each case of ``session_v1_corpus.json`` is one external document and
what the translator answers: for an accepted one the tenant and the
echoed ``spec`` document (field order included), for a rejected one the
exact ``TranslationError`` message and ``problems`` list — the body of
the 400 a tenant reads.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import TranslationError
from repro.parallel.spec import KNOBS
from repro.serve import CONTRACT_V1, parse_session_request, spec_to_json

CORPUS = json.loads(
    Path(__file__).with_name("session_v1_corpus.json").read_text("utf-8")
)
ACCEPTED = [case for case in CORPUS if "accepted" in case]
REJECTED = [case for case in CORPUS if "rejected" in case]


def _parse(case):
    return parse_session_request(
        case["doc"], default_tenant=case.get("default_tenant")
    )


@pytest.mark.parametrize("case", ACCEPTED, ids=lambda case: case["name"])
def test_accepted_document(case):
    request = _parse(case)
    answer = {
        "tenant": request.tenant,
        "contract": request.contract,
        "spec": spec_to_json(request.spec),
    }
    assert json.dumps(answer) == json.dumps(case["accepted"])


@pytest.mark.parametrize("case", ACCEPTED, ids=lambda case: case["name"])
def test_the_echo_round_trips(case):
    """Posting a session's echoed ``spec`` back asks for the same run —
    up to the fields the contract accepts but never echoes."""
    spec = _parse(case).spec
    echoed = parse_session_request(
        {"contract": CONTRACT_V1, "tenant": "t", "spec": spec_to_json(spec)}
    ).spec
    accepted_only = {
        name: knob.default
        for name, knob in KNOBS.items() if knob.metadata.get("wire") == "r"
    }
    assert echoed == replace(spec, **accepted_only)


@pytest.mark.parametrize("case", REJECTED, ids=lambda case: case["name"])
def test_rejected_document(case):
    with pytest.raises(TranslationError) as err:
        _parse(case)
    assert str(err.value) == case["rejected"]["message"]
    assert err.value.problems == case["rejected"]["problems"]
