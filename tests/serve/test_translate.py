"""Contract v1 translation: strict boundary, all problems at once."""

import pytest

from repro.errors import TranslationError
from repro.parallel import RunSpec
from repro.serve import (
    CONTRACT_V1,
    parse_session_request,
    session_to_json,
    spec_to_json,
)
from repro.serve.session import Session


def _doc(**spec):
    return {"contract": CONTRACT_V1, "tenant": "acme", "spec": spec}


class TestParse:
    def test_minimal_document(self):
        request = parse_session_request(_doc())
        assert request.tenant == "acme"
        assert request.contract == CONTRACT_V1
        assert request.spec == RunSpec()

    def test_full_spec_roundtrip(self):
        request = parse_session_request(
            _doc(
                engine="federated", datasize=0.1, time=0.5, distribution=2,
                periods=3, seed=99, jitter=0.1, engine_workers=2,
                durability="wal", verify=False,
            )
        )
        spec = request.spec
        assert spec.engine == "federated"
        assert spec.datasize == 0.1
        assert spec.periods == 3
        assert spec.durability == "wal"
        assert spec.verify is False

    def test_int_widens_to_float(self):
        assert parse_session_request(_doc(time=2)).spec.time == 2.0

    def test_default_tenant_from_header(self):
        doc = {"contract": CONTRACT_V1, "spec": {}}
        assert parse_session_request(doc, default_tenant="hdr").tenant == "hdr"

    def test_body_tenant_wins_over_header(self):
        assert (
            parse_session_request(_doc(), default_tenant="hdr").tenant
            == "acme"
        )


class TestRejection:
    def test_missing_contract(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request({"tenant": "acme", "spec": {}})
        assert any("contract: required" in p for p in err.value.problems)

    def test_unsupported_contract(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request(
                {"contract": "dipbench.session/v9", "tenant": "a", "spec": {}}
            )
        assert any("unsupported" in p for p in err.value.problems)

    def test_missing_tenant(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request({"contract": CONTRACT_V1, "spec": {}})
        assert any(p.startswith("tenant:") for p in err.value.problems)

    def test_unknown_fields_rejected_not_dropped(self):
        doc = _doc(datasize=0.05)
        doc["extra"] = 1
        doc["spec"]["dataszie"] = 0.1  # the misspelling that must fail loudly
        with pytest.raises(TranslationError) as err:
            parse_session_request(doc)
        problems = err.value.problems
        assert any("extra: unknown field" in p for p in problems)
        assert any("spec.dataszie: unknown field" in p for p in problems)

    def test_all_problems_collected_at_once(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request(
                {
                    "tenant": "",
                    "spec": {"datasize": "big", "distribution": True},
                }
            )
        assert len(err.value.problems) >= 3  # contract, tenant, two spec

    def test_bool_is_not_an_int(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request(_doc(seed=True))
        assert any("got bool" in p for p in err.value.problems)

    def test_type_mismatch(self):
        with pytest.raises(TranslationError) as err:
            parse_session_request(_doc(engine=3))
        assert any("spec.engine" in p for p in err.value.problems)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("engine", "warp-drive"),
            ("datasize", 0.0),
            ("datasize", 11.0),
            ("time", 0.0),
            ("distribution", 7),
            ("periods", 0),
            ("jitter", 1.0),
            ("engine_workers", 0),
            ("durability", "raid"),
            ("checkpoint_every", 0.0),
            ("sandiego_error_rate", 1.5),
        ],
    )
    def test_range_validation(self, field, value):
        with pytest.raises(TranslationError) as err:
            parse_session_request(_doc(**{field: value}))
        assert any(f"spec.{field}" in p for p in err.value.problems)

    def test_non_object_body(self):
        with pytest.raises(TranslationError):
            parse_session_request([1, 2, 3])


class TestResponses:
    def test_spec_roundtrips_through_external_form(self):
        spec = RunSpec(engine="federated", datasize=0.1, seed=9)
        again = parse_session_request(
            {"contract": CONTRACT_V1, "tenant": "t",
             "spec": spec_to_json(spec)}
        ).spec
        assert again == spec

    def test_session_document_separates_overheads(self):
        session = Session(id="s-000001", tenant="acme", spec=RunSpec())
        session.translation_s = 0.001
        session.admission_s = 0.002
        session.queue_wait_s = 0.003
        session.engine_wall_s = 0.5
        doc = session_to_json(session)
        assert doc["timings"]["serve_overhead_ms"] == pytest.approx(6.0)
        assert doc["timings"]["engine_wall_ms"] == pytest.approx(500.0)
        assert "error_type" not in doc
