"""Versioned request/response translators at the serving boundary.

The Message Translator pattern (Enterprise Integration Patterns):
external JSON requests are translated into the *canonical* session
model — :class:`repro.parallel.RunSpec` — and internal state is
translated back into versioned response documents.  Internal dataclasses
never leak: a contract bump changes translators, not the engine room.

Contract ``dipbench.session/v1``
--------------------------------

.. code-block:: json

    {
      "contract": "dipbench.session/v1",
      "tenant": "acme",
      "spec": {
        "engine": "interpreter",
        "datasize": 0.05, "time": 1.0, "distribution": 0,
        "periods": 1, "seed": 42
      }
    }

Every ``spec`` field is optional (defaults match the CLI) and every
*unknown* field is rejected — boundary protection, not silent dropping:
a misspelled knob must fail loudly, or the tenant benchmarks something
other than what they asked for.  ``sabotage`` is accepted as a
documented test hook (it exists on :class:`RunSpec` for exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.declare import coerce, knob_type
from repro.errors import TranslationError
from repro.parallel.spec import KNOBS, RunSpec

#: The one contract this server speaks today.  A v2 adds a new entry
#: here plus its own translator; v1 requests keep working untouched.
CONTRACT_V1 = "dipbench.session/v1"
SUPPORTED_CONTRACTS = (CONTRACT_V1,)

#: v1 ``spec`` fields → python type: the boundary whitelist, read off
#: the fields :class:`RunSpec` declares part of the contract.  What it
#: does not declare (fault timelines, observability shard flags, the
#: memory budget) is server-internal.
_V1_SPEC_FIELDS: dict[str, type] = {
    name: knob_type(knob)
    for name, knob in KNOBS.items()
    if knob.metadata.get("wire")
}


@dataclass(frozen=True)
class SessionRequest:
    """The canonical form of one admitted-for-translation request."""

    tenant: str
    spec: RunSpec
    contract: str = CONTRACT_V1


def parse_session_request(
    doc: Any, default_tenant: str | None = None
) -> SessionRequest:
    """Translate one external JSON document into a :class:`SessionRequest`.

    Collects *every* violation before raising, so the 400 body a tenant
    sees lists all of them at once.
    """
    if not isinstance(doc, Mapping):
        raise TranslationError(
            "request body must be a JSON object",
            problems=["body: expected object"],
        )
    problems: list[str] = []
    contract = doc.get("contract")
    if contract is None:
        problems.append(
            f"contract: required (supported: {', '.join(SUPPORTED_CONTRACTS)})"
        )
    elif contract not in SUPPORTED_CONTRACTS:
        problems.append(
            f"contract: unsupported {contract!r} "
            f"(supported: {', '.join(SUPPORTED_CONTRACTS)})"
        )
    tenant = doc.get("tenant", default_tenant)
    if not tenant or not isinstance(tenant, str):
        problems.append("tenant: required (body field or X-Tenant header)")

    unknown_top = sorted(set(doc) - {"contract", "tenant", "spec"})
    for name in unknown_top:
        problems.append(f"{name}: unknown field")

    spec_doc = doc.get("spec", {})
    fields: dict[str, Any] = {}
    if not isinstance(spec_doc, Mapping):
        problems.append("spec: expected object")
    else:
        for name in sorted(set(spec_doc) - set(_V1_SPEC_FIELDS)):
            problems.append(f"spec.{name}: unknown field")
        for name, target in _V1_SPEC_FIELDS.items():
            if name not in spec_doc:
                continue
            value = spec_doc[name]
            if value is None and KNOBS[name].default is None:
                continue
            coerced = coerce(f"spec.{name}", value, target, problems)
            if coerced is not None:
                fields[name] = coerced
    if problems:
        raise TranslationError(
            f"request violates {CONTRACT_V1}: {len(problems)} problem(s)",
            problems=problems,
        )
    spec = RunSpec(**fields)
    problems = [f"spec.{problem}" for problem in spec.problems()]
    if problems:
        raise TranslationError(
            f"request violates {CONTRACT_V1}: {len(problems)} problem(s)",
            problems=problems,
        )
    return SessionRequest(tenant=tenant, spec=spec, contract=CONTRACT_V1)


# -- responses -----------------------------------------------------------------


def spec_to_json(spec: RunSpec) -> dict:
    """Render the canonical spec back into v1 external form.

    Every field the contract echoes, in declaration order; a knob string
    left empty (``synth`` on a classic run) is left out.
    """
    return {
        name: getattr(spec, name)
        for name, knob in KNOBS.items()
        if knob.metadata.get("wire") == "rw" and getattr(spec, name) != ""
    }


def session_to_json(session) -> dict:
    """The v1 session-status document (``GET /sessions/{id}``).

    ``timings`` splits where the session's wall time went: the serving
    layer's own overhead (translation, admission, queue wait,
    finalization) is metered separately from engine execution, so a
    tenant can see what the harness itself costs (Darmont's credibility
    requirement for benchmark harnesses).
    """
    doc = {
        "contract": CONTRACT_V1,
        "id": session.id,
        "tenant": session.tenant,
        "state": session.state,
        "cached": session.cached,
        "spec": spec_to_json(session.spec),
        "timings": {
            "translation_ms": round(session.translation_s * 1e3, 3),
            "admission_ms": round(session.admission_s * 1e3, 3),
            "queue_wait_ms": round(session.queue_wait_s * 1e3, 3),
            "engine_wall_ms": round(session.engine_wall_s * 1e3, 3),
            "serve_overhead_ms": round(session.serve_overhead_s * 1e3, 3),
        },
    }
    if session.error_type:
        doc["error_type"] = session.error_type
        doc["error"] = session.error
    return doc


def report_core(outcome, monitor) -> dict:
    """What a report says about the run itself, whoever asked for it.

    The same NAVG+, verification and landscape digest a direct
    :func:`~repro.parallel.run_spec` at this spec produces, byte for
    byte — ``repro storm --identity-check`` compares exactly this.
    """
    row = outcome.to_json()  # the sweep's row of the same run
    return {
        **{
            key: row[key]
            for key in ("landscape_digest", "fingerprint", "instances",
                        "errors", "verification_ok", "navg_plus")
        },
        "navg_plus_total": round(outcome.navg_plus_total(), 6),
        "latency_tu": monitor.latency_percentiles(),
    }


def report_to_json(session, monitor) -> dict:
    """The v1 session-report document (``GET /sessions/{id}/report``)."""
    doc = {
        "contract": CONTRACT_V1,
        "id": session.id,
        "tenant": session.tenant,
        "state": session.state,
    }
    outcome = session.outcome
    if outcome is None or outcome.result is None:
        return {
            **doc,
            "error_type": session.error_type,
            "error": session.error,
        }
    return {**doc, "cached": session.cached, **report_core(outcome, monitor)}
