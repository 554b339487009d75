"""End-to-end tests of the asyncio HTTP front end.

Each test boots a real server on a free port and talks to it through
:class:`ServeClient` — the same code path a storm's virtual clients
take.  Fast tests stub engine execution; the byte-identity test at the
bottom runs the real benchmark once and proves the served report equals
direct :func:`run_spec` execution, field for field.
"""

import asyncio
import json
import time

import pytest

from repro.parallel.spec import RunOutcome, run_spec
from repro.serve import (
    CONTRACT_V1,
    HttpServer,
    ServeClient,
    ServeConfig,
    SessionManager,
    TenantPolicy,
    parse_session_request,
)
from repro.serve import http
from repro.serve.http import MAX_HEADERS
from repro.toolsuite.monitor import Monitor


#: The stand-in run fails every spec from this seed up.
FAILING_SEED = 900


@pytest.fixture()
def fast_runs(monkeypatch):
    """Instant deterministic stand-in for engine execution."""

    def fake_run_spec(spec):
        if spec.seed >= FAILING_SEED:
            return RunOutcome.failed(spec, RuntimeError("failed run"))
        time.sleep(0.002)
        return RunOutcome(
            spec=spec, status="ok",
            landscape_digest=f"digest-{spec.seed}", wall_seconds=0.002,
        )

    monkeypatch.setattr("repro.serve.dispatch.run_spec", fake_run_spec)
    return fake_run_spec


def _config(**kwargs):
    kwargs.setdefault("dispatcher", "inline")
    kwargs.setdefault("engine_slots", 2)
    return ServeConfig(**kwargs)


def _doc(tenant="acme", **spec):
    return {"contract": CONTRACT_V1, "tenant": tenant, "spec": spec}


def serve_scenario(scenario, config=None):
    """Boot a server, run ``scenario(client)``, always drain and stop."""

    async def wrapper():
        server = HttpServer(SessionManager(config or _config()))
        await server.start(host="127.0.0.1", port=0)
        try:
            return await scenario(ServeClient(server.host, server.port))
        finally:
            await server.stop(drain=True)

    return asyncio.run(wrapper())


class TestRouting:
    def test_healthz(self, fast_runs):
        async def scenario(client):
            reply = await client.healthz()
            assert reply.status == 200
            assert reply.doc["status"] == "ok"
            assert reply.doc["queue_capacity"] == 64
            assert reply.doc["dispatcher"] == "inline"
            # The cluster-era health document: per-endpoint breaker
            # states, dead-letter classes and replication aggregates
            # are always present, even with nothing served yet.
            assert reply.doc["breaker_states"] == {}
            assert reply.doc["dead_letters_by_class"] == {}
            assert reply.doc["replication"]["failovers"] == 0

        serve_scenario(scenario)

    def test_unknown_route_is_404(self, fast_runs):
        async def scenario(client):
            reply = await client.request("GET", "/nope")
            assert reply.status == 404

        serve_scenario(scenario)

    def test_wrong_method_is_405(self, fast_runs):
        async def scenario(client):
            reply = await client.request("DELETE", "/sessions")
            assert reply.status == 405

        serve_scenario(scenario)

    def test_invalid_json_body_is_400(self, fast_runs):
        async def scenario(client):
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            payload = (
                b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            writer.write(payload)
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            await writer.wait_closed()
            assert status == 400

        serve_scenario(scenario)

    @pytest.mark.parametrize("head, status", [
        (b"Content-Length: abc\r\n", 400),
        (b"Content-Length: -3\r\n", 400),
        (b"X-Long: " + b"a" * (1 << 17) + b"\r\n", 431),
        (b"no colon here\r\n", 400),
        (b"X-Many: 1\r\n" * (MAX_HEADERS + 1), 431),
    ], ids=["length-not-a-number", "length-negative", "header-over-limit",
            "header-without-colon", "too-many-headers"])
    def test_malformed_head_is_a_4xx_and_the_server_stays_up(
        self, fast_runs, head, status
    ):
        async def scenario(client):
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            # A request that answers 200 whenever its head is well formed.
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n")
            await writer.drain()
            answered = int((await reader.readline()).split()[1])
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # the server closed with bytes unread
                pass
            assert answered == status
            assert (await client.healthz()).status == 200

        serve_scenario(scenario)

    def test_a_half_sent_request_is_408_and_the_server_stays_up(
        self, fast_runs, monkeypatch
    ):
        monkeypatch.setattr(http, "READ_DEADLINE_S", 0.2)

        async def scenario(client):
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            writer.write(b"GET /heal")  # half a request line, then silence
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            assert answer.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
            assert b"request not read within 0.2s" in answer
            assert (await client.healthz()).status == 200

        serve_scenario(scenario)


class TestSessionFlow:
    def test_submit_wait_report(self, fast_runs):
        async def scenario(client):
            posted = await client.post_session(_doc(seed=4))
            assert posted.status == 202
            doc = posted.doc
            assert doc["contract"] == CONTRACT_V1
            assert doc["tenant"] == "acme"
            assert doc["state"] in ("queued", "running")
            status = await client.get_session(doc["id"], "acme", wait=10)
            assert status.doc["state"] == "done"
            timings = status.doc["timings"]
            assert timings["engine_wall_ms"] > 0
            assert timings["serve_overhead_ms"] >= 0
            # The stub outcome carries no engine result, so the report
            # is the minimal form; full reports are covered by the
            # byte-identity test below.
            report = await client.get_report(doc["id"], "acme", wait=10)
            assert report.status == 200
            assert report.doc["state"] == "done"
            assert report.doc["id"] == doc["id"]

        serve_scenario(scenario)

    def test_translation_problems_listed_in_400(self, fast_runs):
        async def scenario(client):
            reply = await client.post_session({
                "contract": CONTRACT_V1, "tenant": "acme",
                "spec": {"engine": "no-such-engine", "datasize": 99.0},
            })
            assert reply.status == 400
            problems = reply.doc["problems"]
            assert any("spec.engine" in p for p in problems)
            assert any("spec.datasize" in p for p in problems)

        serve_scenario(scenario)

    def test_the_cadence_that_never_returned_is_a_400(self):
        # No stub: were the document accepted, the real engine would
        # spin in the checkpoint catch-up and the wait below time out.
        async def scenario(client):
            reply = await client.post_session(_doc(
                datasize=0.02, durability="snapshot+wal",
                checkpoint_every=1e-15,
            ))
            assert reply.status == 400
            assert reply.doc["problems"] == [
                "spec.checkpoint_every: out of range [1e-06, 1e+09]: 1e-15"
            ]

        serve_scenario(scenario)

    def test_unknown_spec_field_rejected(self, fast_runs):
        async def scenario(client):
            reply = await client.post_session({
                "contract": CONTRACT_V1, "tenant": "acme",
                "spec": {"bogus": 1},
            })
            assert reply.status == 400
            assert any("spec.bogus" in p for p in reply.doc["problems"])

        serve_scenario(scenario)

    def test_no_field_reaches_a_test_hook(self, fast_runs):
        async def scenario(client):
            reply = await client.post_session(_doc(sabotage="hard-exit"))
            assert reply.status == 400
            assert reply.doc["problems"] == ["spec.sabotage: unknown field"]

        serve_scenario(scenario)

    def test_closed_enrollment_rejects_unknown_tenant(self, fast_runs):
        config = _config(
            tenants={"vip": TenantPolicy(name="vip")}, default_policy=None
        )

        async def scenario(client):
            reply = await client.post_session(_doc(tenant="stranger"))
            assert reply.status == 403
            accepted = await client.post_session(_doc(tenant="vip"))
            assert accepted.status == 202

        serve_scenario(scenario, config)

    def test_tenant_isolation_hides_foreign_sessions(self, fast_runs):
        async def scenario(client):
            posted = await client.post_session(_doc(tenant="acme"))
            session_id = posted.doc["id"]
            foreign = await client.get_session(session_id, "globex")
            assert foreign.status == 404
            own = await client.get_session(session_id, "acme", wait=10)
            assert own.status == 200

        serve_scenario(scenario)

    def test_get_without_tenant_header_is_400(self, fast_runs):
        async def scenario(client):
            posted = await client.post_session(_doc())
            reply = await client.request(
                "GET", f"/sessions/{posted.doc['id']}"
            )
            assert reply.status == 400

        serve_scenario(scenario)

    def test_report_on_unfinished_session_is_409(self, monkeypatch):
        def slow_run_spec(spec):
            time.sleep(0.5)
            return RunOutcome(spec=spec, status="ok", landscape_digest="d")

        monkeypatch.setattr("repro.serve.dispatch.run_spec", slow_run_spec)

        async def scenario(client):
            posted = await client.post_session(_doc())
            reply = await client.get_report(posted.doc["id"], "acme")
            assert reply.status == 409
            assert reply.headers["retry-after"] == "1"

        serve_scenario(scenario)


class TestBackpressureOverHttp:
    def test_queue_full_is_429_with_retry_after(self, monkeypatch):
        def slow_run_spec(spec):
            time.sleep(0.5)
            return RunOutcome(spec=spec, status="ok", landscape_digest="d")

        monkeypatch.setattr("repro.serve.dispatch.run_spec", slow_run_spec)
        config = _config(queue_capacity=1, engine_slots=1)

        async def scenario(client):
            # Slot busy with #1, #2 fills the queue, #3 must bounce.
            replies = [
                await client.post_session(_doc(seed=seed))
                for seed in range(3)
            ]
            assert replies[-1].status == 429
            assert replies[-1].doc["reason"] == "queue-full"
            assert replies[-1].retry_after >= 1

        serve_scenario(scenario, config)

    def test_circuit_open_is_503(self, fast_runs):
        config = _config(cache=False)

        async def scenario(client):
            for seed in range(3):
                posted = await client.post_session(
                    _doc(seed=FAILING_SEED + seed)
                )
                await client.get_session(posted.doc["id"], "acme", wait=10)
            reply = await client.post_session(_doc(seed=99))
            assert reply.status == 503
            assert reply.doc["reason"] == "circuit-open"
            assert reply.retry_after >= 1

        serve_scenario(scenario, config)


class TestObservabilityRoutes:
    def test_metrics_exposition(self, fast_runs):
        async def scenario(client):
            posted = await client.post_session(_doc())
            await client.get_session(posted.doc["id"], "acme", wait=10)
            reply = await client.metrics()
            assert reply.status == 200
            assert "serve_sessions_total" in reply.text
            assert "serve_overhead_seconds" in reply.text
            assert "serve_engine_seconds" in reply.text

        serve_scenario(scenario)

    def test_tenant_report_route(self, fast_runs):
        async def scenario(client):
            posted = await client.post_session(_doc(tenant="acme"))
            await client.get_session(posted.doc["id"], "acme", wait=10)
            reply = await client.tenant_report("acme")
            assert reply.status == 200
            assert reply.doc["sessions"]["done"] == 1
            assert set(reply.doc["latency_s"]) == {"p50", "p95", "p99"}
            assert "serve_s" in reply.doc["overhead"]

        serve_scenario(scenario)


class TestByteIdentity:
    """The acceptance criterion: served == direct, byte for byte."""

    def test_served_report_equals_direct_run(self):
        spec_doc = {"engine": "interpreter", "datasize": 0.02, "seed": 11}
        doc = {"contract": CONTRACT_V1, "tenant": "acme", "spec": spec_doc}

        async def scenario(client):
            posted = await client.post_session(doc)
            assert posted.status == 202
            report = await client.get_report(posted.doc["id"], "acme", wait=60)
            assert report.status == 200
            return report.doc

        served = serve_scenario(scenario)
        spec = parse_session_request(doc).spec
        outcome = run_spec(spec)
        monitor = Monitor.merged([outcome])
        direct = {
            "landscape_digest": outcome.landscape_digest,
            "fingerprint": outcome.fingerprint(),
            "instances": outcome.result.total_instances,
            "errors": outcome.result.error_instances,
            "verification_ok": outcome.result.verification.ok,
            "navg_plus": {
                m.process_id: round(m.navg_plus, 6)
                for m in outcome.result.metrics.rows()
            },
            "navg_plus_total": round(outcome.navg_plus_total(), 6),
            "latency_tu": monitor.latency_percentiles(),
        }
        served_core = {k: served[k] for k in direct}
        assert (
            json.dumps(served_core, sort_keys=True)
            == json.dumps(direct, sort_keys=True)
        )
        assert served["verification_ok"] is True
