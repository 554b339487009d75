"""repro.serve — benchmark-as-a-service over the DIPBench toolsuite.

The serving layer turns the batch toolsuite into a long-lived,
multi-tenant service: versioned JSON translation at the boundary
(:mod:`repro.serve.translate`), token-bucket admission with queue
backpressure (:mod:`repro.serve.admission`), tenant-scoped sessions
(:mod:`repro.serve.session`), a :class:`SessionManager` gluing those to
per-tenant circuit breakers, a dead-letter queue and the PR-4 worker
pool (:mod:`repro.serve.manager`), an asyncio-streams HTTP front end
(:mod:`repro.serve.http`), and the ``repro storm`` load generator
(:mod:`repro.serve.storm`).

Everything is stdlib: the HTTP server is ``asyncio.start_server``, the
client is ``asyncio.open_connection``, and determinism carries through
— a served session's report is byte-identical to running the same spec
directly through :class:`repro.toolsuite.BenchmarkClient`.
"""

from repro.errors import (
    AdmissionRejected,
    ServeError,
    SessionNotFound,
    TranslationError,
    UnknownTenant,
)
from repro.serve.admission import AdmissionController, TenantPolicy, TokenBucket
from repro.serve.client import HttpReply, ServeClient
from repro.serve.dispatch import DISPATCHERS, InlineDispatcher, PoolDispatcher
from repro.serve.http import HttpServer, serve
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.session import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Session,
    SessionStore,
)
from repro.serve.storm import (
    ARRIVAL_MODELS,
    Storm,
    StormConfig,
    StormReport,
    TenantTally,
    run_storm,
)
from repro.serve.translate import (
    CONTRACT_V1,
    SUPPORTED_CONTRACTS,
    SessionRequest,
    parse_session_request,
    report_core,
    report_to_json,
    session_to_json,
    spec_to_json,
)

__all__ = [
    "ARRIVAL_MODELS",
    "AdmissionController",
    "AdmissionRejected",
    "CONTRACT_V1",
    "DISPATCHERS",
    "DONE",
    "FAILED",
    "HttpReply",
    "HttpServer",
    "InlineDispatcher",
    "PoolDispatcher",
    "QUEUED",
    "RUNNING",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Session",
    "SessionManager",
    "SessionNotFound",
    "SessionRequest",
    "SessionStore",
    "Storm",
    "StormConfig",
    "StormReport",
    "SUPPORTED_CONTRACTS",
    "TenantPolicy",
    "TenantTally",
    "TokenBucket",
    "TranslationError",
    "UnknownTenant",
    "parse_session_request",
    "report_core",
    "report_to_json",
    "run_storm",
    "serve",
    "session_to_json",
    "spec_to_json",
]
