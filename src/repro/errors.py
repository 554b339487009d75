"""Exception hierarchy for the DIPBench reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch problems at the granularity they care about: a benchmark driver
catches ``ReproError``, a process engine distinguishes ``ValidationError``
(expected, routed to failed-data destinations, see process type P10) from
``EngineError`` (a bug or misconfiguration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------- db


class DatabaseError(ReproError):
    """Base class for relational-engine errors."""


class SchemaError(DatabaseError):
    """A table/column definition is invalid or referenced but missing."""


class IntegrityError(DatabaseError):
    """A constraint (primary key, not-null, foreign key) was violated."""


class QueryError(DatabaseError):
    """A query referenced unknown tables/columns or was ill-typed."""


class ProcedureError(DatabaseError):
    """A stored procedure failed or does not exist."""


# ------------------------------------------------------------------------- xml


class XmlError(ReproError):
    """Base class for XML-kit errors."""


class XmlParseError(XmlError):
    """The input text is not well-formed XML (for our subset)."""


class XsdValidationError(XmlError):
    """A document does not conform to its XSD schema.

    Carries a list of human-readable violation messages in ``violations``.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations: list[str] = violations or []


class StxError(XmlError):
    """An STX stylesheet is invalid or failed during transformation."""


class XPathError(XmlError):
    """An XPath expression is outside the supported subset or ill-formed."""


# -------------------------------------------------------------------- services


class ServiceError(ReproError):
    """Base class for the simulated network / web-service layer."""


class EndpointNotFound(ServiceError):
    """No endpoint is registered under the requested service name."""


class OperationNotSupported(ServiceError):
    """The endpoint exists but does not expose the requested operation."""


class NetworkError(ServiceError):
    """A simulated transport failure (used by failure-injection tests)."""


class EndpointUnavailableError(ServiceError):
    """The endpoint exists but is offline (injected outage)."""


# -------------------------------------------------------------------- resilience


class ResilienceError(ReproError):
    """Base class for the fault-injection / resilience layer."""


class FaultSpecError(ResilienceError):
    """A fault spec is malformed or references unknown targets."""


class TransientEngineFault(ResilienceError):
    """An injected transient engine failure (recoverable by retrying)."""


class CircuitOpenError(ResilienceError):
    """A call was rejected because the endpoint's circuit breaker is open."""


# --------------------------------------------------------------------- storage


class StorageError(ReproError):
    """Base class for the durability layer (WAL / snapshots / recovery)."""


class WalError(StorageError):
    """The write-ahead log was used inconsistently (bad LSN, no commit)."""


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class EngineCrashed(ReproError):
    """An injected ``crash`` fault hard-killed the engine.

    Deliberately *not* a :class:`ResilienceError`: a crash is not an
    instance failure the retry policy may absorb — it must propagate to
    the benchmark client, which performs durable recovery and resumes
    the schedule.  ``pristine_message`` carries an unexecuted copy of
    the in-flight inbound message (commit-point crashes only) so the
    re-dispatched instance sees exactly the original input.  ``at`` is
    the virtual time (engine units) the crash struck — the zero point of
    a cluster failover's RTO clock.
    """

    def __init__(self, message: str, pristine_message=None, at: float = 0.0):
        super().__init__(message)
        self.pristine_message = pristine_message
        self.at = at


class ClusterError(StorageError):
    """The multi-host cluster layer hit an inconsistent state
    (replication hole, no electable follower, bad configuration)."""


# ------------------------------------------------------------------------- mtm


class MtmError(ReproError):
    """Base class for process-model errors."""


class ProcessDefinitionError(MtmError):
    """A process graph is statically invalid (dangling edges, bad config)."""


class ProcessRuntimeError(MtmError):
    """An operator failed while a process instance was executing."""


class ValidationError(MtmError):
    """A VALIDATE operator rejected a message.

    This is an *expected* outcome for error-prone sources (San Diego, P10):
    engines route the offending data to failed-data destinations instead of
    aborting the process instance.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations: list[str] = violations or []


# ---------------------------------------------------------------------- engine


class EngineError(ReproError):
    """Base class for integration-engine errors."""


class DeploymentError(EngineError):
    """A process type could not be deployed on the engine."""


# --------------------------------------------------------------------- serving


class ServeError(ReproError):
    """Base class for the benchmark-as-a-service front-end."""


class TranslationError(ServeError):
    """An external request does not conform to a supported contract.

    Raised at the API boundary by the versioned message translators;
    maps to HTTP 400.  ``problems`` lists every violation found, so a
    client can fix its request in one round trip.
    """

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems: list[str] = problems or []


class AdmissionRejected(ServeError):
    """The server refused to enqueue a session (backpressure).

    ``reason`` is a stable machine-readable class (``rate-limited``,
    ``queue-full``, ``tenant-quota``, ``draining``); ``retry_after`` is
    the suggested wait in seconds (HTTP ``Retry-After``).
    """

    def __init__(self, message: str, reason: str, retry_after: float = 1.0):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class UnknownTenant(ServeError):
    """The request named a tenant the server has no policy for."""


class SessionNotFound(ServeError):
    """No session with the requested id is visible to the tenant."""


# ------------------------------------------------------------------- benchmark


class BenchmarkError(ReproError):
    """Base class for toolsuite errors (initializer / client / monitor)."""


class VerificationError(BenchmarkError):
    """Phase *post* found functionally incorrect integrated data."""


class ScaleFactorError(BenchmarkError):
    """A scale factor is outside its valid domain."""
