"""Execution-profile records collected while an instance runs.

The engines cannot know an instance's virtual start/completion until the
worker pool has admitted it, so operators and service calls are logged
*positionally* during execution (what ran, what it charged) and turned
into child spans afterwards: the engine lays them out inside the
instance's service window proportionally to their priced cost, which
keeps parent/child times consistent on the virtual timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NetworkObservation:
    """One routed service call made during an operator."""

    service: str
    operation: str
    cost: float
    payload_units: float


@dataclass
class OperatorObservation:
    """One leaf operator execution: its work and service calls."""

    kind: str
    name: str
    #: Work-unit deltas by kind (relational / xml / control).
    work: dict[str, float] = field(default_factory=dict)
    #: Communication cost charged while the operator ran.
    communication: float = 0.0
    network_calls: list[NetworkObservation] = field(default_factory=list)
    #: Relational-kernel counter deltas attributed to this operator
    #: (non-zero ``repro.db.fastpath`` entries only — e.g. index probes,
    #: columnar joins, compiled expressions).
    fastpath: dict[str, int] = field(default_factory=dict)


@dataclass
class ExecutionProfile:
    """Everything one instance execution logged, in execution order."""

    operators: list[OperatorObservation] = field(default_factory=list)
    #: Relational-kernel operation deltas for this instance (non-zero
    #: ``repro.db.fastpath`` counters: rows copied/shared, compiled
    #: expressions, index joins, MV maintenance).
    fastpath: dict[str, int] = field(default_factory=dict)
