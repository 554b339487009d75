"""Message Transformation Model (MTM): platform-independent processes.

The paper describes every benchmark process type in a "conceptual,
process-driven way" using the authors' Message Transformation Model [5]:
a process is a graph of operators over named message variables (the
``msg1``, ``msg2`` … annotations of Figs. 4 and 5).

This package implements that model:

* :class:`Message` — the unit of data flow (relational, XML or scalar
  payload),
* atomic operators (:mod:`repro.mtm.operators`) — RECEIVE, ASSIGN, INVOKE,
  TRANSLATION, SELECTION, PROJECTION, JOIN, UNION_DISTINCT, VALIDATE,
  CONVERT, DELETE, SIGNAL …,
* structured blocks (:mod:`repro.mtm.blocks`) — Sequence, Switch, Fork
  (the concurrent threads of P14) and Subprocess invocation,
* :class:`ProcessType` with static graph validation
  (:mod:`repro.mtm.process`).

Engines (see :mod:`repro.engine`) execute these definitions; the model
itself is engine-agnostic, which is what makes the benchmark portable.
"""

from repro.mtm.message import Message
from repro.mtm.context import ExecutionContext
from repro.mtm.operators import (
    Assign,
    ExtractField,
    Convert,
    Invoke,
    Join,
    Operator,
    Projection,
    Receive,
    Selection,
    Signal,
    Translation,
    Union,
    Validate,
    ValidateRows,
)
from repro.mtm.blocks import Fork, Sequence, Subprocess, Switch, SwitchCase
from repro.mtm.process import EventType, ProcessGroup, ProcessType

__all__ = [
    "Message",
    "ExecutionContext",
    "Operator",
    "Receive",
    "Assign",
    "Invoke",
    "Translation",
    "Selection",
    "Projection",
    "Join",
    "Union",
    "Validate",
    "ValidateRows",
    "ExtractField",
    "Convert",
    "Signal",
    "Sequence",
    "Switch",
    "SwitchCase",
    "Fork",
    "Subprocess",
    "EventType",
    "ProcessGroup",
    "ProcessType",
]
