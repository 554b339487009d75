"""Messages: the unit of data flow between MTM operators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.db.relation import Relation
from repro.xmlkit.doc import XmlElement

_message_counter = itertools.count(1)


@dataclass
class Message:
    """One message variable value.

    ``payload`` is one of: a :class:`Relation` (relational data flow), an
    :class:`XmlElement` (XML messages), or any scalar/dict (control data
    such as service parameters).  ``size_units`` approximates the payload
    size for cost accounting; it is computed automatically on creation.
    """

    payload: Any
    message_type: str = ""
    message_id: int = field(default_factory=lambda: next(_message_counter))
    headers: dict[str, Any] = field(default_factory=dict)

    @property
    def size_units(self) -> float:
        return payload_size(self.payload)

    @property
    def is_xml(self) -> bool:
        return isinstance(self.payload, XmlElement)

    def relation(self) -> Relation:
        """Payload as a Relation; raises TypeError for other payloads."""
        if not isinstance(self.payload, Relation):
            raise TypeError(
                f"message {self.message_id} ({self.message_type!r}) does not "
                f"carry a relation but {type(self.payload).__name__}"
            )
        return self.payload

    def xml(self) -> XmlElement:
        """Payload as XML; raises TypeError for other payloads."""
        if not isinstance(self.payload, XmlElement):
            raise TypeError(
                f"message {self.message_id} ({self.message_type!r}) does not "
                f"carry XML but {type(self.payload).__name__}"
            )
        return self.payload

    def copy(self) -> "Message":
        payload = self.payload
        if isinstance(payload, XmlElement):
            payload = payload.copy()
        elif isinstance(payload, Relation):
            # to_dicts() materializes exact-width copies of the same
            # values, so the new relation adopts them and their types.
            payload = Relation.from_trusted(
                payload.columns, payload.to_dicts(), types=payload.types
            )
        return Message(payload, self.message_type, headers=dict(self.headers))


def payload_size(payload: Any) -> float:
    """Size of a payload in abstract units (rows / XML elements / 1)."""
    if isinstance(payload, Relation):
        return float(len(payload))
    if isinstance(payload, XmlElement):
        return float(payload.size())
    if isinstance(payload, (list, tuple)):
        return float(len(payload))
    return 1.0
