"""The MTM interpreter engine: a dedicated integration system.

Executes operator trees directly against the service registry.  This is
the "integration system" flavour of the system under test — structurally
an EAI/ETL engine with a worker pool, a plan cache and native operators.
"""

from __future__ import annotations

from repro.engine.base import IntegrationEngine


class MtmInterpreterEngine(IntegrationEngine):
    """Directly interprets MTM process definitions, with the balanced
    price list; deploy warms its plan cache, so instances run entirely on
    compiled closures.

    >>> # see examples/quickstart.py for an end-to-end run
    """

    engine_name = "mtm-interpreter"
