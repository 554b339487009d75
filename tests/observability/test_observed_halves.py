"""Either half of the Observability bundle can be off, and off is None.

A run that collects only metrics exports the same Prometheus text as a
run that collects both halves; a run that collects only spans exports
the same span JSONL; a run that collects neither builds no tracer and
no span at all.
"""

import functools

import pytest

from repro.observability import Span, Tracer
from repro.parallel.spec import RunSpec, client_from_spec, run_spec


@functools.lru_cache(maxsize=None)
def _exports(engine: str, trace: bool, metrics: bool) -> tuple[str, str]:
    """(span JSONL, Prometheus text) of one classic d=0.02 period;
    an export whose half was off is ``""``."""
    client = client_from_spec(RunSpec(
        engine=engine, datasize=0.02, periods=1, seed=5,
        collect_trace=trace, collect_metrics=metrics,
    ))
    client.run()
    obs = client.observability
    assert (obs.tracer is not None, obs.metrics is not None) == (trace, metrics)
    return (
        obs.spans_jsonl() if trace else "",
        obs.prometheus() if metrics else "",
    )


@pytest.mark.parametrize("engine", ["interpreter", "federated"])
def test_a_metrics_only_run_exports_the_fully_observed_metrics(engine):
    full = _exports(engine, trace=True, metrics=True)[1]
    assert "engine_instances_total" in full
    assert _exports(engine, trace=False, metrics=True)[1] == full


@pytest.mark.parametrize("engine", ["interpreter", "federated"])
def test_a_trace_only_run_exports_the_fully_observed_spans(engine):
    full = _exports(engine, trace=True, metrics=True)[0]
    assert '"kind":"operator"' in full
    assert _exports(engine, trace=True, metrics=False)[0] == full


def test_an_unobserved_run_builds_no_tracer_and_no_span(monkeypatch):
    built: list[str] = []
    for cls in (Tracer, Span):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    assert run_spec(RunSpec(datasize=0.02, periods=1, seed=5)).ok
    assert built == []
    # The counter sees what a traced run builds.
    assert run_spec(
        RunSpec(datasize=0.02, periods=1, seed=5, collect_trace=True)
    ).ok
    assert {"Tracer", "Span"} <= set(built)
