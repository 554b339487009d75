"""The tracer's arithmetic and its clean removal."""

import time

from bench.layers import LAYER_TARGETS, SETUP_TARGETS, Tracer, all_layers


def _spin(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_self_times_of_nested_and_recursive_spans_sum_to_the_root():
    tracer = Tracer()

    def leaf():
        _spin(200_000)

    def recursive(depth):
        _spin(100_000)
        if depth:
            wrapped_recursive(depth - 1)
        wrapped_leaf()

    def outer():
        _spin(100_000)
        wrapped_recursive(3)
        wrapped_leaf()

    wrapped_leaf = tracer._fine(leaf, "db.read")
    wrapped_recursive = tracer._fine(recursive, "db.write")
    wrapped_outer = tracer._coarse(outer, "engine.instance", "instance")

    tracer.begin_unit(0)
    _spin(150_000)  # unattributed
    wrapped_outer()
    wrapped_outer()
    profile = tracer.end_unit()

    assert sum(profile["self_ns"].values()) + profile["unattributed_ns"] == profile["wall_ns"]
    assert profile["unattributed_ns"] >= 150_000
    # Recursion inside its own layer opens no new frame but still counts.
    assert profile["calls"] == {"engine.instance": 2, "db.write": 8, "db.read": 10}
    assert profile["self_ns"]["db.write"] >= 8 * 100_000
    assert profile["self_ns"]["db.read"] >= 10 * 200_000
    names = [name for _id, name, *_rest in tracer.spans]
    assert names == ["instance", "instance", "unit"]
    unit_id = tracer.spans[-1][0]
    assert all(span[4] == unit_id for span in tracer.spans[:2])
    # The accumulators start the next unit from zero.
    assert not any(tracer.self_ns.values()) and not any(tracer.calls.values())


def test_an_exception_unwinds_the_frame_stack():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer._fine(boom, "db.read")
    tracer.begin_unit(0)
    try:
        wrapped()
    except KeyError:
        pass
    profile = tracer.end_unit()
    assert profile["calls"] == {"db.read": 1}
    assert len(tracer.stack) == 1


def _targets():
    import importlib

    for layer, module, cls, names, *_span in [*SETUP_TARGETS, *LAYER_TARGETS]:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        for name in names:
            yield owner, name


def test_wrappers_are_fully_removed_after_a_traced_run():
    from repro.db.database import Database
    from repro.mtm.operators import Invoke

    before = {(owner, name): vars(owner)[name] for owner, name in _targets()}
    db_init, invoke = Database.__dict__["__init__"], Invoke.__dict__["execute"]

    tracer = Tracer()
    tracer.install_setup()
    tracer.install_layers()
    assert all(vars(owner)[name] is not fn for (owner, name), fn in before.items())
    assert Invoke.__dict__["execute"] is not invoke
    assert Database("probe") is tracer.databases["probe"]

    tracer.uninstall()
    assert all(vars(owner)[name] is fn for (owner, name), fn in before.items())
    assert Database.__dict__["__init__"] is db_init
    assert Invoke.__dict__["execute"] is invoke


def test_every_wrapped_layer_has_an_accumulator():
    layers = set(all_layers())
    assert {t[0] for t in LAYER_TARGETS} <= layers
    assert {t[0] for t in SETUP_TARGETS} <= layers
