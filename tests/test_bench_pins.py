"""What ``bench/`` pins in ``src/`` by name still resolves.

The traced benchmark run replaces entry points of ``repro.*`` by name
(``bench/layers.py``) and reads ``fastpath.*`` / ``partition.*``
counters by name (``bench/metrics.py``).  ``bench/tests/`` is outside
``testpaths``, so without this file a deletion under ``src/`` that
breaks the traced run would pass tier 1.
"""

import dataclasses
import importlib
import pathlib
import re

from bench import layers, metrics
from repro.db import fastpath, partition


def test_every_wrapper_target_resolves_the_way_the_tracer_installs_it():
    """``Tracer._install``: a method must be a callable in the class's
    own ``__dict__``, a module function a callable module global."""
    targets = [(t[1], t[2], t[3]) for t in layers.SETUP_TARGETS]
    targets += [(t[1], t[2], t[3]) for t in layers.LAYER_TARGETS]
    unresolved = []
    for module, cls, names in targets:
        mod = importlib.import_module(module)
        owner = vars(getattr(mod, cls)) if cls else vars(mod)
        unresolved += [
            f"{module}.{cls + '.' if cls else ''}{name}"
            for name in names
            if not callable(owner.get(name))
        ]
    assert not unresolved, f"bench/layers.py wraps names that are gone: {unresolved}"


def counters_read_by_metrics():
    """Every ``"fastpath.x"`` / ``"partition.x"`` key ``bench/metrics.py``
    names, f-string families (``f"fastpath.vector_{kind}" for kind in
    (...)``) expanded."""
    source = pathlib.Path(metrics.__file__).read_text("utf-8")
    names = set(re.findall(r'[^f]"(fastpath|partition)\.(\w+)"', source))
    families = re.findall(
        r'f"(fastpath|partition)\.(\w*)\{(\w+)\}"\)\s*for\s+\3\s+in\s+\(([^)]*)\)',
        source,
    )
    for block, prefix, _variable, members in families:
        names.update(
            (block, prefix + member) for member in re.findall(r'"(\w+)"', members)
        )
    return names


def test_every_counter_the_metrics_read_is_a_stats_field():
    fields = {
        "fastpath": {f.name for f in dataclasses.fields(fastpath.FastpathStats)},
        "partition": {f.name for f in dataclasses.fields(partition.PartitionStats)},
    }
    names = counters_read_by_metrics()
    # The parse found both blocks and the one f-string family.
    assert ("fastpath", "vector_group_bys") in names
    assert ("partition", "grace_joins") in names
    missing = sorted(
        f"{block}.{name}" for block, name in names if name not in fields[block]
    )
    assert not missing, f"bench/metrics.py reads counters that are gone: {missing}"
