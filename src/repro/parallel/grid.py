"""Scale-grid expansion: (d, t, f) × engines × seeds → RunSpecs.

The paper's execution schedule is a grid over the three scale factors;
every published DIPBench figure is a sweep over that grid.  This module
turns axis value lists into the deterministic, ordered list of
:class:`RunSpec`\\ s the executor fans out — grid order is the
``itertools.product`` order of ``(engine, datasize, time, distribution,
seed, synth)`` with each axis in the order given, and the merged sweep
result always comes back in exactly that order regardless of which
worker finished first.

The ``synth`` axis sweeps synthesized-workload knob strings
(``repro.synth``).  Because knob strings contain commas, its axis
*values* are separated by ``"/"`` (``synth=depth=1/depth=3``); the empty
default keeps the classic scenario.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro.parallel.spec import RunSpec, SweepError

#: Axis spellings accepted by :func:`parse_grid_axes`.
_AXIS_NAMES = {
    "d": "d", "datasize": "d",
    "t": "t", "time": "t",
    "f": "f", "distribution": "f",
    "synth": "synth", "workload": "synth",
}


def parse_grid_axes(items: Iterable[str]) -> dict[str, list]:
    """Parse ``d=0.02,0.05``-style axis definitions.

    Accepts the axis keys ``d``/``datasize`` (floats), ``t``/``time``
    (floats), ``f``/``distribution`` (ints) and ``synth``/``workload``
    (knob strings, ``"/"``-separated since knob strings contain commas).
    Values keep the order they were written in; repeating an axis is an
    error.
    """
    axes: dict[str, list] = {}
    for item in items:
        key, sep, values = item.partition("=")
        key = key.strip().lower()
        if not sep or key not in _AXIS_NAMES:
            raise SweepError(
                f"bad grid axis {item!r}: expected d=..., t=..., f=... "
                "or synth=..."
            )
        axis = _AXIS_NAMES[key]
        if axis in axes:
            raise SweepError(f"grid axis {axis!r} given twice")
        try:
            if axis == "f":
                parsed = [int(v) for v in values.split(",") if v.strip()]
            elif axis == "synth":
                parsed = [v.strip() for v in values.split("/") if v.strip()]
            else:
                parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise SweepError(f"bad grid axis {item!r}: {exc}") from None
        if not parsed:
            raise SweepError(f"grid axis {item!r} has no values")
        axes[axis] = parsed
    return axes


def expand_grid(
    engines: Sequence[str] = ("interpreter",),
    datasizes: Sequence[float] = (0.05,),
    times: Sequence[float] = (1.0,),
    distributions: Sequence[int] = (0,),
    seeds: Sequence[int] = (42,),
    synths: Sequence[str] = ("",),
    **common,
) -> list[RunSpec]:
    """All grid points in deterministic order, sharing ``common`` fields.

    ``common`` holds everything that is not a sweep axis (periods,
    faults, durability, ...) and is passed to every :class:`RunSpec`
    verbatim.  ``synths`` defaults to the single empty knob string —
    the classic scenario — so existing sweeps expand identically.
    """
    for name, values in (
        ("engines", engines), ("datasizes", datasizes), ("times", times),
        ("distributions", distributions), ("seeds", seeds),
        ("synths", synths),
    ):
        if not values:
            raise SweepError(f"grid axis {name!r} has no values")
    return [
        RunSpec(
            engine=engine,
            datasize=d,
            time=t,
            distribution=f,
            seed=seed,
            synth=synth,
            **common,
        )
        for engine, d, t, f, seed, synth in itertools.product(
            engines, datasizes, times, distributions, seeds, synths
        )
    ]


def grid_from_axes(
    axes: Mapping[str, list],
    engines: Sequence[str],
    seeds: Sequence[int],
    **common,
) -> list[RunSpec]:
    """Expand parsed CLI axes (see :func:`parse_grid_axes`) into specs."""
    return expand_grid(
        engines=engines,
        datasizes=axes.get("d", [0.05]),
        times=axes.get("t", [1.0]),
        distributions=axes.get("f", [0]),
        seeds=seeds,
        synths=axes.get("synth", [""]),
        **common,
    )
