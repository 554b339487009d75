"""Spec fields declared once, and what the program derives from them.

Every spec the program reads (``RunSpec``, ``SynthSpec``, ``FaultSpec``
and its events, ``TenantPolicy``, ``ServeConfig``, ``StormConfig``)
declares each field with :func:`knob`.  From those declarations come the
range check (:func:`problems`), strict JSON typing (:func:`coerce`,
:func:`load`), the ``key=value`` grammar of the synth knob string and of
a tenant policy (:func:`parse_pairs`), and every command's spec options
in ``repro.cli``.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, field, fields
from typing import Any, Mapping


def knob(default=MISSING, flag="", help="", *, factory=MISSING, **declared) -> Any:
    """One spec field with what every edge of the program reads off it.

    ``flag`` / ``help`` / ``metavar`` / ``action`` are its CLI spelling,
    ``parse`` turns what the option collected into the field's value; a
    bool field defaulting to True is a ``--no-...`` switch.  ``choices``
    (a tuple, or a callable for a registry that can grow) and ``bounds``
    (interval notation) are what :func:`problems` checks, ``complaint``
    the whole wording of a failure where the default does not fit.  A
    tuple field with ``choices`` holds each at most once, in declared
    order; ``bounds`` counts a tuple's entries, ``split`` separates them
    in text.  ``alias`` names the field's other keys in a ``key=value``
    string, ``of`` the declared class of each entry of a JSON list.
    """
    return field(
        default=default, default_factory=factory,
        metadata={"flag": flag, "help": help, **declared},
    )


def fields_of(spec) -> dict[str, Field]:
    """A declared class's fields by name, in declaration order."""
    return {spec_field.name: spec_field for spec_field in fields(spec)}


_SCALARS = {"str": str, "float": float, "int": int, "bool": bool}


def knob_type(spec_field: Field) -> type | None:
    """The scalar type a field is read as (None: not a scalar)."""
    return _SCALARS.get(spec_field.type.split(" | ")[0])


def choices_of(spec_field: Field):
    choices = spec_field.metadata.get("choices")
    return choices() if callable(choices) else choices


def within(bounds: str, value: float) -> bool:
    """``value`` against interval notation; NaN is inside nothing."""
    low, high = (float(edge) for edge in bounds[1:-1].split(", "))
    above = value > low if bounds[0] == "(" else value >= low
    below = value < high if bounds[-1] == ")" else value <= high
    return above and below


def _failures(value, choices, bounds) -> list[tuple]:
    """(value shown, default complaint) per way ``value`` is out of range."""
    menu = "{name}: must be {menu}: {value!r}"
    if isinstance(value, tuple):
        counted = bounds is None or within(bounds, len(value))
        miscounted = [] if counted else [
            (value, "{name}: needs {bounds} entries: {value!r}")
        ]
        return miscounted + [(e, menu) for e in value if choices and e not in choices]
    if choices is not None:
        return [] if value in choices else [(value, menu)]
    if bounds is not None and not within(bounds, value):
        return [(value, "{name}: out of range {bounds}: {value}")]
    return []


def problems(spec) -> list[str]:
    """Every value of ``spec`` outside its declared range, in field order."""
    found = []
    for name, spec_field in fields_of(spec).items():
        value, meta = getattr(spec, name), spec_field.metadata
        if value is None:
            continue
        choices, bounds = choices_of(spec_field), meta.get("bounds")
        found.extend(
            meta.get("complaint", complaint).format(
                name=name, value=shown, bounds=bounds, choices=choices,
                menu="|".join(map(str, choices or ())),
            )
            for shown, complaint in _failures(value, choices, bounds)
        )
    return found


def refuse(error: type[Exception], what: str, found: list[str]) -> None:
    """Raise ``error`` naming every problem of ``what``, if there is one."""
    if found:
        raise error(f"invalid {what}: " + "; ".join(found))


def coerce(name: str, value: Any, target: type, found: list[str]):
    """Strictly typed coercion: ints may widen to float, nothing else."""
    if target is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if target is int and isinstance(value, bool):
        found.append(f"{name}: expected {target.__name__}, got bool")
        return None
    if not isinstance(value, target):
        found.append(
            f"{name}: expected {target.__name__}, got {type(value).__name__}"
        )
        return None
    return value


def from_text(spec_field: Field, text: str, found: list[str], noun="knob"):
    """The value a field's text spelling stands for (None: see ``found``)."""
    split, target = spec_field.metadata.get("split"), knob_type(spec_field)
    if split is not None:
        entries = tuple(e.strip() for e in text.split(split) if e.strip())
        choices = choices_of(spec_field)
        if choices is None:
            return entries
        # A set of choices: each once, held in declared order.
        found.extend(
            f"{noun} {spec_field.name!r} given {e!r} more than once"
            for e in sorted({e for e in entries if entries.count(e) > 1})
        )
        return tuple(c for c in choices if c in entries) + tuple(
            e for e in entries if e not in choices
        )
    if target not in (int, float):
        return text
    try:
        return target(text)
    except ValueError:
        kind = "an integer" if target is int else "a number"
        found.append(f"bad value for {spec_field.name}: {text!r} is not {kind}")
        return None


def parse_pairs(spec, text: str, sep=",", noun="knob") -> tuple[dict, list[str]]:
    """``key=value`` pairs joined by ``sep`` as keyword arguments of
    ``spec``, plus every problem found (not a pair, unknown key, a key
    given twice, a value that does not parse)."""
    declared = fields_of(spec)
    keys = {
        alias: name
        for name, spec_field in declared.items()
        for alias in (name, *spec_field.metadata.get("alias", ()))
    }
    values: dict = {}
    found: list[str] = []
    for raw in filter(None, (part.strip() for part in text.split(sep))):
        key, eq, value = (part.strip() for part in raw.partition("="))
        name = keys.get(key)
        if not eq:
            found.append(f"{noun} {raw!r} is not a key=value pair")
        elif name is None:
            found.append(
                f"unknown {noun} {key!r}; choose from " + ", ".join(sorted(declared))
            )
        elif name in values:
            found.append(f"{noun} {name!r} given more than once")
        else:
            values[name] = from_text(declared[name], value, found, noun)
    return values, found


def _read(spec, data: Any, found: list[str], where: str = ""):
    """A parsed JSON object as a ``spec`` — or None, with every problem
    appended to ``found`` behind ``where`` it was found.

    Unknown and missing keys and values of the wrong JSON type are
    problems (ints widen to floats, null is read only where the default
    is None); an ``of`` field reads a list of objects as its class.
    """
    if not isinstance(data, Mapping):
        found.append(f"{where}expected a JSON object, got {type(data).__name__}")
        return None
    before, declared = len(found), fields_of(spec)
    unknown = sorted(str(key) for key in data if key not in declared)
    if unknown:
        found.append(f"{where}unknown keys {unknown}")
    required = [
        name for name, spec_field in declared.items()
        if spec_field.default is MISSING and spec_field.default_factory is MISSING
    ]
    missing = ", ".join(repr(name) for name in required if name not in data)
    if missing:
        found.append(
            f"{where}needs {' and '.join(map(repr, required))}: missing {missing}"
        )
    values = {}
    for name, value in data.items():
        spec_field = declared.get(name)
        if spec_field is None:
            continue
        entry = spec_field.metadata.get("of")
        if entry is not None and not isinstance(value, (list, tuple)):
            found.append(f"{where}{name}: must be a list, got {type(value).__name__}")
        elif entry is not None:
            values[name] = tuple(
                _read(entry, item, found, f"{where}{name}[{index}]: ")
                for index, item in enumerate(value)
            )
        elif value is None and spec_field.default is None:
            values[name] = None
        else:
            values[name] = coerce(
                f"{where}{name}", value, knob_type(spec_field), found
            )
    return spec(**values) if len(found) == before else None


def load(spec, data: Any, error: type[Exception]):
    """``data`` read as a ``spec``; raises ``error`` listing every problem."""
    found: list[str] = []
    built = _read(spec, data, found)
    if found:
        raise error("; ".join(found))
    return built
