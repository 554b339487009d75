"""SynthSpec: the explicit knob space of the workload synthesizer.

DIPBench fixes one landscape and 15 process types; DWEB argues a
benchmark becomes far more useful when the workload itself is a
parameterized generator.  A :class:`SynthSpec` is that parameterization:
pure picklable data describing the *shape* of an integration scenario —
source count, DAG depth and fan-out, transform mix, update/query ratio,
scale, dirtiness — plus which process families to emit.

Everything downstream (schemas, process graphs, message streams,
schedules, ground truth) is a deterministic function of ``(spec, seed)``;
:meth:`SynthSpec.digest` is the stable content hash of that function's
input, and the scenario manifest digest (``repro.synth.manifest``) is the
hash of its output.

The compact knob-string form (``"sources=3,depth=2,families=cdc+scd"``)
is what travels through ``RunSpec.synth``, the ``repro synth`` /
``repro sweep --synth`` CLI, the grid axes, and the
``dipbench.session/v1`` serve boundary.  Pair separator is ``","`` and
the families list uses ``"+"`` (grid axis *values* are ``"/"``-separated
precisely so knob strings can keep their commas).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from repro.declare import knob, parse_pairs, problems
from repro.errors import ReproError

#: The synthesized process families, in canonical order.
#:
#: * ``pipeline`` — classic E1 order feeds per source plus E2 multi-source
#:   consolidation DAGs (depth/fan-out/transform-mix knobs apply here);
#: * ``cdc``      — change-data-capture: an LSN-stamped change feed tapped
#:   off the source tables' change observers, replicated into a replica DB;
#: * ``scd``      — slowly-changing-dimension maintenance (type 1 + type 2)
#:   against the synthesized warehouse schema;
#: * ``dirty``    — Alaska-style dirty-data tasks: dedup/entity matching
#:   over overlapping noisy sources and schema matching over heterogeneous
#:   source dialects, with exact generated ground truth.
FAMILIES = ("pipeline", "cdc", "scd", "dirty")


class SynthSpecError(ReproError):
    """Invalid synthesis knobs; ``problems`` lists every issue found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid synth spec: " + "; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class SynthSpec:
    """The knob space of one synthesized workload.

    ``seed`` is optional: ``None`` means "inherit the run's seed"
    (:meth:`resolve` fills it in), so the same knob string swept over
    ``--seeds`` produces a different-but-deterministic scenario per seed.
    """

    sources: int = knob(2, bounds="[1, 8]", help="heterogeneous source systems, "
                        "each with its own schema dialect and E1 message streams")
    depth: int = knob(1, bounds="[0, 6]", help="extra transform stages per "
                      "consolidation DAG")
    fan_out: int = knob(2, bounds="[1, 8]", alias=("fanout",), help="sources "
                        "consumed per consolidation process")
    transform_mix: str = knob(
        "relational", choices=("relational", "xml", "balanced"), alias=("mix",),
        help="what the extra stages do (XML stages round-trip through the "
        "document model; balanced alternates)",
    )
    update_ratio: float = knob(0.5, bounds="[0, 1]", alias=("update",), help="share "
                               "of E1 messages updating entities, not inserting")
    scale: float = knob(1.0, bounds="(0, 10]", help="multiplies population sizes "
                        "and messages per stream")
    noise: float = knob(0.2, bounds="[0, 0.9]", help="dirtiness: duplicate, "
                        "corruption and invalid-amount rates")
    rounds: int = knob(2, bounds="[1, 6]", help="E1 then E2 waves per period, so "
                       "SCD churn and CDC pulls happen within one period")
    messages: int = knob(3, bounds="[1, 64]", alias=("msgs",), help="E1 messages "
                         "per stream per round (before `scale`)")
    families: tuple[str, ...] = knob(
        FAMILIES, choices=FAMILIES, bounds="[1, inf)", split="+",
        help="enabled process families, held in canonical order",
    )
    seed: int | None = knob(None, bounds="[0, inf)", help="pins the generator "
                            "seed; unset, the RunSpec seed is inherited")

    def validate(self) -> list[str]:
        """Range-check every knob; returns all problems (empty = valid)."""
        return problems(self)

    def assert_valid(self) -> "SynthSpec":
        found = self.validate()
        if found:
            raise SynthSpecError(found)
        return self

    # -- identity ---------------------------------------------------------------

    def canonical(self) -> dict:
        """Deterministic plain-JSON form (the digest input)."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }

    def digest(self) -> str:
        """Stable content hash over the canonical knob values.

        Two specs share a digest iff every knob (including the resolved
        seed) matches — the determinism contract's *input* identity.
        """
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def resolve(self, run_seed: int) -> "SynthSpec":
        """Fill the inherited seed in; no-op when one was given."""
        if self.seed is not None:
            return self
        return replace(self, seed=run_seed)

    # -- the knob-string form ---------------------------------------------------

    def to_string(self) -> str:
        """Compact knob string listing the non-default knobs.

        Round-trips through :meth:`parse`:
        ``SynthSpec.parse(spec.to_string()) == spec``.
        """
        defaults = SynthSpec()
        parts: list[str] = []
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value == getattr(defaults, spec_field.name):
                continue
            if isinstance(value, tuple):
                split = spec_field.metadata["split"]
                parts.append(f"{spec_field.name}={split.join(value)}")
            elif isinstance(value, float):
                parts.append(f"{spec_field.name}={value:g}")
            else:
                parts.append(f"{spec_field.name}={value}")
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str) -> "SynthSpec":
        """Parse a knob string; raises :class:`SynthSpecError` listing
        *every* problem (unknown knobs, uncoercible values, range
        violations) rather than stopping at the first."""
        values, found = parse_pairs(cls, text)
        if found:
            raise SynthSpecError(found)
        return cls(**values).assert_valid()


def knob_problems(text: str) -> list[str]:
    """Every problem with a knob string, without raising (serve boundary).

    Parse problems come alone: a range check of half-parsed knobs would
    only repeat them.
    """
    values, found = parse_pairs(SynthSpec, text)
    return found or SynthSpec(**values).validate()
