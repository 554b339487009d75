"""Determinism contract of the workload synthesizer (repro.synth).

The property under test: everything the synthesizer emits — manifests,
plans, ground truth, run fingerprints — is a pure function of
``(SynthSpec, seed)``.  Same inputs give byte-identical outputs, across
repeated calls and across sweep worker processes; a different seed gives
a different scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel import RunSpec, SweepExecutor, run_spec
from repro.synth import (
    SynthSpec,
    SynthSpecError,
    build_manifest,
    build_period_plan,
    knob_problems,
    manifest_digest,
    manifest_to_json,
    synthesize,
)

#: A deterministic sample of the knob space, covering every family and
#: every transform mix at least once.
SAMPLED_KNOBS = (
    "",
    "sources=3,depth=2,transform_mix=xml",
    "families=cdc,sources=1,messages=2",
    "families=scd+dirty,noise=0.4,update_ratio=0.8",
    "families=pipeline+cdc,fan_out=3,transform_mix=balanced",
    "sources=4,depth=3,rounds=3,scale=0.5,mix=balanced",
)


# ---------------------------------------------------------------------------
# SynthSpec identity: parse / to_string / digest
# ---------------------------------------------------------------------------


class TestSpecIdentity:
    @pytest.mark.parametrize("knobs", SAMPLED_KNOBS)
    def test_to_string_parse_round_trip(self, knobs):
        spec = SynthSpec.parse(knobs).resolve(42)
        assert SynthSpec.parse(spec.to_string()) == spec

    @pytest.mark.parametrize("knobs", SAMPLED_KNOBS)
    def test_digest_is_stable_and_seed_sensitive(self, knobs):
        a = SynthSpec.parse(knobs).resolve(42)
        b = SynthSpec.parse(knobs).resolve(42)
        assert a.digest() == b.digest()
        assert a.digest() != SynthSpec.parse(knobs).resolve(43).digest()

    def test_digest_differs_per_knob(self):
        base = SynthSpec().resolve(42)
        assert base.digest() != SynthSpec(depth=2).resolve(42).digest()
        assert base.digest() != SynthSpec(noise=0.3).resolve(42).digest()
        assert (
            base.digest()
            != SynthSpec(families=("cdc",)).resolve(42).digest()
        )

    def test_aliases_parse_to_the_same_spec(self):
        assert SynthSpec.parse("fanout=3,mix=xml,msgs=5") == SynthSpec.parse(
            "fan_out=3,transform_mix=xml,messages=5"
        )

    def test_families_are_canonically_ordered(self):
        spec = SynthSpec.parse("families=dirty+cdc+pipeline")
        assert spec.families == ("pipeline", "cdc", "dirty")

    def test_explicit_seed_survives_resolve(self):
        assert SynthSpec.parse("seed=7").resolve(42).seed == 7

    def test_parse_reports_every_lexical_problem_at_once(self):
        with pytest.raises(SynthSpecError) as err:
            SynthSpec.parse("bogus=1,noise=abc")
        text = "\n".join(err.value.problems)
        assert "bogus" in text and "noise" in text
        assert len(err.value.problems) == 2

    def test_parse_reports_every_range_problem_at_once(self):
        with pytest.raises(SynthSpecError) as err:
            SynthSpec.parse("depth=99,noise=5,families=martian")
        text = "\n".join(err.value.problems)
        assert "depth" in text and "noise" in text and "martian" in text
        assert len(err.value.problems) == 3

    def test_knob_problems_is_the_non_raising_twin(self):
        assert knob_problems("") == []
        assert knob_problems("depth=2") == []
        assert len(knob_problems("depth=99,families=martian")) == 2
        assert knob_problems("families=cdc+cdc") == [
            "knob 'families' given 'cdc' more than once"
        ]


# ---------------------------------------------------------------------------
# plans and manifests: byte identity per (spec, seed)
# ---------------------------------------------------------------------------


class TestPlanDeterminism:
    @pytest.mark.parametrize("knobs", SAMPLED_KNOBS)
    def test_period_plans_are_reproducible(self, knobs):
        spec = SynthSpec.parse(knobs).resolve(42)
        for f in (0, 1):
            for period in (0, 1):
                a = build_period_plan(spec, f, period)
                b = build_period_plan(spec, f, period)
                assert a == b

    def test_distribution_changes_values_not_volumes(self):
        spec = SynthSpec().resolve(42)
        uniform = build_period_plan(spec, 0, 0)
        zipf = build_period_plan(spec, 1, 0)
        # Rate decisions ride a uniform coin, so dirtiness volume is a
        # property of the knobs alone — value skew must not degrade it.
        assert uniform.message_count() == zipf.message_count()
        for i in uniform.duplicate_pairs:
            assert len(uniform.duplicate_pairs[i]) == len(
                zipf.duplicate_pairs[i]
            )

    def test_different_periods_differ(self):
        spec = SynthSpec().resolve(42)
        assert build_period_plan(spec, 0, 0) != build_period_plan(spec, 0, 1)


class TestManifestDeterminism:
    @pytest.mark.parametrize("knobs", SAMPLED_KNOBS)
    def test_manifests_are_byte_identical(self, knobs):
        spec = SynthSpec.parse(knobs).resolve(42)
        a = build_manifest(synthesize(spec, f=1), periods=2)
        b = build_manifest(synthesize(spec, f=1), periods=2)
        assert manifest_to_json(a) == manifest_to_json(b)
        assert manifest_digest(a) == manifest_digest(b)

    @pytest.mark.parametrize("knobs", SAMPLED_KNOBS)
    def test_different_seeds_give_different_manifests(self, knobs):
        at42 = SynthSpec.parse(knobs).resolve(42)
        at43 = SynthSpec.parse(knobs).resolve(43)
        assert manifest_digest(
            build_manifest(synthesize(at42))
        ) != manifest_digest(build_manifest(synthesize(at43)))

    def test_manifest_is_plain_json(self):
        manifest = build_manifest(synthesize(SynthSpec().resolve(42)))
        assert json.loads(manifest_to_json(manifest)) == manifest
        assert manifest["format"] == "dipbench.synth/v1"

    def test_manifest_covers_every_process_and_database(self):
        workload = synthesize(SynthSpec().resolve(42))
        manifest = build_manifest(workload)
        assert set(manifest["processes"]) == set(workload.processes)
        assert set(manifest["databases"]) == set(
            workload.scenario.databases
        )


# ---------------------------------------------------------------------------
# run fingerprints: repeated runs and sweep workers
# ---------------------------------------------------------------------------

SYNTH_SPEC = dict(periods=2, seed=11, synth="families=cdc+dirty,sources=2")


class TestRunFingerprints:
    def test_repeated_runs_are_byte_identical(self):
        first = run_spec(RunSpec(**SYNTH_SPEC))
        second = run_spec(RunSpec(**SYNTH_SPEC))
        assert first.ok and first.result.verification.ok
        assert first.fingerprint() == second.fingerprint()
        assert first.landscape_digest == second.landscape_digest
        assert first.result.records == second.result.records

    def test_seed_reaches_the_synthesizer(self):
        at11 = run_spec(RunSpec(**SYNTH_SPEC))
        at12 = run_spec(RunSpec(**dict(SYNTH_SPEC, seed=12)))
        assert at11.landscape_digest != at12.landscape_digest

    def test_sweep_workers_reproduce_the_serial_bytes(self):
        grid = [
            RunSpec(**SYNTH_SPEC),
            RunSpec(**dict(SYNTH_SPEC, seed=12)),
            RunSpec(**dict(SYNTH_SPEC, synth="families=scd,sources=1")),
        ]
        serial = SweepExecutor(workers=1).run(grid)
        parallel = SweepExecutor(workers=3).run(grid)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.to_json() == parallel.to_json()
        assert parallel.ok

    def test_synth_label_and_json_carry_the_knobs(self):
        outcome = run_spec(RunSpec(**SYNTH_SPEC))
        assert "synth=families=cdc+dirty,sources=2" in outcome.spec.label
        assert outcome.to_json()["synth"] == SYNTH_SPEC["synth"]

    def test_classic_spec_stays_untouched(self):
        spec = RunSpec(datasize=0.02, seed=11)
        assert "synth" not in spec.label
        assert "synth" not in run_spec(spec).to_json()
