"""A cold session, counted: what sessions 2–5 of a process no longer do.

``served`` makes every session a whole benchmark run: build the
landscape, deploy P01–P15, run one period at d=0.02, verify, digest.
This file counts — no timer — what four sessions cycling the four
engines do *after* a first session bound everything a definition fixes
(seeds 101–105, one process, one thread):

==========================================================  ==========  ======
per session, sessions 2–5                                       parent  change
==========================================================  ==========  ======
process definitions built (``ProcessType.__init__``)                19       0
operator-field scans for expressions (one per deploy of a            19       0
definition)
stylesheets / schemas built                                       7 / 1   0 / 0
``ProjectionPlan`` built by ``Projection.execute``                   35       0
``ColumnParsers`` built by ``Convert.execute``                        8       0
path steps compiled by ``Stylesheet._compile``                       89       0
``assert_valid_definition`` calls per deploy                         19      19
``fastpath.expr_compiled`` (†)                                  135 (*)     138
``hasher.update`` calls per ``landscape_digest``            4 526–4 924     208
==========================================================  ==========  ======

(*) the parent's *first* session of a process counts 138: three
module-level ``lit(False)`` (``scenario/processes/helpers.py``) are
shared by every build and stay cached afterwards.  A deployment now
compiles every distinct expression of its plans whatever an earlier one
left cached, so every session counts what a fresh process counts.

(†) the row also counted ``masks_compiled``, 21 per session at the
parent and 24 at the change, until the columnar mask compiler was
deleted: a deployment now compiles closures only.

The update bound is 4 per database + 2 per table or view + rows / 512
(14 databases, 74 tables, 4 views, ≈ 2 250 rows at d=0.02: ≤ 216; the
parent hashed every row with two calls).  The landscape's own plans —
one view join's ``ProjectionPlan``, two endpoint ``ColumnParsers`` —
belong to ``build_scenario()`` and are bound once per session on both
sides; they are not counted here.

The end-to-end claim belongs to ``python3 -m bench --workload served``
(docs/serving.md, "What a cold session pays"; docs/perf-log/PR-22.md).
"""

import hashlib
import sys
import types

from benchmarks.conftest import ledger_append, src_lines

from repro.db import fastpath
from repro.db.relation import ProjectionPlan
from repro.engine import base as engine_base
from repro.mtm import process as process_module
from repro.mtm.operators import Convert, Projection
from repro.parallel.spec import RunSpec, run_spec
from repro.storage import digest as digest_module
from repro.xmlkit.convert import ColumnParsers
from repro.xmlkit.stx import Stylesheet, _PathPlan
from repro.xmlkit.xsd import XsdSchema

ENGINES = ("interpreter", "federated", "eai", "etl")

#: What the parent commit counts per session 2–5 (see the table above).
PARENT = {
    "definitions_built": 19, "field_scans": 19, "Stylesheet": 7, "XsdSchema": 1,
    "ProjectionPlan": 35, "ColumnParsers": 8, "_PathPlan": 89,
    "expr_compiled": 135, "digest_updates": 4924,
}


class _CountingSha256:
    """The digest module's ``sha256``, counting its ``update`` calls."""

    updates = 0

    def __init__(self):
        self._inner = hashlib.sha256()

    def update(self, data):
        _CountingSha256.updates += 1
        self._inner.update(data)

    def hexdigest(self):
        return self._inner.hexdigest()


def _session(index, monkeypatch):
    """Run session ``index``; returns its counts."""
    counted = {
        process_module.ProcessType.__init__.__code__: "definitions_built",
        process_module._held_expressions.__code__: "field_scans",
        XsdSchema.__init__.__code__: "XsdSchema",
        Stylesheet.__init__.__code__: "Stylesheet",
        process_module.assert_valid_definition.__code__: "validations",
        engine_base.IntegrationEngine.deploy_all.__code__: "deploys",
    }
    #: Plans a definition binds, by the definition code that builds them
    #: (the landscape's own views and endpoints, rebuilt with every
    #: ``build_scenario()``, bind theirs per session: 1 + 2 builds).
    plans = {
        ProjectionPlan.__init__.__code__: ("ProjectionPlan", Projection.execute),
        ColumnParsers.__init__.__code__: ("ColumnParsers", Convert.execute),
        _PathPlan.__init__.__code__: ("_PathPlan", Stylesheet._compile),
    }
    counts = dict.fromkeys(
        [*counted.values(), *(name for name, _ in plans.values())], 0
    )

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = counted.get(code)
            if name is not None:
                counts[name] += 1
            elif code in plans:
                name, builder = plans[code]
                if frame.f_back.f_code is builder.__code__:
                    counts[name] += 1

    landscape_digest = digest_module.landscape_digest

    def counting_digest(databases):
        databases = list(databases)
        counts["databases"] = len(databases)
        counts["tables_and_views"] = sum(
            len(db.table_names) + len(db.view_names) for db in databases
        )
        counts["rows"] = sum(
            len(db.table(name).dump_rows()) for db in databases
            for name in db.table_names
        ) + sum(
            len(db.materialized_view(name).snapshot) for db in databases
            for name in db.view_names if db.materialized_view(name).is_populated
        )
        _CountingSha256.updates = 0
        try:
            return landscape_digest(databases)
        finally:
            counts["digest_updates"] = _CountingSha256.updates

    monkeypatch.setattr("repro.storage.landscape_digest", counting_digest)
    compiled_before = fastpath.STATS.expr_compiled
    sys.setprofile(profiler)
    try:
        outcome = run_spec(RunSpec(
            engine=ENGINES[index % 4], datasize=0.02, periods=1, seed=101 + index,
        ))
    finally:
        sys.setprofile(None)
    assert outcome.ok, outcome.error
    assert outcome.result.verification.ok
    counts["expr_compiled"] = fastpath.STATS.expr_compiled - compiled_before
    return counts


def test_sessions_two_to_five_rebind_nothing(monkeypatch):
    monkeypatch.setattr(
        digest_module, "hashlib", types.SimpleNamespace(sha256=_CountingSha256)
    )
    first = _session(0, monkeypatch)
    later = [_session(index, monkeypatch) for index in range(1, 5)]

    for counts in later:
        assert counts["deploys"] == 1
        assert counts["validations"] == 19
        for name in ("definitions_built", "field_scans", "ProjectionPlan",
                     "ColumnParsers", "_PathPlan", "XsdSchema", "Stylesheet"):
            assert counts[name] == 0, (name, counts[name])
        assert counts["expr_compiled"] == first["expr_compiled"]
    for counts in (first, *later):
        assert counts["digest_updates"] <= (
            4 * counts["databases"] + 2 * counts["tables_and_views"]
            + counts["rows"] / digest_module.CHUNK_ROWS
        )
    assert first["validations"] == 19

    print("\ncold session counts:", later[0],
          "digest updates", [c["digest_updates"] for c in later])
    ledger_append(
        "cold_session:counts",
        {
            "config": "four engines at d=0.02, seeds 102-105, sessions 2-5 "
                      "of one process (per session)",
            **{
                name: {"before": before, "after": later[0][name]}
                for name, before in PARENT.items()
            },
            "validations_per_deploy": {"before": 19, "after": 19},
            "src_loc": src_lines(),
        },
    )
