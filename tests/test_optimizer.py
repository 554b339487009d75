"""Optimizer rewrite rules: correctness and effect."""

import pytest

from repro.db import col, lit
from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.mtm import (
    EventType,
    Fork,
    Invoke,
    ProcessGroup,
    ProcessType,
    Projection,
    Selection,
    Sequence,
    Signal,
)
from repro.mtm.process import validate_definition
from repro.optimizer import (
    merge_projections,
    optimize_process,
    parallelize_extracts,
    push_down_selections,
)
from repro.scenario import build_processes, build_scenario
from repro.scenario.processes import helpers
from repro.toolsuite import Initializer


def extract_filter_process():
    return ProcessType(
        "P_XF", ProcessGroup.B, "extract-filter", EventType.E2_SCHEDULE,
        Sequence([
            Invoke("src", helpers.query_request("t"), output="raw"),
            Selection("raw", "narrow", col("k") > lit(5)),
            Signal(),
        ]),
    )


class TestSelectionPushdown:
    def test_fuses_extract_and_filter(self):
        optimized, report = push_down_selections(extract_filter_process())
        assert report.selections_pushed == 1
        kinds = [op.kind for op in optimized.operators()]
        assert "selection" not in kinds
        invoke = next(op for op in optimized.operators()
                      if isinstance(op, Invoke))
        assert invoke.output == "narrow"
        assert invoke.request_builder.predicate is not None

    def test_does_not_touch_filtered_extracts(self):
        process = ProcessType(
            "P_F", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([
                Invoke("src", helpers.query_request("t", col("k") > lit(0)),
                       output="raw"),
                Selection("raw", "narrow", col("k") > lit(5)),
                Signal(),
            ]),
        )
        _, report = push_down_selections(process)
        assert report.selections_pushed == 0

    def test_requires_adjacent_pair(self):
        process = ProcessType(
            "P_G", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([
                Invoke("src", helpers.query_request("t"), output="raw"),
                Signal(),
                Selection("raw", "narrow", col("k") > lit(5)),
            ]),
        )
        _, report = push_down_selections(process)
        assert report.selections_pushed == 0

    def test_p05_and_p06_rewritten(self):
        processes = build_processes()
        for pid, expected in (("P05", 4), ("P06", 4), ("P07", 0)):
            _, report = push_down_selections(processes[pid])
            assert report.selections_pushed == expected, pid


class TestProjectionMerge:
    def test_adjacent_renames_compose(self):
        process = ProcessType(
            "P_M", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([
                Invoke("src", helpers.query_request("t"), output="a"),
                Projection("a", "b", {"x": "k"}),
                Projection("b", "c", {"y": "x"}),
                Signal(),
            ]),
        )
        optimized, report = merge_projections(process)
        assert report.projections_merged == 1
        projections = [op for op in optimized.operators()
                       if isinstance(op, Projection)]
        assert len(projections) == 1
        assert projections[0].mapping == {"y": "k"}
        assert projections[0].input == "a"
        assert projections[0].output == "c"

    def test_expression_projection_not_merged(self):
        process = ProcessType(
            "P_E", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([
                Invoke("src", helpers.query_request("t"), output="a"),
                Projection("a", "b", {"x": "k"}),
                Projection("b", "c", {"y": col("x") * lit(2)}),
                Signal(),
            ]),
        )
        _, report = merge_projections(process)
        assert report.projections_merged == 0


class TestParallelization:
    def test_independent_extracts_forked(self):
        processes = build_processes()
        optimized, report = parallelize_extracts(processes["P03"])
        assert report.forks_introduced > 0
        assert any(isinstance(op, Fork) for op in optimized.operators())
        assert validate_definition(optimized,
                                   known_processes=set(processes)) == []

    def test_dependent_steps_not_forked(self):
        process = extract_filter_process()  # selection depends on extract
        optimized, report = parallelize_extracts(process)
        forked = [op for op in optimized.operators() if isinstance(op, Fork)]
        for fork in forked:
            # extract and its dependent selection never share a fork
            kinds_per_branch = [
                {o.kind for o in branch.iter_tree()} for branch in fork.branches
            ]
            assert not any(
                {"invoke", "selection"} <= kinds for kinds in kinds_per_branch
            )


class TestSemanticEquivalence:
    @pytest.mark.parametrize("pid", ["P05", "P06", "P07", "P11"])
    def test_optimized_process_produces_same_state(self, pid, small_profile):
        def run(optimize):
            scenario = build_scenario()
            Initializer(scenario, d=1.0, profile=small_profile,
                        seed=3).initialize_sources(0)
            engine = MtmInterpreterEngine(scenario.registry)
            processes = build_processes()
            if pid == "P11":
                engine.deploy(processes["P03"])
            process = processes[pid]
            if optimize:
                process, _ = optimize_process(process)
            engine.deploy(process)
            if pid == "P11":
                engine.handle_event(ProcessEvent("P03", 0.0))
            record = engine.handle_event(ProcessEvent(pid, 1000.0))
            assert record.status == "ok"
            cdb = scenario.databases["sales_cleaning"]
            return (
                sorted((r["custkey"], r["name"])
                       for r in cdb.table("customer").scan()),
                sorted(r["orderkey"] for r in cdb.table("orders").scan()),
                record.costs.total,
            )

        plain_state = run(False)
        optimized_state = run(True)
        assert plain_state[0] == optimized_state[0]
        assert plain_state[1] == optimized_state[1]

    @pytest.mark.parametrize("pid", ["P05", "P06"])
    def test_pushdown_actually_cheaper(self, pid, small_profile):
        def cost(optimize):
            scenario = build_scenario()
            Initializer(scenario, d=1.0, profile=small_profile,
                        seed=3).initialize_sources(0)
            engine = MtmInterpreterEngine(scenario.registry)
            process = build_processes()[pid]
            if optimize:
                process, _ = push_down_selections(process)
            engine.deploy(process)
            return engine.handle_event(ProcessEvent(pid, 0.0)).costs.total

        assert cost(True) < cost(False)


class TestReport:
    def test_total_rewrites(self):
        _, report = optimize_process(build_processes()["P05"])
        assert report.total_rewrites == report.selections_pushed + \
            report.projections_merged + report.forks_introduced
        assert report.notes

    def test_subprocess_flag_preserved(self):
        processes = build_processes()
        optimized, _ = optimize_process(processes["P14_S1"])
        assert optimized.subprocess_only
