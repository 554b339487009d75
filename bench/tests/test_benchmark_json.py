"""BENCHMARK.json self-check against the contract and bench.metrics."""

import json
import re
from pathlib import Path

from bench import metrics, workloads

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape_and_limits():
    assert set(DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DOC["paths"] == ["bench"]
    assert DOC["command"][:3] == ["python3", "-m", "bench"]
    assert 1 <= DOC["run_seconds"] <= 60
    assert len(DOC["workloads"]) == 5
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    # 4 + 22 runs per workload, with set-up, inside the driver's 3420 s.
    runs = 4 + 22 * len(DOC["workloads"])
    assert runs * (DOC["run_seconds"] + 8) <= 3420


def test_names_units_and_reasons():
    names = [m["name"] for m in DOC["workloads"] + DOC["end_to_end"] + DOC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DOC["end_to_end"] + DOC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


def test_document_matches_the_harness():
    assert {w["name"]: w["why"] for w in DOC["workloads"]} == workloads.WHY
    assert DOC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert DOC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_every_layer_metric_names_what_it_should_move_and_where():
    end_to_end = {m.name for m in metrics.END_TO_END}
    known = set(workloads.WHY) | {"none"}
    for metric in metrics.PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert set(metric.on.split(",")) <= known and metric.on, metric.name
