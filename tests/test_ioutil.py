"""Atomic report writing (repro.ioutil, satellite of PR 6).

The contract: ``--out reports/deep/file.json`` works without a manual
``mkdir -p``, a crash or serialization failure never leaves a torn or
partial file behind, and the previous report survives a failed rewrite.
"""

import json

import pytest

from repro.cli import main
from repro.ioutil import write_json_atomic, write_text_atomic


class TestWriteTextAtomic:
    def test_creates_missing_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "report.txt"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    def test_no_stray_tmp_files(self, tmp_path):
        target = tmp_path / "report.txt"
        write_text_atomic(target, "content")
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestWriteJsonAtomic:
    def test_sorted_newline_terminated(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"b": 2, "a": 1})
        text = target.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_unserializable_doc_keeps_previous_file(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"ok": True})
        with pytest.raises(TypeError):
            write_json_atomic(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_unserializable_doc_creates_nothing(self, tmp_path):
        target = tmp_path / "deep" / "doc.json"
        with pytest.raises(TypeError):
            write_json_atomic(target, {"bad": object()})
        assert not target.exists()


class TestSweepOutIsAtomic:
    """The CLI satellite: `repro sweep --out` through the atomic path."""

    def test_out_creates_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "reports" / "nested" / "sweep.json"
        metrics = tmp_path / "metrics" / "sweep.prom"
        status = main([
            "sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
            "--out", str(out), "--metrics-out", str(metrics),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["points"][0]["status"] == "ok"
        assert "engine_instances_total" in metrics.read_text()

    def test_out_leaves_no_tmp_droppings(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        main(["sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
              "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


class TestEveryCliFileGoesThroughIoutil:
    """One per command that used a bare ``open``: the target directory
    does not exist yet."""

    def test_run_report(self, tmp_path, capsys):
        report = tmp_path / "new" / "dir" / "report.txt"
        assert main([
            "run", "--periods", "1", "--datasize", "0.02", "--quiet",
            "--report", str(report),
        ]) == 0
        assert "P04" in report.read_text()

    def test_profile_out(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "prof.json"
        assert main([
            "profile", "--periods", "1", "--datasize", "0.02",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["operators"]

    def test_recover_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "new" / "dir" / "recover.prom"
        assert main([
            "recover", "--datasize", "0.02", "--crash-at", "100",
            "--metrics-out", str(metrics),
        ]) == 0
        assert "storage_recoveries_total 1" in metrics.read_text()

    def test_cluster_run_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "new" / "dir" / "cluster.prom"
        assert main([
            "cluster", "run", "--datasize", "0.02", "--crashes", "1",
            "--crash-at", "40", "--metrics-out", str(metrics),
        ]) == 0
        assert "CONVERGED" in capsys.readouterr().out
        assert "storage_crashes_total" in metrics.read_text()
        assert [p.name for p in metrics.parent.iterdir()] == ["cluster.prom"]
