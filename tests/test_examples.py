"""The shipped examples must keep running (they are documentation)."""

import runpy
import sys
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "verification OK" in out
        assert "NAVG+" in out
        assert "process instances" in out

    def test_custom_process(self, capsys):
        out = run_example("custom_process.py", capsys)
        assert "status=ok" in out
        assert "store_north price_list" in out
        assert "fork:fan_out" in out
        # Both fork branches ran: each left an operator span.
        spans = out.split("operator spans of the last instance:")[1]
        assert "invoke:replicate_north" in spans
        assert "invoke:replicate_south" in spans

    def test_degraded_run(self, capsys):
        out = run_example("degraded_run.py", capsys)
        assert "fault spec 'basic-degraded-run'" in out
        assert "recovered=3" in out
        assert "dead letter: P04" in out
        assert "verification OK" in out

    def test_data_quality_report(self, capsys):
        out = run_example("data_quality_report.py", capsys)
        assert "quality gradient monotone: True" in out
        assert "failed-data destinations" in out

    def test_crash_recovery(self, capsys):
        out = run_example("crash_recovery.py", capsys)
        assert "1 recovery" in out
        assert "records byte-identical: True" in out
        assert "landscape digest equal: True" in out

    def test_serve_storm(self, capsys):
        out = run_example("serve_storm.py", capsys)
        assert "storm: 150 clients, 2 tenant(s)" in out
        assert "accounting: 150 submitted = " in out
        assert "server-side per-tenant report" in out
        assert "verification_ok=True" in out
        assert "serve share" in out

    def test_synth_workload(self, capsys):
        out = run_example("synth_workload.py", capsys)
        assert "spec digest:" in out
        assert "manifest digest:" in out
        assert "verification OK" in out
        assert "family" in out and "cdc" in out and "dirty" in out
        assert "conformance OK" in out

    def test_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            text = script.read_text()
            assert text.startswith('"""'), script.name
            assert "__main__" in text, script.name
