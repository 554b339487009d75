"""The command-line front-end."""

import json

import pytest

from repro.cli import main


class TestProcessesCommand:
    def test_lists_table_1(self, capsys):
        assert main(["processes"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 16):
            assert f"P{i:02d}" in out
        assert "P14_S1" in out

    def test_shows_event_types(self, capsys):
        main(["processes"])
        out = capsys.readouterr().out
        assert "E1" in out and "E2" in out


class TestValidateCommand:
    def test_all_valid(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "INVALID" not in out
        assert out.count("ok") >= 19


class TestScheduleCommand:
    def test_prints_series(self, capsys):
        assert main(["schedule", "--period", "0", "--datasize", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "P04: n=  56" in out
        assert "P10" in out

    def test_time_factor_compresses(self, capsys):
        main(["schedule", "--period", "0", "--time", "2"])
        out = capsys.readouterr().out
        assert "1000.0" in out  # P08's 2000 tu shift at t=2


class TestRunCommand:
    def test_run_one_period(self, capsys, tmp_path):
        plot = tmp_path / "plot.svg"
        report = tmp_path / "report.txt"
        status = main([
            "run", "--periods", "1", "--quiet", "--seed", "3",
            "--plot", str(plot), "--report", str(report),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "verification OK" in out
        assert "NAVG+" in out
        assert plot.read_text().startswith("<svg")
        assert "P04" in report.read_text()

    def test_run_federated(self, capsys):
        status = main([
            "run", "--periods", "1", "--engine", "federated", "--quiet",
        ])
        assert status == 0
        assert "federated" in capsys.readouterr().out

    def test_ascii_plot_by_default(self, capsys):
        main(["run", "--periods", "1"])
        out = capsys.readouterr().out
        assert "DIPBench Performance Plot" in out

    def test_bad_distribution_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--distribution", "9"])

    def test_run_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        status = main([
            "run", "--periods", "1", "--datasize", "0.02", "--quiet",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert "engine_instances_total" in metrics.read_text()


class TestTraceCommand:
    def test_writes_chrome_trace(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        status = main([
            "trace", "--periods", "1", "--datasize", "0.02",
            "--out", str(out_file),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "spans" in out
        doc = json.loads(out_file.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "run" in names

    def test_writes_jsonl(self, tmp_path):
        out_file = tmp_path / "spans.jsonl"
        status = main([
            "trace", "--periods", "1", "--datasize", "0.02",
            "--out", str(out_file), "--format", "jsonl",
        ])
        assert status == 0
        rows = [json.loads(line)
                for line in out_file.read_text().splitlines()]
        assert any(r["kind"] == "instance" for r in rows)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly"])


class TestProfileCommand:
    def test_budgeted_profile_names_the_tables_that_faulted(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "prof.json"
        status = main([
            "profile", "--periods", "1", "--datasize", "0.02",
            "--mem-budget", "300", "--out", str(out_file),
        ])
        assert status == 0
        out = capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        tables = doc["partition_tables"]
        assert tables, "a 300-row budget must make some table fault"
        assert [t["reloads"] for t in tables] == sorted(
            (t["reloads"] for t in tables), reverse=True
        )
        # Each store's slots are its share of the process-wide counters.
        for counter in ("reloads", "spills", "segment_reuses"):
            assert sum(t[counter] for t in tables) == doc["partition"].get(
                counter, 0
            )
        block = out.split("partition spill counters:")[1]
        for entry in tables:
            assert f"{entry['table']:<34}reloads={entry['reloads']}" in block

    def test_unbudgeted_profile_lists_no_tables(self, capsys, tmp_path):
        out_file = tmp_path / "prof.json"
        assert main([
            "profile", "--periods", "1", "--datasize", "0.02",
            "--out", str(out_file),
        ]) == 0
        assert "partition spill counters:" not in capsys.readouterr().out
        assert json.loads(out_file.read_text())["partition_tables"] == []


class TestFaultsCommand:
    def test_valid_spec_described(self, capsys):
        assert main(["faults", "examples/faults_basic.json"]) == 0
        out = capsys.readouterr().out
        assert "basic-degraded-run" in out
        assert "partition" in out and "heal" in out
        assert "spec is valid" in out

    def test_invalid_reference_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "name": "bad", "seed": 1,
            "events": [{"at": 1.0, "kind": "outage", "service": "ghost"}],
        }))
        assert main(["faults", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "unknown service 'ghost'" in out

    def test_unreadable_spec_rejected(self, capsys, tmp_path):
        assert main(["faults", str(tmp_path / "missing.json")]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestRunWithFaults:
    def test_degraded_run_reports_resilience(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        status = main([
            "run", "--periods", "2", "--quiet",
            "--faults", "examples/faults_basic.json",
            "--metrics-out", str(metrics),
        ])
        assert status == 0  # clean final period: verification passes
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "recovered=3" in out
        assert "dead letters:" in out
        assert "XsdValidationError" in out
        prom = metrics.read_text()
        assert "resilience_recovered_total" in prom
        assert "resilience_dead_letters_total" in prom

    def test_bad_spec_file_exits_2(self, capsys, tmp_path):
        assert main([
            "run", "--periods", "1", "--quiet",
            "--faults", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "name": "bad", "seed": 1,
            "events": [{"at": 1.0, "kind": "partition",
                        "src": "XX", "dst": "IS"}],
        }))
        assert main([
            "run", "--periods", "1", "--quiet", "--faults", str(spec),
        ]) == 2
        assert "invalid fault spec" in capsys.readouterr().err


class TestRunDurability:
    def test_run_with_durability_prints_storage_line(self, capsys):
        status = main([
            "run", "--periods", "1", "--quiet",
            "--durability", "snapshot+wal", "--checkpoint-every", "50",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "durability: mode=snapshot+wal" in out
        assert "recovery: none" in out

    def test_crash_spec_without_durability_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "crash.json"
        spec.write_text(json.dumps({
            "name": "crash", "seed": 7,
            "events": [{"at": 300.0, "kind": "crash",
                        "point": "commit", "period": 0}],
        }))
        assert main([
            "run", "--periods", "1", "--quiet", "--faults", str(spec),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run spec: faults: ")
        assert "durability" in err


class TestSweepCommand:
    def test_parallel_sweep_matches_serial_byte_for_byte(
        self, capsys, tmp_path
    ):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        base = ["sweep", "--grid", "d=0.02", "--seeds", "11,12", "--quiet"]
        assert main(base + ["--workers", "1", "--out", str(serial_out)]) == 0
        assert main(
            base + ["--workers", "4", "--out", str(parallel_out)]
        ) == 0
        assert serial_out.read_bytes() == parallel_out.read_bytes()
        out = capsys.readouterr().out
        fingerprints = {
            line.split()[-1]
            for line in out.splitlines()
            if line.startswith("sweep fingerprint:")
        }
        assert len(fingerprints) == 1

    def test_table_lists_every_grid_point(self, capsys):
        status = main([
            "sweep", "--grid", "d=0.02", "--seeds", "11",
            "--engines", "interpreter,federated",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "interpreter" in out and "federated" in out
        assert "2 grid points" in out

    def test_merged_metrics_written(self, tmp_path):
        metrics = tmp_path / "sweep.prom"
        assert main([
            "sweep", "--grid", "d=0.02", "--seeds", "11,12",
            "--workers", "2", "--quiet", "--metrics-out", str(metrics),
        ]) == 0
        assert "engine_instances_total" in metrics.read_text()

    def test_json_document_shape(self, tmp_path):
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
            "--out", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["fingerprint"]
        (point,) = doc["points"]
        assert point["status"] == "ok"
        assert point["verification_ok"] is True
        assert point["navg_plus"]

    def test_bad_grid_axis_exits_2(self, capsys):
        assert main(["sweep", "--grid", "q=1"]) == 2
        assert "bad grid axis" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["sweep", "--engines", "quantum"]) == 2
        assert "unknown engines" in capsys.readouterr().err

    def test_missing_fault_spec_exits_2(self, capsys, tmp_path):
        assert main([
            "sweep", "--faults", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestRecoverCommand:
    def test_converges_and_exits_zero(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        status = main([
            "recover", "--engine", "interpreter",
            "--crash-at", "300", "--metrics-out", str(metrics),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "recoveries=1" in out
        assert "records byte-identical: yes" in out
        assert "landscape digest equal: yes" in out
        assert "CONVERGED" in out
        text = metrics.read_text()
        assert "storage_recoveries_total 1" in text

    def test_crash_outside_period_diverges(self, capsys):
        # Far beyond the period horizon: the fault never fires, no
        # recovery happens, and the command refuses to claim convergence.
        status = main(["recover", "--crash-at", "999999"])
        assert status == 1
        assert "no recovery" in capsys.readouterr().out

    def test_example_crash_spec_loads(self, capsys):
        status = main([
            "recover", "--faults", "examples/faults_crash.json",
        ])
        assert status == 0
        assert "CONVERGED" in capsys.readouterr().out

    def test_parallel_jobs_still_converge(self, capsys):
        status = main([
            "recover", "--crash-at", "300", "--jobs", "2",
            "--datasize", "0.02",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "CONVERGED" in out


class TestParseTenantPolicies:
    def test_full_syntax(self):
        from repro.serve.admission import parse_tenant_policies

        policies = parse_tenant_policies(
            ["acme:rate=20:burst=5:active=4", "globex"]
        )
        assert policies["acme"].rate == 20.0
        assert policies["acme"].burst == 5.0
        assert policies["acme"].max_active == 4
        assert policies["globex"].name == "globex"

    def test_unknown_knob_rejected(self):
        from repro.serve.admission import parse_tenant_policies
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="unknown tenant policy knob"):
            parse_tenant_policies(["acme:speed=9"])

    def test_bad_value_rejected(self):
        from repro.serve.admission import parse_tenant_policies
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="bad value"):
            parse_tenant_policies(["acme:rate=fast"])


class TestServeCommand:
    def test_bad_tenant_policy_exits_2(self, capsys):
        assert main(["serve", "--tenant", "acme:speed=9"]) == 2
        assert "unknown tenant policy knob" in capsys.readouterr().err


class TestStormCommand:
    def test_small_selfhosted_storm(self, capsys, tmp_path):
        out = tmp_path / "reports" / "storm.json"
        status = main([
            "storm", "--clients", "40", "--tenants", "acme,globex",
            "--rate", "2000", "--seed", "7", "--distinct", "1",
            "--datasize", "0.02", "--slots", "2", "--out", str(out),
        ])
        assert status == 0
        printed = capsys.readouterr().out
        assert "accounting: 40 submitted" in printed
        doc = json.loads(out.read_text())
        assert doc["submitted"] == 40
        assert doc["submitted"] == (
            doc["accepted"] + doc["rejected"] + doc["errors"]
        )
        assert set(doc["tenants"]) == {"acme", "globex"}

    def test_host_without_port_exits_2(self, capsys):
        assert main(["storm", "--host", "127.0.0.1"]) == 2
        assert "--host needs --port" in capsys.readouterr().err

    def test_bad_model_knob_exits_2(self, capsys):
        assert main(["storm", "--clients", "0"]) == 2
        assert "client" in capsys.readouterr().err


def _no_run(*args, **kwargs):
    raise AssertionError("a run started before the input was refused")


_NO_BUDGET = "invalid run spec: mem_budget: out of range [1, inf): {}"


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["recover", "--jobs", "0"], "--jobs must be >= 1"),
        (["cluster", "run", "--jobs", "0"], "--jobs must be >= 1"),
        (["cluster", "topology", "--vnodes", "0"], "vnodes must be >= 1"),
        (["schedule", "--period", "-1"], "period must be in [0, 99]"),
        (["schedule", "--period", "500"], "period must be in [0, 99]"),
        (["serve", "--port", "70000"], "--port must be in [0, 65535]"),
        (["serve", "--port", "-1"], "--port must be in [0, 65535]"),
        (["recover", "--crash-at", "nan"], "finite, got at=nan"),
        (["recover", "--crash-at", "inf"], "finite, got at=inf"),
        (["recover", "--crash-at", "-5"], "time must be >= 0"),
        (["cluster", "run", "--crash-spacing", "nan"], "finite, got at=nan"),
        (["run", "--mem-budget", "0"], _NO_BUDGET.format(0)),
        (["profile", "--mem-budget", "0"], _NO_BUDGET.format(0)),
        (["sweep", "--mem-budget", "-3"], _NO_BUDGET.format(-3)),
        (["recover", "--mem-budget", "0"], _NO_BUDGET.format(0)),
        (["schedule", "--datasize", "11"],
         "invalid run spec: datasize: out of range (0, 10]: 11.0"),
        (["schedule", "--time", "1000"],
         "invalid run spec: time: out of range (0, 100]: 1000.0"),
        (["cluster", "topology", "--datasize", "11"],
         "invalid run spec: datasize: out of range (0, 10]: 11.0"),
        (["cluster", "topology", "--datasize", "0"],
         "invalid run spec: datasize: out of range (0, 10]: 0.0"),
    ],
)
def test_hand_written_flags_fail_closed(argv, complaint, capsys, monkeypatch):
    """Out-of-range flags exit 2 with one ``error:`` line, before any
    run starts: a crash time is checked before the baseline runs, a
    memory budget before the engine is built."""
    for name in ("prove_convergence", "build_scenario", "client_from_spec",
                 "SweepExecutor"):
        monkeypatch.setattr(f"repro.cli.{name}", _no_run)
    monkeypatch.setattr("repro.cli.asyncio.run", _no_run)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and complaint in captured.err
    assert "Traceback" not in captured.err
