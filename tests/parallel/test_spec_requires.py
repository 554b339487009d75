"""Knob combinations a run would refuse late are refused by ``problems()``.

A crash fault and a cluster both replay the WAL, so both need
durability.  ``RunSpec.problems()`` lists either combination, so the
CLI exits 2, ``sweep`` refuses before it spawns a worker and
``client_from_spec`` builds nothing.  ``checkpoint_every`` under ``wal``
stays accepted: the CI crash-recovery matrix passes it.  A crash
kills one cluster host, which stays dead until the next period, so a
timeline with as many crashes in one period as the cluster has hosts
is refused too: built anyway, it dies mid-run with a ``ClusterError``.
So is a cluster shape or a retry budget the run could not build: a
single host, replicas outside [1, hosts - 1], an empty shipping batch,
a negative lag, no attempt at all.
"""

import json

import pytest

from repro.cli import main
from repro.errors import BenchmarkError, ClusterError
from repro.parallel.spec import RunSpec, client_from_spec
from repro.resilience import FaultEvent, FaultSpec

CRASH = FaultSpec(
    name="crash", events=(FaultEvent(at=250.0, kind="crash", point="commit"),)
)
DEGRADE = FaultSpec(
    name="slow", events=(
        FaultEvent(at=0.0, kind="degrade", src="IS", dst="ES", factor=2.0),
    ),
)


def test_a_crash_without_durability_is_a_problem():
    (problem,) = RunSpec(faults=CRASH).problems()
    assert problem.startswith("faults: the spec schedules engine crashes")


def test_a_cluster_without_durability_is_a_problem():
    (problem,) = RunSpec(cluster_hosts=3).problems()
    assert problem.startswith("cluster_hosts: a cluster replicates the WAL")
    assert problem.endswith(": 3")


@pytest.mark.parametrize("durability", ["wal", "snapshot+wal"])
def test_durability_makes_both_valid(durability):
    spec = RunSpec(faults=CRASH, cluster_hosts=3, durability=durability)
    assert spec.problems() == []


def test_faults_without_a_crash_need_no_durability():
    assert RunSpec(faults=DEGRADE).problems() == []


def test_a_checkpoint_cadence_under_wal_stays_accepted():
    assert RunSpec(durability="wal", checkpoint_every=50.0).problems() == []


def test_both_problems_are_listed_at_once():
    assert len(RunSpec(faults=CRASH, cluster_hosts=2).problems()) == 2


def test_client_from_spec_builds_nothing(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a refused spec built a landscape")

    monkeypatch.setattr("repro.toolsuite.client.build_scenario", no_build)
    with pytest.raises(BenchmarkError, match="cluster_hosts: .*durability"):
        client_from_spec(RunSpec(cluster_hosts=3))


def _crash_file(tmp_path):
    path = tmp_path / "crash.json"
    path.write_text(json.dumps({"name": "crash", "events": [
        {"at": 250.0, "kind": "crash", "point": "commit"}]}))
    return str(path)


@pytest.mark.parametrize("command", [
    ["run", "--periods", "1", "--quiet"],
    ["sweep", "--grid", "d=0.02", "--periods", "1", "--quiet"],
    ["sweep", "--synth", "sources=2", "--periods", "1", "--quiet"],
])
def test_the_cli_exits_2_before_any_run(command, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a refused spec reached a run")

    monkeypatch.setattr("repro.cli.client_from_spec", no_run)
    monkeypatch.setattr("repro.cli.SweepExecutor", no_run)
    assert main([*command, "--faults", _crash_file(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid ")
    assert "faults: the spec schedules engine crashes" in captured.err


def _crashes(*periods):
    """One commit-point crash per entry, pinned to that period (None:
    every period), 20 tu apart from 20 tu on."""
    return FaultSpec(name="crashes", events=tuple(
        FaultEvent(at=20.0 * (i + 1), kind="crash", point="commit", period=p)
        for i, p in enumerate(periods)
    ))


def _cluster(faults, hosts=2, periods=1):
    return RunSpec(
        engine="interpreter", datasize=0.02, periods=periods, seed=5,
        durability="wal", cluster_hosts=hosts, faults=faults,
    )


def test_crashes_that_kill_every_host_in_one_period_are_a_problem():
    (problem,) = _cluster(_crashes(None, None)).problems()
    assert problem == (
        "faults: 2 crashes in one period kill all 2 cluster hosts, and a "
        "dead host stays dead until the next period"
    )


def test_fewer_crashes_per_period_than_hosts_are_accepted():
    assert _cluster(_crashes(None, None), hosts=3).problems() == []
    assert _cluster(_crashes(0, 1), periods=2).problems() == []


def test_an_unpinned_crash_counts_toward_every_period():
    (problem,) = _cluster(_crashes(1, None), periods=2).problems()
    assert problem.startswith("faults: 2 crashes in one period")


def test_a_crash_pinned_past_the_last_period_does_not_count():
    assert _cluster(_crashes(None, 2), periods=2).problems() == []
    assert _cluster(_crashes(None, 1), periods=2).problems() != []


def test_the_refused_timeline_dies_mid_run_when_built_anyway(monkeypatch):
    """What the refusal predicts: the second crash finds no live host."""
    spec = _cluster(_crashes(None, None))
    monkeypatch.setattr(RunSpec, "problems", lambda self: [])
    client = client_from_spec(spec)
    with pytest.raises(ClusterError, match="every cluster host is dead"):
        client.run()


def test_client_from_spec_refuses_the_timeline_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a refused spec built a landscape")

    monkeypatch.setattr("repro.toolsuite.client.build_scenario", no_build)
    with pytest.raises(BenchmarkError, match="faults: 2 crashes in one period"):
        client_from_spec(_cluster(_crashes(None, None)))


@pytest.mark.parametrize("flags", [
    ["--crashes", "2"],
    ["--faults", "FILE"],
])
def test_cluster_run_exits_2_before_any_run(flags, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a refused spec reached a run")

    monkeypatch.setattr("repro.cli.prove_convergence", no_run)
    path = tmp_path / "crashes.json"
    path.write_text(json.dumps({"name": "two", "events": [
        {"at": 20.0, "kind": "crash", "point": "commit"},
        {"at": 40.0, "kind": "crash", "point": "arrival"}]}))
    flags = [str(path) if flag == "FILE" else flag for flag in flags]
    assert main(["cluster", "run", "--hosts", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid run spec: faults: 2 crashes")


@pytest.mark.parametrize("knobs,problem", [
    ({"cluster_hosts": 1}, "cluster_hosts: must be 0 or >= 2: 1"),
    ({"cluster_hosts": -1}, "cluster_hosts: must be 0 or >= 2: -1"),
    ({"cluster_hosts": 3, "cluster_replicas": 3},
     "cluster_replicas: must be in [1, 2] with 3 cluster hosts: 3"),
    ({"cluster_hosts": 2, "cluster_replicas": 0},
     "cluster_replicas: must be in [1, 1] with 2 cluster hosts: 0"),
    ({"repl_batch": 0}, "repl_batch: out of range [1, inf): 0"),
    ({"repl_lag": -1.0}, "repl_lag: out of range [0, inf): -1.0"),
    ({"max_attempts": 0, "faults": DEGRADE},
     "max_attempts: out of range [1, inf): 0"),
])
def test_a_shape_the_run_cannot_build_is_the_only_problem(knobs, problem):
    assert RunSpec(durability="wal", **knobs).problems() == [problem]


def test_a_bad_host_count_is_not_blamed_on_durability():
    assert RunSpec(cluster_hosts=-1).problems() == [
        "cluster_hosts: must be 0 or >= 2: -1"
    ]


@pytest.mark.parametrize("knobs", [
    {"cluster_hosts": 1}, {"repl_batch": 0},
    {"max_attempts": 0, "faults": DEGRADE},
])
def test_the_client_refuses_the_shape_before_building(knobs, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a refused spec built a landscape")

    monkeypatch.setattr("repro.toolsuite.client.build_scenario", no_build)
    with pytest.raises(BenchmarkError, match="^invalid run spec: "):
        client_from_spec(RunSpec(durability="wal", **knobs))


def test_a_one_host_cluster_run_exits_2_naming_the_hosts(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a refused spec reached a run")

    monkeypatch.setattr("repro.cli.prove_convergence", no_run)
    assert main(["cluster", "run", "--hosts", "1", "--crashes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid run spec: cluster_hosts: must be 0 or >= 2: 1\n"
    )
