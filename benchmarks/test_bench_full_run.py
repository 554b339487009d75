"""Spec-complete execution: all 100 benchmark periods (Section V).

The figure/table benches use 5-period runs for iteration speed; this
bench executes the benchmark exactly as specified — 100 periods — at the
paper's reference datasize and verifies the final state, timing the
complete phase *work*.
"""

from repro.parallel import RunSpec, client_from_spec

from benchmarks.conftest import write_artifact


def test_full_100_period_run(benchmark):
    def full_run():
        client = client_from_spec(
            RunSpec(datasize=0.05, periods=100, seed=5)
        )
        result = client.run()
        return result, client

    result, client = benchmark.pedantic(full_run, rounds=1, iterations=1)
    assert result.periods == 100
    assert result.error_instances == 0
    assert result.verification.ok, result.verification.summary()
    # The decreasing stream-A series plays out over the full run: by
    # period 99 only a single P01 instance remains.
    p01 = client.monitor.records.where("process_id", lambda p: p == "P01")
    by_period = p01.groups("period")
    first, last = len(by_period[0]), len(by_period[99])
    assert first > last == 1

    summary = (
        "Spec-complete run: 100 periods, d=0.05\n"
        f"instances={result.total_instances} errors={result.error_instances}\n"
        + result.metrics.as_table()
    )
    write_artifact("full_run_100_periods.txt", summary)
    print("\n" + summary)
