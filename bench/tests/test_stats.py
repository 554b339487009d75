import pytest

from bench.compare import verdict
from bench.stats import TooFewSamples, percentile, spread


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 80) == 80


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    assert percentile(list(range(50)), 80) == 39  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(49)), 80)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(12)), 80, strict=False) == 9


def test_spread_is_iqr_over_median():
    assert spread([10, 10, 10, 10]) == 0
    # quartiles of 8..14 (exclusive method) are 9 and 13; the median is 11
    assert spread([8, 9, 10, 11, 12, 13, 14]) == 4 / 11


def test_compare_verdicts():
    steady = [100, 101, 99, 100, 102]
    assert verdict(steady, [112, 113, 111, 112, 114], "lower", 0.10)[0] == "regressed"
    assert verdict(steady, [80, 81, 79, 80, 82], "lower", 0.10)[0] == "improved"
    assert verdict(steady, [100, 102, 99, 101, 100], "lower", 0.10)[0] == "unchanged"
    noisy = [80, 120, 100, 90, 115]
    assert verdict(noisy, [95, 105, 100, 98, 104], "lower", 0.10)[0] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert verdict(noisy, [60, 61, 62, 63, 64], "lower", 0.10)[0] == "improved"
    # "higher is better" flips the sign.
    assert verdict(steady, [80, 81, 79, 80, 82], "higher", 0.10)[0] == "regressed"


def _run(counts, rows):
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {
            "unit_ms_p50": {"value": 100.0, "unit": "ms"},
            "db.write.rows": {"value": rows, "unit": "count"},
        },
        "_units": 50, "_raw": {"unit_ms_p50_raw": 110.0}, "_counts": counts,
        "_gates": {"verification_ok": True}, "_layers": [],
    }


def test_repeat_gate_checks_counters_of_untraced_runs_and_count_metrics():
    from bench.cli import _median_run

    same = _median_run([_run({"fastpath.rows_copied": 7}, 5) for _ in range(3)])
    assert same["correct"] and same["failed"] == 0
    assert same["_gates"]["counts_repeat_exactly"]
    # A counter read by the (untraced) child drifts between repetitions.
    drift = _median_run([
        _run({"fastpath.rows_copied": 7}, 5), _run({"fastpath.rows_copied": 8}, 5),
    ])
    assert not drift["correct"] and drift["failed"] == 1
    assert not drift["_gates"]["counts_repeat_exactly"]
    # A count metric of a traced run drifts.
    drift = _median_run([_run({}, 5), _run({}, 6)])
    assert not drift["correct"] and drift["failed"] == 1
