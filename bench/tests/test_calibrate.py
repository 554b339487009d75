"""The calibration arithmetic, and the kernel process itself."""

import time

import pytest

from bench import calibrate, metrics


def test_slowdown_is_a_plain_ratio_to_the_nominal_kernel_time():
    assert calibrate.slowdown(calibrate.NOMINAL_NS) == 1.0
    assert calibrate.slowdown(1.5 * calibrate.NOMINAL_NS) == 1.5
    # Each unit takes the mean of the sample before and the one after.
    samples = [1_000_000, 2_000_000, 2_000_000, 1_000_000]
    assert calibrate.slowdowns(samples) == [1.5, 2.0, 1.5]


def test_end_to_end_metrics_from_a_childs_result():
    setups = [
        {"setup_s": 0.30, "setup_kernel_ns": 1_000_000},
        {"setup_s": 0.45, "setup_kernel_ns": 1_500_000},
        {"setup_s": 0.60, "setup_kernel_ns": 1_000_000},
    ]
    result = {
        "unit_ref_ms": [100.0, 101.0] * 30, "instances": 600, "work_ref_s": 6.0,
        "cpu_ref_s": 0.1, "peak_rss_mb": 40.0,
    }
    values = {k: v for k, (v, _unit) in metrics.end_to_end(result, setups).items()}
    assert values["setup_s"] == pytest.approx(0.30)
    assert (values["unit_ms_p50"], values["unit_ms_p80"]) == (100.0, 101.0)
    assert values["instances_per_s"] == pytest.approx(100.0)
    assert values["cpu_s"] == pytest.approx(0.1)
    assert list(values) == [m.name for m in metrics.END_TO_END]


def test_a_free_run_is_read_by_interval_with_one_neighbour_each_side():
    host = calibrate.FreeRun(conn=None)
    # One sample every 10 ns; the host is twice as slow from stamp 50 on.
    host.stamps = list(range(0, 100, 10))
    host.kernel_ns = [1_000_000 if t < 50 else 2_000_000 for t in host.stamps]
    assert host.kernel_ns_during(0, 30) == 1_000_000
    assert host.kernel_ns_during(60, 90) == 2_000_000
    # 32..38 holds no sample: the neighbours at 30 and 40 answer.
    assert host.kernel_ns_during(32, 38) == 1_000_000
    # Past the last sample: the last one answers.
    assert host.kernel_ns_during(500, 600) == 2_000_000
    host.stamps, host.kernel_ns = [], []
    with pytest.raises(ValueError):
        host.kernel_ns_during(0, 10)


def test_the_kernel_process_answers_both_ways_in_cpu_time_and_stops():
    started = time.perf_counter_ns()
    with calibrate.KernelProcess(calibrate.shared_cpu()) as kernel:
        samples = [calibrate.sample(kernel.conn) for _ in range(3)]
        with calibrate.FreeRun(kernel.conn) as host:
            time.sleep(10 * calibrate.INTERVAL_S)
        samples.append(calibrate.sample(kernel.conn))  # still in step
    ended = time.perf_counter_ns()
    assert all(isinstance(ns, int) and 50_000 < ns < 50_000_000 for ns in samples)
    assert len(host.stamps) >= 3
    assert all(started <= stamp <= ended for stamp in host.stamps)
    assert 50_000 < host.kernel_ns_during(started, ended) < 50_000_000
    assert not kernel._process.is_alive()
