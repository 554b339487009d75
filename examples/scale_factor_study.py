"""Exploring the three-dimensional scale space (Section V).

Sweeps each scale factor independently and prints how the benchmark
reacts:

* datasize d — more messages per period and larger data sets,
* time t — the same schedule compressed into less time (more overlap,
  more self-management pressure),
* distribution f — uniform vs skewed source data.

Run with::

    python examples/scale_factor_study.py
"""

from repro.parallel import RunSpec, client_from_spec


def run(periods: int = 2, **factors):
    client = client_from_spec(RunSpec(periods=periods, seed=7, **factors))
    result = client.run()
    assert result.verification.ok
    return result


def sweep_datasize() -> None:
    print("datasize sweep (t=1.0, uniform)")
    print(f"{'d':>6}{'instances':>11}{'P04 NAVG+':>12}{'P13 NAVG+':>12}")
    for d in (0.02, 0.05, 0.1):
        result = run(datasize=d)
        print(
            f"{d:>6}{result.total_instances:>11}"
            f"{result.metrics['P04'].navg_plus:>12.1f}"
            f"{result.metrics['P13'].navg_plus:>12.1f}"
        )
    print()


def sweep_time() -> None:
    print("time sweep (d=0.05, uniform) — NAVG+ reported in tu")
    print(f"{'t':>6}{'P04 NAVG+':>12}{'P10 NAVG+':>12}")
    for t in (0.5, 1.0, 2.0, 4.0):
        result = run(datasize=0.05, time=t)
        print(
            f"{t:>6}{result.metrics['P04'].navg_plus:>12.1f}"
            f"{result.metrics['P10'].navg_plus:>12.1f}"
        )
    print("(a pressure-free system would scale NAVG+ exactly linearly in t;")
    print(" the super-linear excess is the queueing/self-management effect)")
    print()


def sweep_distribution() -> None:
    print("distribution sweep (d=0.05, t=1.0)")
    names = {0: "uniform", 1: "zipf", 2: "normal", 3: "exponential"}
    print(f"{'f':>14}{'P09 NAVG+':>12}{'P12 NAVG+':>12}{'errors':>8}")
    for f, name in names.items():
        result = run(datasize=0.05, distribution=f)
        print(
            f"{name:>14}{result.metrics['P09'].navg_plus:>12.1f}"
            f"{result.metrics['P12'].navg_plus:>12.1f}"
            f"{result.error_instances:>8}"
        )
    print()


def main() -> None:
    sweep_datasize()
    sweep_time()
    sweep_distribution()


if __name__ == "__main__":
    main()
