"""The paper's reference-implementation experiment (Section VI).

Reproduces the two published runs of the federated DBMS realization
("System A"): d = 0.05 (Fig. 10) and d = 0.1 (Fig. 11), both at
t = 1.0 with uniform data, and writes the performance plots next to
this script as SVG files.

The federated engine realizes the processes exactly as Fig. 9 describes:
message-stream types as queue tables with AFTER INSERT triggers,
time-event types as stored procedures — you can inspect the deployed
catalog afterwards.

Run with::

    python examples/federated_dbms_run.py
"""

import pathlib

from repro.parallel import RunSpec, client_from_spec

OUT_DIR = pathlib.Path(__file__).parent


def run_experiment(datasize: float, periods: int = 3):
    client = client_from_spec(RunSpec(
        engine="federated", datasize=datasize, time=1.0,
        periods=periods, seed=42,
        jitter=0.2,  # the paper used a wireless LAN
    ))
    result = client.run()
    return result, client, client.engine


def main() -> None:
    for datasize, figure in ((0.05, "fig10"), (0.1, "fig11")):
        result, client, engine = run_experiment(datasize)
        title = (
            f"DIPBench Performance Plot [sfTime=1.0, sfDatasize={datasize}]"
        )
        print()
        print(client.monitor.performance_plot(title=title, width=52))
        svg_path = OUT_DIR / f"{figure}_federated_d{datasize}.svg"
        client.monitor.save_plot(str(svg_path), title)
        print(f"(plot written to {svg_path})")

        # A peek at the Fig. 9 realization: the queue tables that
        # received this run's messages.
        depths = {
            pid: engine.queue_depth(pid)
            for pid in ("P01", "P02", "P04", "P08", "P10")
        }
        print(f"queue-table depths after the run: {depths}")
        assert result.verification.ok, result.verification.summary()


if __name__ == "__main__":
    main()
