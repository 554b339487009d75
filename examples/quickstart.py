"""Quickstart: run DIPBench end-to-end in under a minute.

Describes one run as a ``RunSpec``: the MTM interpreter engine, a few
benchmark periods at the paper's reference configuration (d = 0.05,
t = 1.0, uniform data) and a jittered network.  The client built from
it deploys the 15 benchmark process types on the Fig. 1 system
landscape, runs the periods, verifies the integrated data, and prints
the NAVG+ metrics and the performance plot.

Run with::

    python examples/quickstart.py
"""

from repro.parallel import RunSpec, client_from_spec


def main() -> None:
    # 1. The run: the system under test and its worker pool, the three
    #    scale factors, the periods, the seed and the network jitter.
    spec = RunSpec(
        engine="interpreter", engine_workers=4,
        datasize=0.05, time=1.0, distribution=0,
        periods=3, seed=42, jitter=0.1,
    )

    # 2. The toolsuite client wires the system landscape (11 databases
    #    + 3 web services on host ES, a simulated network to the
    #    integration host IS) and the engine, then runs phases
    #    pre -> work (N periods) -> post.
    client = client_from_spec(spec)
    result = client.run()

    # 3. Phase post: functional verification of the integrated data.
    print(result.verification.summary())
    print()

    # 4. The performance metrics (NAVG+ per process type, in tu).
    print(result.metrics.as_table())
    print()
    print(client.monitor.performance_plot(width=56))

    print()
    print(
        f"executed {result.total_instances} process instances over "
        f"{result.periods} periods on the {result.engine_name} engine "
        f"({result.error_instances} failures)"
    )


if __name__ == "__main__":
    main()
