"""Per-period measured series (the Fig. 8 counterpart on real runs)."""

import pytest

from repro.parallel import RunSpec, client_from_spec


@pytest.fixture(scope="module")
def multi_period_client():
    client = client_from_spec(RunSpec(datasize=1.0, periods=3, seed=5))
    client.run(verify=False)
    return client


def period_series(client, process_id):
    """Per-period (period, completed instances, mean normalized cost)."""
    own = client.monitor.records.where("process_id", lambda p: p == process_id)
    by_period = own.where("status", lambda s: s == "ok").groups("period")
    return [
        (period, len(records), sum(records.normalized_costs()) / len(records))
        for period, records in sorted(by_period.items())
    ]


class TestPeriodSeries:
    def test_p01_instance_count_decreases(self, multi_period_client):
        """Fig. 8 left, measured: the decreasing master-data series."""
        series = period_series(multi_period_client, "P01")
        periods = [p for p, _, _ in series]
        counts = [n for _, n, _ in series]
        assert periods == [0, 1, 2]
        assert counts[0] >= counts[-1]
        # At d=1.0 the formula gives floor((100-k)/2)+1 instances.
        assert counts[0] == 51
        assert counts[2] == 50

    def test_e2_types_once_per_period(self, multi_period_client):
        series = period_series(multi_period_client, "P13")
        assert [n for _, n, _ in series] == [1, 1, 1]

    def test_costs_positive(self, multi_period_client):
        for _, _, navg in period_series(multi_period_client, "P04"):
            assert navg > 0

    def test_unknown_type_empty(self, multi_period_client):
        assert period_series(multi_period_client, "P99") == []
