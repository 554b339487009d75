"""The exception hierarchy and the plotting module."""

import pytest

from repro import errors
from repro.engine.base import InstanceRecord
from repro.engine.costs import CostBreakdown
from repro.metrics.navg import compute_metrics
from repro.toolsuite.plotting import performance_plot_ascii, performance_plot_svg


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        leaves = [
            errors.SchemaError, errors.IntegrityError, errors.QueryError,
            errors.ProcedureError, errors.XmlParseError,
            errors.XsdValidationError, errors.StxError, errors.XPathError,
            errors.EndpointNotFound, errors.OperationNotSupported,
            errors.NetworkError, errors.ProcessDefinitionError,
            errors.ProcessRuntimeError, errors.ValidationError,
            errors.DeploymentError, errors.VerificationError,
            errors.ScaleFactorError,
        ]
        for leaf in leaves:
            assert issubclass(leaf, errors.ReproError)

    def test_domain_bases(self):
        assert issubclass(errors.IntegrityError, errors.DatabaseError)
        assert issubclass(errors.StxError, errors.XmlError)
        assert issubclass(errors.NetworkError, errors.ServiceError)
        assert issubclass(errors.ValidationError, errors.MtmError)
        assert issubclass(errors.ScaleFactorError, errors.BenchmarkError)

    def test_validation_errors_carry_violations(self):
        error = errors.ValidationError("bad", ["v1", "v2"])
        assert error.violations == ["v1", "v2"]
        assert errors.XsdValidationError("bad").violations == []

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.EndpointNotFound("gone")


def _record(pid, total, iid):
    return InstanceRecord(
        instance_id=iid, process_id=pid, period=0, stream="A",
        arrival=0.0, start=0.0, completion=total,
        costs=CostBreakdown(processing=total),
    )


class TestPlotting:
    def _report(self):
        return compute_metrics([
            _record("P01", 10.0, 1), _record("P01", 12.0, 2),
            _record("P13", 200.0, 3),
        ])

    def test_ascii_scales_to_peak(self):
        plot = performance_plot_ascii(self._report(), width=40)
        lines = plot.splitlines()
        p13_bar = next(l for l in lines if l.startswith("P13"))
        p01_bar = next(l for l in lines if l.startswith("P01"))
        assert p13_bar.count("#") > p01_bar.count("#")
        assert p13_bar.count("#") == 40  # the peak fills the width

    def test_ascii_orders_numerically(self):
        report = compute_metrics([
            _record("P10", 1.0, 1), _record("P02", 1.0, 2),
        ])
        plot = performance_plot_ascii(report)
        assert plot.index("P02") < plot.index("P10")

    def test_svg_contains_labels_and_values(self):
        svg = performance_plot_svg(self._report())
        assert "P01" in svg and "P13" in svg
        assert "200.0" in svg
