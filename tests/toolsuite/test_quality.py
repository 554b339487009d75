"""Data-quality metrics across the integration layers."""

import pytest

from repro.parallel import RunSpec, client_from_spec
from repro.scenario import build_scenario
from repro.toolsuite import measure_quality
from repro.toolsuite.quality import LayerQuality, measure_layer


@pytest.fixture(scope="module")
def finished_run():
    client = client_from_spec(RunSpec(periods=1, seed=5))
    result = client.run()
    assert result.verification.ok
    return client.scenario


class TestLayerQuality:
    def test_index_is_mean_of_dimensions(self):
        q = LayerQuality("x", 1.0, 0.5, 1.0, 0.5)
        assert q.quality_index == pytest.approx(0.75)

    def test_empty_layer_has_zero_coverage(self):
        scenario = build_scenario()  # nothing loaded anywhere
        q = measure_layer(scenario, "staging", source_population=10)
        assert q.coverage == 0.0
        assert q.quality_index < 1.0

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            measure_layer(build_scenario(), "clouds")


class TestQualityGradient:
    def test_sources_are_dirty(self, finished_run):
        q = measure_layer(finished_run, "sources")
        assert q.conformance < 1.0  # planted corruption
        assert q.uniqueness < 1.0  # planted duplicates

    def test_staging_is_clean_after_p12(self, finished_run):
        q = measure_layer(finished_run, "staging")
        assert q.conformance == 1.0
        assert q.uniqueness == 1.0

    def test_warehouse_is_clean_and_consistent(self, finished_run):
        q = measure_layer(finished_run, "warehouse")
        assert q.conformance == 1.0
        assert q.referential_integrity == 1.0
        assert q.coverage > 0.9

    def test_quality_increases_along_the_pipeline(self, finished_run):
        """Section III: 'During this staging process, the data quality
        increases.'"""
        report = measure_quality(finished_run)
        assert report.monotone_quality
        assert report.sources.quality_index < report.staging.quality_index

    def test_report_table_renders(self, finished_run):
        table = measure_quality(finished_run).as_table()
        assert "sources" in table
        assert "warehouse" in table
        assert "index" in table
