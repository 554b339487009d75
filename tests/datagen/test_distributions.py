"""Value distributions: determinism, ranges, skew (with hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.distributions import (
    ExponentialDistribution,
    NormalDistribution,
    UniformDistribution,
    ZipfDistribution,
    make_distribution,
)
from repro.errors import ScaleFactorError

ALL_FAMILIES = [
    UniformDistribution,
    ZipfDistribution,
    NormalDistribution,
    ExponentialDistribution,
]


class TestFactory:
    @pytest.mark.parametrize("f,cls", enumerate(ALL_FAMILIES))
    def test_family_selection(self, f, cls):
        assert isinstance(make_distribution(f), cls)

    def test_unknown_factor(self):
        with pytest.raises(ScaleFactorError):
            make_distribution(9)


class TestDeterminism:
    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_same_seed_same_stream(self, cls):
        a = [cls(seed=3).sample_unit() for _ in range(1)]
        stream1 = [cls(seed=3).sample_unit() for _ in range(1)]
        dist1, dist2 = cls(seed=5), cls(seed=5)
        assert [dist1.sample_unit() for _ in range(20)] == [
            dist2.sample_unit() for _ in range(20)
        ]

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_different_seed_different_stream(self, cls):
        dist1, dist2 = cls(seed=1), cls(seed=2)
        assert [dist1.sample_unit() for _ in range(10)] != [
            dist2.sample_unit() for _ in range(10)
        ]


class TestRanges:
    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_unit_interval(self, cls):
        dist = cls(seed=11)
        values = [dist.sample_unit() for _ in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_sample_int_inclusive_bounds(self, cls):
        dist = cls(seed=11)
        values = [dist.sample_int(3, 7) for _ in range(300)]
        assert all(3 <= v <= 7 for v in values)
        assert 3 in values and 7 in values or len(set(values)) > 1

    def test_sample_int_single_point(self):
        assert UniformDistribution(0).sample_int(4, 4) == 4

    def test_empty_int_domain(self):
        with pytest.raises(ScaleFactorError):
            UniformDistribution(0).sample_int(5, 4)

    def test_sample_float_range(self):
        dist = UniformDistribution(0)
        values = [dist.sample_float(1.0, 2.0) for _ in range(100)]
        assert all(1.0 <= v < 2.0 for v in values)

    def test_choice_empty_rejected(self):
        with pytest.raises(ScaleFactorError):
            UniformDistribution(0).choice([])


class TestSkew:
    def test_zipf_concentrates_on_low_keys(self):
        zipf = ZipfDistribution(seed=3)
        uniform = UniformDistribution(seed=3)
        zipf_low = sum(1 for _ in range(2000) if zipf.sample_int(1, 100) <= 10)
        unif_low = sum(1 for _ in range(2000) if uniform.sample_int(1, 100) <= 10)
        assert zipf_low > unif_low * 3

    def test_zipf_alpha_controls_skew(self):
        mild = ZipfDistribution(seed=3, alpha=0.5)
        harsh = ZipfDistribution(seed=3, alpha=2.0)
        mild_low = sum(1 for _ in range(2000) if mild.sample_int(1, 100) <= 5)
        harsh_low = sum(1 for _ in range(2000) if harsh.sample_int(1, 100) <= 5)
        assert harsh_low > mild_low

    def test_normal_centers(self):
        dist = NormalDistribution(seed=3)
        values = [dist.sample_unit() for _ in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55

    def test_exponential_head_heavy(self):
        dist = ExponentialDistribution(seed=3)
        values = [dist.sample_unit() for _ in range(2000)]
        assert sum(1 for v in values if v < 0.25) > len(values) * 0.5

    def test_zipf_param_validation(self):
        with pytest.raises(ScaleFactorError):
            ZipfDistribution(alpha=0)
        with pytest.raises(ScaleFactorError):
            ZipfDistribution(domain=0)

    def test_normal_param_validation(self):
        with pytest.raises(ScaleFactorError):
            NormalDistribution(sigma=0)

    def test_exponential_param_validation(self):
        with pytest.raises(ScaleFactorError):
            ExponentialDistribution(rate=0)


class TestProperties:
    @given(st.integers(0, 3), st.integers(0, 1000),
           st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=60)
    def test_sample_int_always_in_bounds(self, f, seed, lo, width):
        dist = make_distribution(f, seed)
        value = dist.sample_int(lo, lo + width)
        assert lo <= value <= lo + width
