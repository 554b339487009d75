"""Seeded value distributions for the Initializer.

All distributions draw from their own :class:`random.Random` so data sets
are reproducible per (distribution, seed) and independent of each other.
The benchmark's scale factor f selects the distribution family:

* ``f = 0`` — uniform (the paper's reference experiments),
* ``f = 1`` — zipf-skewed values (hot keys dominate),
* ``f = 2`` — normal (values cluster around the middle of the domain),
* ``f = 3`` — exponential (heavy head, long tail).
"""

from __future__ import annotations

import bisect
import math
import random
from abc import ABC, abstractmethod
from typing import Sequence, TypeVar

from repro.errors import ScaleFactorError

T = TypeVar("T")


class Distribution(ABC):
    """A reproducible source of values over integer and float domains."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.seed = seed

    @abstractmethod
    def sample_unit(self) -> float:
        """Draw one value in [0, 1)."""

    def sample_int(self, lo: int, hi: int) -> int:
        """Draw an integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ScaleFactorError(f"empty integer domain [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + min(int(self.sample_unit() * span), span - 1)

    def sample_float(self, lo: float, hi: float) -> float:
        """Draw a float in [lo, hi)."""
        if hi < lo:
            raise ScaleFactorError(f"empty float domain [{lo}, {hi})")
        return lo + self.sample_unit() * (hi - lo)

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item; skewed distributions favour early positions."""
        if not items:
            raise ScaleFactorError("choice over an empty sequence")
        return items[self.sample_int(0, len(items) - 1)]

class UniformDistribution(Distribution):
    """Plain uniform values (scale factor f = 0)."""

    def sample_unit(self) -> float:
        return self._rng.random()


class ZipfDistribution(Distribution):
    """Zipf-skewed values over a rank domain (scale factor f = 1).

    ``sample_unit`` maps ranks back to [0, 1): rank 1 (most popular) maps
    to 0.0, so ``sample_int(lo, hi)`` makes low keys hot — the skew the
    UNION DISTINCT and cleansing ablations care about.
    """

    def __init__(self, seed: int = 0, alpha: float = 1.2, domain: int = 1000):
        super().__init__(seed)
        if alpha <= 0:
            raise ScaleFactorError(f"zipf alpha must be positive: {alpha}")
        if domain < 1:
            raise ScaleFactorError(f"zipf domain must be >= 1: {domain}")
        self.alpha = alpha
        self.domain = domain
        weights = [1.0 / (rank**alpha) for rank in range(1, domain + 1)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cdf = cumulative

    def sample_unit(self) -> float:
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        # Spread within the rank's cell so float domains stay continuous.
        return (rank + self._rng.random()) / self.domain


class NormalDistribution(Distribution):
    """Normal values clipped to [0, 1), centred at 0.5 (f = 2)."""

    def __init__(self, seed: int = 0, sigma: float = 0.15):
        super().__init__(seed)
        if sigma <= 0:
            raise ScaleFactorError(f"sigma must be positive: {sigma}")
        self.sigma = sigma

    def sample_unit(self) -> float:
        value = self._rng.gauss(0.5, self.sigma)
        return min(max(value, 0.0), math.nextafter(1.0, 0.0))


class ExponentialDistribution(Distribution):
    """Exponential values mapped into [0, 1) (f = 3)."""

    def __init__(self, seed: int = 0, rate: float = 4.0):
        super().__init__(seed)
        if rate <= 0:
            raise ScaleFactorError(f"rate must be positive: {rate}")
        self.rate = rate

    def sample_unit(self) -> float:
        # Inverse-CDF of a truncated exponential on [0, 1).
        u = self._rng.random()
        truncation = 1.0 - math.exp(-self.rate)
        return -math.log(1.0 - u * truncation) / self.rate


_FAMILIES = {
    0: UniformDistribution,
    1: ZipfDistribution,
    2: NormalDistribution,
    3: ExponentialDistribution,
}


def make_distribution(f: int, seed: int = 0) -> Distribution:
    """Build the distribution selected by scale factor ``f``."""
    try:
        family = _FAMILIES[f]
    except KeyError:
        raise ScaleFactorError(
            f"distribution scale factor must be one of {sorted(_FAMILIES)}, got {f}"
        ) from None
    return family(seed)
