"""Shared fixtures: a small scenario, engines, populations, factories.

The ``--update-golden`` option and its ``update_golden`` fixture live in
the repo-root ``conftest.py`` so ``benchmarks/`` shares them.
"""

from __future__ import annotations

import pytest

from repro.datagen.generators import GeneratorProfile
from repro.engine import FederatedEngine, MtmInterpreterEngine
from repro.scenario import build_processes, build_scenario
from repro.scenario.messages import MessageFactory
from repro.toolsuite import Initializer


@pytest.fixture()
def scenario():
    """A freshly built Fig. 1 landscape (empty systems)."""
    return build_scenario()


@pytest.fixture()
def small_profile():
    """A tiny generator profile for fast unit tests."""
    return GeneratorProfile(
        customers_base=60, products_base=40, orders_base=80,
        duplicate_rate=0.1, corruption_rate=0.1,
    )


@pytest.fixture()
def initialized(scenario, small_profile):
    """(scenario, population) with one period of source data planted."""
    initializer = Initializer(scenario, d=1.0, f=0, seed=7, profile=small_profile)
    population = initializer.initialize_sources(0)
    return scenario, population


@pytest.fixture()
def engine(scenario):
    """An interpreter engine with all benchmark processes deployed."""
    eng = MtmInterpreterEngine(scenario.registry)
    eng.deploy_all(build_processes().values())
    return eng


@pytest.fixture()
def federated(scenario):
    eng = FederatedEngine(scenario.registry)
    eng.deploy_all(build_processes().values())
    return eng


@pytest.fixture()
def factory(initialized):
    _, population = initialized
    return MessageFactory(population, seed=3, error_rate=0.3)
