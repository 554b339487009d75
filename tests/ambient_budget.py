"""Pytest plugin: every database a test creates gets a tiny memory budget.

    PYTHONPATH=src python -m pytest -p tests.ambient_budget \\
        tests/db/test_fastpath_equivalence.py

Each ``Database`` is budgeted at :data:`BUDGET_ROWS` resident rows as it
is constructed, so the suites it is loaded into run over store-backed
tables — evictions, reloads, stream-probe and grace joins inside every
test — and must pass unchanged: the spill tier is physical, results are
identical at any budget.  A run spec's own ``mem_budget`` still
replaces it on the databases ``client_from_spec`` builds.
"""

from __future__ import annotations

from repro.db.database import Database

BUDGET_ROWS = 64


def pytest_configure(config):
    unbudgeted_init = Database.__init__

    def budgeted_init(self, name):
        unbudgeted_init(self, name)
        self.set_memory_budget(BUDGET_ROWS)

    Database.__init__ = budgeted_init
    config.add_cleanup(lambda: setattr(Database, "__init__", unbudgeted_init))
