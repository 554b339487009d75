"""Guards: one reference, one ladder, no switches.

Rung selection in ``repro.db`` depends only on what the code observes;
these tests fail if a user-settable tier switch (callable, environment
variable, constructor parameter) comes back, or if the oracle stops
being independent of the code it checks.
"""

import ast
import inspect
import pathlib

from repro.db import fastpath, vector
from repro.engine import ENGINES
from repro.scenario import build_processes, build_scenario
from tests.oracle import relational as oracle


def test_fastpath_exports_no_callable_switch():
    functions = [
        name
        for name, value in vars(fastpath).items()
        if inspect.isfunction(value) and value.__module__ == fastpath.__name__
    ]
    assert functions == []


def test_vector_reads_no_environment_variable():
    tree = ast.parse(inspect.getsource(vector))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "os" not in imported and "environ" not in imported
    assert "getenv" not in inspect.getsource(vector)


def test_engine_constructors_take_no_tier_parameter():
    for engine_class in ENGINES.values():
        assert "batch_threshold" not in inspect.signature(engine_class).parameters


def test_engines_in_one_process_share_no_tier_state():
    gate = vector.BATCH_THRESHOLD
    for engine_class in ENGINES.values():
        registry = build_scenario().registry
        engine_class(registry).deploy_all(build_processes().values())
        assert vector.BATCH_THRESHOLD == gate
    setters = [name for name in vars(vector) if name.startswith("set_")]
    assert setters == []


def test_oracle_is_independent_of_the_code_it_checks():
    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    forbidden = {
        "repro.db.relation",
        "repro.db.table",
        "repro.db.vector",
        "repro.db.partition",
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in forbidden
            if node.module == "repro.db":
                assert not {a.name for a in node.names} & {
                    "relation", "table", "vector", "partition"
                }
        elif isinstance(node, ast.Import):
            assert not {a.name for a in node.names} & forbidden
        elif isinstance(node, ast.Attribute):
            assert node.attr != "compile", "the oracle must only evaluate()"
