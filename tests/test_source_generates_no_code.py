"""No module under ``src/repro`` generates and runs code.

Every operator runs as written Python: predicates become closures over
the expression tree (``repro.db.expressions``), never source text handed
to the interpreter.  A call of the builtins ``exec``, ``eval`` or
``compile`` — or a bare reference to one, which could be called later —
fails here; ``re.compile`` and ``Expression.compile`` are attributes and
do not count.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
GENERATORS = {"exec", "eval", "compile"}


def generator_names(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every reference to a code-running builtin."""
    return sorted(
        (node.lineno, node.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in GENERATORS
    )


def test_no_module_calls_exec_eval_or_compile():
    found = [
        f"{path.relative_to(SRC.parent)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in generator_names(path.read_text("utf-8"))
    ]
    assert not found, f"src/ generates code: {found}"


def test_the_check_sees_a_call_and_a_bare_reference():
    source = "x = eval('1')\nexec(code)\nf = compile\nre.compile('a')\n"
    assert generator_names(source) == [(1, "eval"), (2, "exec"), (3, "compile")]
