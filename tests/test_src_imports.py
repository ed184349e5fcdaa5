"""``src/repro`` never imports the test tree.

An ``import tests...`` resolves when commands run from the repository
root but breaks an installed package, and would put the per-event
reference engines back on the production path.  Every module is parsed,
so imports inside functions count too.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imports_tests(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "tests" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "tests"
    return False


def test_src_never_imports_tests():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_tests(node)
    ]
    assert offenders == []
