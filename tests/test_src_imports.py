"""``src/repro`` never imports the test tree, and has one entry point.

An ``import tests...`` resolves when commands run from the repository
root but breaks an installed package, and would put the per-event
reference engines back on the production path.  Every module is parsed,
so imports inside functions count too.

The CLI is the only runnable module: a second ``if __name__ ==
"__main__"`` block would be a side harness with flags of its own.
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


def _is_main_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    sides = [node.test.left, *node.test.comparators]
    names = {side.id for side in sides if isinstance(side, ast.Name)}
    constants = {side.value for side in sides if isinstance(side, ast.Constant)}
    return "__name__" in names and "__main__" in constants


def test_cli_is_the_only_main_module():
    runnable = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if any(
            _is_main_guard(node)
            for node in ast.parse(path.read_text(), filename=str(path)).body
        )
    ]
    assert runnable == ["repro/cli.py"]
