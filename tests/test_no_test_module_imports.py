"""No test module imports another: what two of them share lives in
`tests/oracles.py`, so each runs alone and in any order."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def _test_module_imports(source: str):
    """(module, line) of each import of a `test_*` module."""
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        yield from ((name, node.lineno) for name in names if name.startswith("test_"))


def test_no_test_module_imports_another():
    both_forms = "import test_a\nfrom test_b import x\nfrom oracles import y\nimport pytest\n"
    assert list(_test_module_imports(both_forms)) == [("test_a", 1), ("test_b", 2)]
    found = [f"{path.name}:{line} {name}" for path in sorted(TESTS.glob("*.py"))
             for name, line in _test_module_imports(path.read_text())]
    assert not found, f"test modules importing test modules: {found}"
