"""No test module imports another: what two of them share lives in
`tests/oracles.py`, so each runs alone and in any order."""

from source_index import TESTS, index


def _test_module_imports(m):
    """(module, line) of each import of a `test_*` module."""
    return sorted({(module, line) for _, module, line in m.imports if module.startswith("test_")})


def test_no_test_module_imports_another():
    both_forms = "import test_a\nfrom test_b import x\nfrom oracles import y\nimport pytest\n"
    assert _test_module_imports(index(both_forms)) == [("test_a", 1), ("test_b", 2)]
    found = [f"{name}:{line} {module}" for name, m in TESTS.items()
             for module, line in _test_module_imports(m)]
    assert not found, f"test modules importing test modules: {found}"
