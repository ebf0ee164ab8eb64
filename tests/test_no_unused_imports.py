"""Every name a package module imports is used in it (or, in `__init__`,
re-exported through `__all__`)."""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent


def _imported(tree: ast.Module):
    """(bound name, line) for each import; `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module):
    """Names read anywhere, also inside string annotations like "ObjectTable"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(inner) if isinstance(n, ast.Name))


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def test_package_imports_only_what_it_uses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = set(_used(tree)) | set(_exported(tree))
        found += [f"{path.name}:{line} {name}" for name, line in _imported(tree)
                  if name not in used]
    assert not found, f"unused imports: {found}"
