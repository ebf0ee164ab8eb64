"""Every public function and public method in the package is read by name
somewhere in the package outside `__init__`: no helper lives on for tests
alone.  A name kept on purpose goes in `KEPT` with its reason."""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent

KEPT = {
    "check_requirement": "states the paper's requirement a report could print",
    "IsolationAnalysis.all_isolated": "states the paper's isolation notion a report could print",
    "random_cylinder_set": "the random material of acceptance criterion 9",
    "oracle_block_caps": "the paper's cap draw from oracle blocks, which `sweep` mirrors",
    "verify_diffunion": "the audit of the difference-union shape, beside `verify_demuth`",
    "solovay_membership_profile": "the Solovay-style membership read of either test shape",
    "Dyadic.parse": "reads the dyadic text the reports write",
    "bundled_scenarios": "lists the shipped scenario files for library users",
    "CylinderSet.intersects": "set algebra: nonempty intersection, beside is_subset",
    "CylinderSet.meets_cylinder": "set algebra: nonempty intersection with one cylinder",
}


def _defined(tree: ast.Module):
    """(qualified name, line) of each public module function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def _read(tree: ast.Module):
    """Names read as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
READ = {name for file, tree in TREES.items() if file != "__init__.py" for name in _read(tree)}


def _is_read(qualname: str) -> bool:
    return qualname.rsplit(".", 1)[-1] in READ


def test_every_public_callable_is_read_in_the_package():
    unread = [f"{file}:{line} {qualname}" for file, tree in TREES.items()
              for qualname, line in _defined(tree)
              if not _is_read(qualname) and qualname not in KEPT]
    assert not unread, f"public callables only tests read: {unread}"


def test_every_kept_name_is_still_defined_and_unread():
    # An entry whose name is gone, or is now read in the package, is stale.
    defined = {qualname for tree in TREES.values() for qualname, _ in _defined(tree)}
    assert sorted(set(KEPT) - defined) == []
    assert sorted(filter(_is_read, KEPT)) == []
