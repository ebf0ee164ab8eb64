"""No package module reaches into a stage schedule: none reads an
`.enumerator` attribute, and none reads `._stages` or `._snapshots` through
a name other than `self`.  Inside `staged` too, a schedule reads another
schedule only through its public queries."""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent
INTERNALS = {"_stages", "_snapshots"}


def _reaches_in(tree: ast.Module):
    """(line, attribute) of each reach into a schedule."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        through_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if node.attr == "enumerator" or (node.attr in INTERNALS and not through_self):
            yield node.lineno, node.attr


def test_no_module_outside_staged_reaches_into_a_schedule():
    found = [f"{path.name}:{line} .{attr}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "staged.py"
             for line, attr in _reaches_in(ast.parse(path.read_text(), str(path)))]
    assert not found, f"schedule internals read outside staged.py: {found}"


def test_staged_reaches_into_no_other_schedule():
    path = PACKAGE / "staged.py"
    found = [f"{path.name}:{line} .{attr}"
             for line, attr in _reaches_in(ast.parse(path.read_text(), str(path)))]
    assert not found, f"one schedule reads another's internals: {found}"
