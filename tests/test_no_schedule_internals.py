"""No package module reaches into a stage schedule: none reads an
`.enumerator` attribute, and none reads `._stages` or `._snapshots` through
a name other than `self`.  Inside `staged` too, a schedule reads another
schedule only through its public queries.  And no module but `staged` and
`cylinders` imports `bisect`, so no other one keeps a stage lookup of its
own."""

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


def test_only_the_schedule_and_trie_modules_bisect():
    # A stage lookup is `staged._Schedule`'s; `cylinders._build` bisects its
    # sorted generators.  Any other module importing bisect is a second,
    # hand-rolled schedule.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("staged.py", "cylinders.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name.split(".")[0] == "bisect"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bisect":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bisect imported outside staged.py and cylinders.py: {found}"
