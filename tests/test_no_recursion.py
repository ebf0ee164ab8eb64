"""No function of the package calls itself, so no input depth can reach
Python's recursion limit.

`reports.render_field` is the one exception: it recurses only into the
tuples and lists of one report cell, whose nesting the report code fixes.
"""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent
ALLOWED = {("reports.py", "render_field")}


def _self_calls(fn: ast.AST, owners: set) -> list:
    """Lines where `fn` calls its own name, bare or on self, cls or its class."""
    lines = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            lines.append(node.lineno)
        elif (isinstance(f, ast.Attribute) and f.attr == fn.name
              and isinstance(f.value, ast.Name) and f.value.id in owners):
            lines.append(node.lineno)
    return lines


def test_package_functions_do_not_call_themselves():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner_of = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    owner_of[id(item)] = {"self", "cls", cls.name}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, fn.name) in ALLOWED:
                continue
            for line in _self_calls(fn, owner_of.get(id(fn), set())):
                found.append(f"{path.name}:{line} {fn.name}")
    assert not found, f"self-recursive functions: {found}"


def test_the_guard_sees_direct_and_method_recursion():
    src = ("def f(n):\n    return f(n - 1)\n"
           "class C:\n    def g(self):\n        return self.g()\n"
           "    def h(self, other):\n        return other.h()\n")
    tree = ast.parse(src)
    owner_of = {id(item): {"self", "cls", "C"} for item in tree.body[1].body}
    calls = {fn.name: _self_calls(fn, owner_of.get(id(fn), set()))
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert calls == {"f": [2], "g": [5], "h": []}
