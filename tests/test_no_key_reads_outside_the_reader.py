"""Each scenario key is stated once, in a key table: outside the reader
(`_Keys`, `load_scenario`, `ObjectTable`, `run_scenario`), no code in
`scenario.py` makes a `_Keys` or calls one of its methods, so no handler or
builder takes a key of its own.  The experiment key table and `HANDLERS`
name the same kinds."""

import ast
import pathlib

from randlab import scenario

PATH = pathlib.Path(scenario.__file__)
READER = {"_Keys", "load_scenario", "ObjectTable", "run_scenario"}
KEY_METHODS = {name for name in vars(scenario._Keys) if not name.startswith("__")}


def _key_reads(tree: ast.Module):
    """(line, call) of each `_Keys(...)` or `.take(...)`-like call outside the reader."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in READER:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == "_Keys"
                    or isinstance(func, ast.Attribute) and func.attr in KEY_METHODS):
                yield call.lineno, ast.unparse(func)


def test_the_reader_has_the_methods_the_guard_looks_for():
    assert {"take", "read", "done"} <= KEY_METHODS


def test_no_handler_or_builder_reads_a_key():
    found = [f"{PATH.name}:{line} {func}"
             for line, func in _key_reads(ast.parse(PATH.read_text(), str(PATH)))]
    assert not found, f"keys read outside the reader: {found}"


def test_the_key_table_and_the_handlers_name_the_same_kinds():
    assert set(scenario.EXPERIMENT_KEYS) == set(scenario.HANDLERS)
