"""Invariant checks must survive `python -O`, which strips `assert`: in the
package, and in `tests/oracles.py`, whose asserts pytest does not rewrite."""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"


def test_package_has_no_assert_statements():
    found = []
    for path in [*sorted(PACKAGE.glob("*.py")), ORACLES]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements (stripped by -O): {found}"
