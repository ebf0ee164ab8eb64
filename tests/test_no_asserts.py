"""Invariant checks must survive `python -O`, which strips `assert`: in the
package, and in the helper modules under `tests/`, whose asserts pytest does
not rewrite."""

from source_index import HELPERS, PACKAGE


def test_package_has_no_assert_statements():
    found = [f"{name}:{line}" for name, m in {**PACKAGE, **HELPERS}.items() for line in m.asserts]
    assert not found, f"assert statements (stripped by -O): {found}"
