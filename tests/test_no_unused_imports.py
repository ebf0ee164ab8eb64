"""Every name a package module or a helper module under `tests/` imports is
used in it: read by name, also inside a string annotation like
"ObjectTable", or, in `__init__`, re-exported through `__all__`."""

from source_index import HELPERS, PACKAGE


def test_package_imports_only_what_it_uses():
    found = [f"{name}:{line} {bound}" for name, m in {**PACKAGE, **HELPERS}.items()
             for bound, _, line in m.imports if bound not in {*m.names, *m.annotated, *m.exported}]
    assert not found, f"unused imports: {found}"
