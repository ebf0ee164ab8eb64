"""No function of the package calls itself, so no input depth can reach
Python's recursion limit.

`reports.render_field` is the one exception: it recurses only into the
tuples and lists of one report cell, whose nesting the report code fixes."""

from source_index import PACKAGE, index

ALLOWED = {("reports.py", "render_field")}


def _self_calls(m):
    """(line, function) where a function, or one nested in it, calls the
    function's name bare or, for a method, on a receiver of its class."""
    return [(c.line, fn) for c in m.calls for qualname in c.scopes
            for cls, _, fn in [qualname.rpartition(".")] if c.name == fn and m.defs[qualname][1] != "class"
            and (c.text == fn or m.defs[qualname][1] != "function" and c.receiver == cls)]


def test_package_functions_do_not_call_themselves():
    found = [f"{name}:{line} {fn}" for name, m in PACKAGE.items()
             for line, fn in _self_calls(m) if (name, fn) not in ALLOWED]
    assert not found, f"self-recursive functions: {found}"


def test_the_guard_sees_direct_and_method_recursion():
    src = ("def f(n):\n    return f(n - 1)\n"
           "class C:\n    def g(self):\n        return self.g()\n"
           "    def h(self, other):\n        return other.h()\n"
           "    def k(self):\n        return C().k()\n"
           "def outer(v):\n    def search(v):\n        return search(v)\n    return search(v)\n")
    assert sorted(_self_calls(index(src))) == [(2, "f"), (5, "g"), (9, "k"), (12, "search")]
