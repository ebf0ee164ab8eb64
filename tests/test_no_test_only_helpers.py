"""Every public function and public method in the package is read somewhere
in the package outside `__init__`: no helper lives on for tests alone.  A
name kept on purpose goes in `KEPT` with its reason.

A function is read by its bare name or by an attribute of that name.  A
method is read by an attribute of its name that is called, whose receiver
resolves to its class, or that no package class holds as data; a property,
by any attribute of its name."""

from source_index import PACKAGE, index

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
    "kucera_depth": "the paper's branching length, exported; the walks read it off the fork",
    "Pi01Tree.leftmost_intact": "a stage query the benchmark's tracer names (STAGED_QUERIES)",
    "Pi01Tree.rightmost_intact": "a stage query the benchmark's tracer names (STAGED_QUERIES)",
}


def _unread(modules):
    """qualified name -> place of each public function and method no module but `__init__` reads."""
    reads = [r for m in modules if m.name != "__init__.py" for r in m.reads]
    names = {name for m in modules if m.name != "__init__.py" for name in m.names}
    data = {name for m in modules for name in m.data}
    attrs, called = {r.attr for r in reads}, {r.attr for r in reads if r.called}
    resolved = {(r.receiver, r.attr) for r in reads}

    def is_read(qualname, kind):
        cls, _, name = qualname.rpartition(".")
        if kind == "function":
            return name in names or name in attrs
        return (name in called or (cls, name) in resolved
                or name in attrs and (kind == "property" or name not in data))

    # module functions and methods of module-level classes, with no private part in the name
    return {qualname: f"{m.name}:{line}" for m in modules for qualname, (line, kind) in m.defs.items()
            if kind != "class" and qualname.count(".") == (kind != "function")
            and "_" not in {part[0] for part in qualname.split(".")} and not is_read(qualname, kind)}


UNREAD = _unread(list(PACKAGE.values()))


def test_every_public_callable_is_read_in_the_package():
    unread = [f"{place} {qualname}" for qualname, place in UNREAD.items() if qualname not in KEPT]
    assert not unread, f"public callables only tests read: {unread}"


def test_every_kept_name_is_still_defined_and_unread():
    # An entry whose name is gone, or is now read in the package, is stale.
    assert sorted(set(KEPT) - set(UNREAD)) == []


def test_the_guard_sees_a_method_named_like_a_data_attribute():
    # `node.one` reads the slot and the local `one` is no method, so `Dyadic.one` is
    # unread; `zero` is read through its class, `hash` through a local bound to a `Dyadic`.
    src = ("class _Node:\n    __slots__ = ('zero', 'one', 'hash')\n"
           "class Dyadic:\n    def one(self):\n        return Dyadic(1)\n"
           "    def zero(self):\n        return Dyadic(0)\n"
           "    def hash(self):\n        return 0\n"
           "def _size(node):\n    one = node.one\n    d = Dyadic(2)\n"
           "    return one, node.zero, node.hash, Dyadic.zero, d.hash\n")
    assert list(_unread([index(src)])) == ["Dyadic.one"]
