"""No package module reaches into a stage schedule: none reads an
`.enumerator` attribute, and none reads `._stages` or `._snapshots` through
a name other than `self`.  Inside `staged` too, a schedule reads another
schedule only through its public queries.  And no module but `staged` and
`cylinders` imports `bisect`, so no other one keeps a stage lookup of its
own."""

from source_index import PACKAGE

INTERNALS = {"_stages", "_snapshots"}
# (module, place) of each reach into a schedule
REACHES = [(name, f"{name}:{a.line} .{a.attr}") for name, m in PACKAGE.items() for a in [*m.reads, *m.writes]
           if a.attr == "enumerator" or a.attr in INTERNALS and a.base != "self"]


def test_no_module_outside_staged_reaches_into_a_schedule():
    found = [reach for name, reach in REACHES if name != "staged.py"]
    assert not found, f"schedule internals read outside staged.py: {found}"


def test_staged_reaches_into_no_other_schedule():
    found = [reach for name, reach in REACHES if name == "staged.py"]
    assert not found, f"one schedule reads another's internals: {found}"


def test_only_the_schedule_and_trie_modules_bisect():
    # A stage lookup is `staged._Schedule`'s; `cylinders._build` bisects its
    # sorted generators.  Any other module importing bisect is a second,
    # hand-rolled schedule.
    found = [f"{name}:{line}" for name, m in PACKAGE.items() if name not in ("staged.py", "cylinders.py")
             for _, module, line in m.imports if module.split(".")[0] == "bisect"]
    assert not found, f"bisect imported outside staged.py and cylinders.py: {found}"
