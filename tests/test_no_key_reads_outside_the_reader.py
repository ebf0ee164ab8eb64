"""Each scenario key is stated once, in a key table: outside the reader
(`_Keys`, `load_scenario`, `ObjectTable`, `run_scenario`), no code in
`scenario.py` makes a `_Keys` or calls one of its methods, so no handler or
builder takes a key of its own.  The experiment key table and `HANDLERS`
name the same kinds."""

from randlab import scenario
from source_index import PACKAGE

READER = {"_Keys", "load_scenario", "ObjectTable", "run_scenario"}
KEY_METHODS = {name for name in vars(scenario._Keys) if not name.startswith("__")}


def test_the_reader_has_the_methods_the_guard_looks_for():
    assert {"take", "read", "done"} <= KEY_METHODS


def test_no_handler_or_builder_reads_a_key():
    found = [f"scenario.py:{c.line} {c.text}" for c in PACKAGE["scenario.py"].calls
             if not READER.intersection(c.scopes[:1])
             and (c.text == "_Keys" or c.name in KEY_METHODS and c.text != c.name)]
    assert not found, f"keys read outside the reader: {found}"


def test_the_key_table_and_the_handlers_name_the_same_kinds():
    assert set(scenario.EXPERIMENT_KEYS) == set(scenario.HANDLERS)
