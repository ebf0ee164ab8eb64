"""The key tables of `scenario.py` against the README, and a fuzzer drawn
from them.

The README's object and experiment tables must list the same required
keys, optional keys and defaults as `_OBJECTS` and `EXPERIMENT_KEYS`.  The
fuzzer draws, per experiment kind and per object kind, a value of each
table key's value kind, applies at most one mutation (drop a required key,
put in a value of another kind, or add a stray key) and runs the result
through `randlab run`: the exit code is 0-3, nothing prints a traceback,
and every exit-2 message names its location.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab import scenario
from randlab.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TABLE_HEADER = "| kind | required | optional (default) |"


def _note(text: str):
    """The parenthesised text `text` starts with, nested parentheses kept, or None."""
    text = text.lstrip()
    if not text.startswith("("):
        return None
    depth = 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if depth == 0:
            return text[1:i]
    raise ValueError(f"unbalanced parentheses in {text!r}")


def _cell_keys(cell: str):
    """key -> the note right after it (or None), for each backticked key
    outside parentheses; backticked values and notes are not keys."""
    found, depth, i = {}, 0, 0
    while i < len(cell):
        c = cell[i]
        if c in "()":
            depth += 1 if c == "(" else -1
        elif c == "`":
            end = cell.index("`", i + 1)
            word = cell[i + 1:end]
            if depth == 0 and re.fullmatch(r"[a-z_]+", word):
                found[word] = _note(cell[end + 1:])
            i = end
        i += 1
    return found


def _readme_tables():
    """kind -> (required keys, optional key -> note), over every table
    with a required and an optional column."""
    kinds = {}
    lines = README.read_text().splitlines()
    for start, line in enumerate(lines):
        if line != TABLE_HEADER:
            continue
        for row in lines[start + 2:]:
            if not row.startswith("|"):
                break
            names, required, optional = (cell.strip() for cell in row.strip("|").split("|"))
            for kind in re.findall(r"`([a-z_0-9]+)`", names):
                assert kind not in kinds, f"README lists {kind} twice"
                kinds[kind] = (set(_cell_keys(required)), _cell_keys(optional))
    return kinds


def _default_text(value) -> str:
    """How the README writes a default: numbers and booleans as JSON, the rest in backticks."""
    if isinstance(value, (bool, int)):
        return json.dumps(value)
    return f"`{value if isinstance(value, str) else json.dumps(value)}`"


KEY_TABLES = {**scenario.EXPERIMENT_KEYS,
              **{kind: keys for kind, (_, keys, _) in scenario._OBJECTS.items()}}


def test_the_readme_tables_list_every_kind_once():
    assert set(_readme_tables()) == set(KEY_TABLES)


@pytest.mark.parametrize("kind", sorted(KEY_TABLES))
def test_the_readme_states_the_keys_and_defaults_of_the_key_table(kind):
    required, optional = _readme_tables()[kind]
    assert required == {entry[0] for entry in KEY_TABLES[kind] if len(entry) == 2}
    defaults = {key: default for key, _, default in (e for e in KEY_TABLES[kind] if len(e) == 3)}
    assert set(optional) == set(defaults)
    for key, default in defaults.items():
        if default is not None:
            assert (optional[key] or "").startswith(_default_text(default)), (key, optional[key])


# One object of each kind, for the drawn experiments to name.
OBJECTS = {
    "enumerators": {"w": {"events": [[1, ["1"]]], "horizon": 2}},
    "open_sets": {"a": {"events": [[0, ["0"]]], "horizon": 2}},
    "functionals": {"f": {"events": [[0, [["0", "1"]]]], "horizon": 2}},
    "trees": {"t": {"depth": 9, "horizon": 2}},
    "demuth_tests": {"d": {"horizon": 2, "version_bounds": [1], "levels": [[[0, "a"]]]}},
    "diff_tests": {"u": {"horizon": 2, "pair_bounds": [1], "levels": [[["a", "a"]]]}},
}
# The objects a key names, so that most draws name one of the right kind; any other
# name key may name any object.  "ghost" names none.
REFS = {"adversaries": ["w"], "test": ["d", "u"], "tree": ["t"], "phi": ["f"], "psi": ["f"],
        "levels": ["a"]}
ALL_NAMES = sorted(name for specs in OBJECTS.values() for name in specs)

# Largest value drawn for a key, so that a valid draw runs at once; 4 for any other key.
SIZES = {"count": 2, "horizon": 12, "positions": 10, "depth": 30, "all_up_to": 3}

BITS = st.text(alphabet="01", max_size=3).map(lambda bits: bits or "^")


def _value(kind: str, key: str):
    """A value of `kind` that its check accepts, sized for `key`."""
    hi = SIZES.get(key, 4)
    names = st.sampled_from(REFS.get(key, ALL_NAMES) + ["ghost"])
    small = st.lists(st.integers(-1, 4), max_size=2)
    events = st.lists(st.tuples(st.integers(-1, hi), st.lists(BITS, max_size=2)).map(list), max_size=3)
    return {
        "int": st.integers(-1, hi),
        "nat": st.integers(0, hi),
        "positive": st.integers(1, hi),
        "bool": st.booleans(),
        "str": names,
        "object": st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 2), max_size=2),
        "list": small,
        "bits": BITS,
        "ints": small,
        "nats": st.lists(st.integers(0, hi), min_size=1, max_size=2),
        "names": st.lists(names, max_size=2),
        "bit_list": st.lists(BITS, min_size=1, max_size=3),
        "payloads": st.one_of(st.lists(BITS, min_size=1, max_size=3),
                              st.builds(lambda n: {"all_up_to": n}, st.integers(0, SIZES["all_up_to"]))),
        "direction": st.sampled_from(list(scenario._CONVERSIONS)),
        "events": events,
        "axiom_events": st.lists(st.tuples(st.integers(-1, hi), st.lists(
            st.tuples(BITS, BITS).map(list), max_size=2)).map(list), max_size=3),
        "version_levels": st.lists(st.lists(st.tuples(st.integers(-1, hi), names).map(list),
                                            max_size=2), max_size=2),
        "pair_levels": st.lists(st.lists(st.tuples(names, names).map(list), max_size=2),
                                max_size=2),
    }[kind]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(scenario._KINDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _value(kind, "key"))))
def test_the_fuzzer_draws_valid_values_of_every_value_kind(drawn):
    kind, value = drawn
    assert scenario._KINDS[kind][0](value), drawn


def test_the_direction_kind_names_the_conversions():
    # The check and the CLI's choices read `_CONVERSIONS`; the message states its keys.
    assert scenario._KINDS["direction"][1] == " or ".join(map(repr, scenario._CONVERSIONS))


MUTATIONS = ("none", "drop", "swap", "stray")


@st.composite
def mutated(draw, entries):
    """The keys of `entries`, each optional one present or not, with at most one mutation."""
    spec = {}
    for key, kind, *default in entries:
        if not default or draw(st.booleans()):
            spec[key] = draw(_value(kind, key))
    mutation = draw(st.sampled_from(MUTATIONS))
    required = [entry[0] for entry in entries if len(entry) == 2]
    if mutation == "drop" and required:
        del spec[draw(st.sampled_from(required))]
    elif mutation == "swap" and entries:
        key, kind, *_ = draw(st.sampled_from(entries))
        other = draw(st.sampled_from(sorted(set(scenario._KINDS) - {kind})))
        spec[key] = draw(_value(other, key))
    elif mutation == "stray":
        spec["stray"] = draw(_value("int", "stray"))
    return spec


@st.composite
def experiment_docs(draw, kind):
    params = draw(mutated(scenario.EXPERIMENT_KEYS[kind]))
    return {"name": "fuzz", "objects": OBJECTS,
            "experiments": [dict(params, name="e", kind=kind)]}


@st.composite
def object_docs(draw, kind):
    _, entries, _ = scenario._OBJECTS[kind]
    name = next(iter(OBJECTS[kind]))
    return {"name": "fuzz", "objects": dict(OBJECTS, **{kind: {name: draw(mutated(entries))}}),
            "experiments": []}


def _run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(pathlib.Path(tmp) / "out")])
    return code, err.getvalue()


def _check(doc):
    code, err = _run(doc)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        assert err.startswith(("error: e: ", "error: objects.")), err


FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.mark.parametrize("kind", sorted(scenario.EXPERIMENT_KEYS))
@FUZZ
@given(data=st.data())
def test_fuzzed_experiments_exit_cleanly_naming_their_location(kind, data):
    _check(data.draw(experiment_docs(kind)))


@pytest.mark.parametrize("kind", sorted(scenario._OBJECTS))
@FUZZ
@given(data=st.data())
def test_fuzzed_objects_exit_cleanly_naming_their_location(kind, data):
    _check(data.draw(object_docs(kind)))
