"""The conclusion matrix's witness table and its rendering: which runs
resolve which cell, and what the matrix text cites."""

import pytest

from randlab.reports import COLS, ROWS, UNRESOLVED, WITNESSES, RunFact, interaction_text
from randlab.scenario import HANDLERS


def _grid(text):
    """(row, column) -> label, read off the matrix lines of the text."""
    lines = text.splitlines()
    return {(line.split()[0], col): label for line in lines[2:2 + len(ROWS)]
            for col, label in zip(COLS, line.split()[1:])}


def _cited(text):
    return [line for line in text.splitlines() if line.startswith("  (")]


def test_every_witness_is_a_handled_kind_on_the_matrix():
    assert set(WITNESSES) <= set(HANDLERS)
    for row, col, label, note in WITNESSES.values():
        assert row in ROWS and col in COLS
        assert label != UNRESOLVED and note


def test_no_run_leaves_every_cell_unresolved():
    text = interaction_text([])
    assert text.splitlines()[0].split() == ["notion", *COLS]
    assert _grid(text) == {(r, c): UNRESOLVED for r in ROWS for c in COLS}
    assert "witnesses:" not in text


@pytest.mark.parametrize("kind", sorted(WITNESSES))
def test_a_clean_run_resolves_its_cell_and_a_failed_one_none(kind):
    row, col, label, note = WITNESSES[kind]
    clean = interaction_text([RunFact("a", kind, None, ("a.csv",))])
    assert _grid(clean)[row, col] == label
    assert sum(v != UNRESOLVED for v in _grid(clean).values()) == 1
    assert _cited(clean) == [f"  ({row}, {col}): {label} <- a.csv  [{note}]"]
    failed = interaction_text([RunFact("a", kind, "a.csv row 1 ok", ("a.csv",))])
    assert failed == interaction_text([])


def test_kinds_off_the_table_resolve_nothing():
    runs = [RunFact(kind, kind, None, (f"{kind}.csv",)) for kind in sorted(set(HANDLERS) - set(WITNESSES))]
    assert interaction_text(runs) == interaction_text([])


def test_the_last_clean_run_of_a_cell_wins():
    runs = [RunFact("first", "kg_roundtrip", None, ("first.csv",)),
            RunFact("second", "kg_sweep", None, ("second.csv", "second_x.csv")),
            RunFact("broken", "kg_sweep", "broken.csv row 2 failures", ("broken.csv",))]
    cited, = _cited(interaction_text(runs))
    assert "<- second.csv, second_x.csv  [" in cited


def test_a_resolving_run_without_artifacts_is_refused():
    with pytest.raises(ValueError, match="^w: a resolved cell must cite at least one artifact$"):
        interaction_text([RunFact("w", "w2r", None, ())])
    # A failed run resolves nothing, so it needs no artifact.
    assert interaction_text([RunFact("w", "w2r", "w.csv row 1 match", ())]) == interaction_text([])
