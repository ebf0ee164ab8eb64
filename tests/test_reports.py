"""Report cells: `render_field` against the isinstance chain it replaced.

`reference_render_field` is the renderer as it was before its exact-type
dispatch: one isinstance chain, a `BitString` built per generator of a
`CylinderSet`.  It is the oracle every cell must match byte for byte.
"""

from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.bitstring import BitString
from randlab.cylinders import EMPTY_SET, FULL_SET, CylinderSet
from randlab.dyadic import Dyadic
from randlab.fireworks import Outcome
from randlab.reports import csv_text, render_field


def reference_render_field(v: object) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (BitString, Dyadic)):
        return str(v)
    if isinstance(v, CylinderSet):
        return "|".join(str(s) for s in v.strings)
    if isinstance(v, (tuple, list)):
        return "|".join(reference_render_field(x) for x in v)
    if v is None:
        return "-"
    return str(v)


class Pair(NamedTuple):
    left: object
    right: object


bits = st.text(alphabet="01", max_size=6)
bitstrings = bits.map(BitString)
dyadics = st.builds(Dyadic, st.integers(-300, 300), st.integers(0, 12))
cylinder_sets = (st.sampled_from([EMPTY_SET, FULL_SET])
                 | st.lists(bits, max_size=6).map(CylinderSet.normalize))
scalars = (st.booleans() | st.integers() | st.text(max_size=8) | st.none() | bitstrings
           | dyadics | cylinder_sets | st.sampled_from(Outcome))
cells = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.builds(Pair, inner, inner)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(cells)
def test_render_field_matches_the_isinstance_chain(cell):
    assert render_field(cell) == reference_render_field(cell)


@given(st.lists(st.lists(cells, min_size=2, max_size=2), max_size=5))
def test_csv_rows_match_the_isinstance_chain(rows):
    want = csv_text(["a", "b"], [[reference_render_field(v) for v in row] for row in rows])
    assert csv_text(["a", "b"], rows) == want


def test_edge_cells():
    assert [render_field(v) for v in (True, False, None, 0, "", BitString(), EMPTY_SET,
                                      FULL_SET, (), [(), []])] == [
        "yes", "no", "-", "0", "", "^", "", "^", "", "|"]
    assert render_field(CylinderSet.normalize(["01", "1", "00"])) == "^"
    assert render_field(CylinderSet.normalize(["010", "011", "1"])) == "01|1"
    assert render_field(CylinderSet.normalize(["011", "1"])) == "011|1"
    assert render_field(Pair(True, Outcome.ACTIVE_FAILURE)) == "yes|Outcome.ACTIVE_FAILURE"


@given(st.lists(bits, max_size=8))
def test_cylinder_bits_spell_its_strings(generators):
    cs = CylinderSet.normalize(generators)
    assert cs.bits == [s.bits for s in cs.strings]
