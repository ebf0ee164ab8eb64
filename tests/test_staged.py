import pytest
from hypothesis import given
from hypothesis import strategies as st

from randlab.bitstring import EMPTY, BitString
from randlab.cylinders import CylinderSet, EMPTY_SET, FULL_SET
from randlab.errors import GuardExceeded, InconsistentFunctional, RandlabError
from randlab.staged import Enumerator, Pi01Tree, StagedOpenSet, TuringFunctional


def test_enumerator_cumulative():
    e = Enumerator([(1, ["0"]), (3, ["11", "10"])], horizon=5)
    assert e.at(0) == frozenset()
    assert e.at(1) == {BitString("0")}
    assert e.at(2) == {BitString("0")}
    assert e.at(3) == {BitString("0"), BitString("10"), BitString("11")}
    assert e.at(99) == e.final()


def test_enumerator_stage_ordering_enforced():
    with pytest.raises(RandlabError):
        Enumerator([(2, ["0"]), (2, ["1"])])
    with pytest.raises(RandlabError):
        Enumerator([(3, ["0"]), (1, ["1"])])
    with pytest.raises(RandlabError):
        Enumerator([(-1, ["0"])])


def test_enumerator_horizon_rules():
    assert Enumerator([(4, ["0"])]).horizon == 4
    assert Enumerator([], horizon=7).horizon == 7
    with pytest.raises(RandlabError):
        Enumerator([(4, ["0"])], horizon=3)


def test_first_extension_stage_picks_least_string():
    e = Enumerator([(2, ["110", "10"]), (5, ["100"])])
    assert e.first_extension_stage(BitString("1")) == (2, BitString("10"))
    assert e.first_extension_stage(BitString("100")) == (5, BitString("100"))
    assert e.first_extension_stage(BitString("0")) is None
    assert e.first_stage_of(BitString("110")) == 2
    assert e.first_stage_of(BitString("111")) is None


def test_staged_open_set_clamps():
    o = StagedOpenSet.from_events([(0, ["1"]), (2, ["01"])], horizon=4)
    assert o.open_at(-5) == EMPTY_SET
    assert o.open_at(-1) == EMPTY_SET
    assert o.open_at(0) == CylinderSet.cylinder("1")
    assert o.open_at(100) == o.final()
    assert o.final() == CylinderSet.normalize(["1", "01"])
    assert o.measure_at(2) == o.final().measure()


def test_staged_open_set_constant_and_empty():
    assert StagedOpenSet.constant(["0"]).final() == CylinderSet.cylinder("0")
    assert StagedOpenSet.empty(horizon=3).final() == EMPTY_SET


def test_functional_consistency_rejected():
    # 0-extending oracles would compute both 00 and 01.
    with pytest.raises(InconsistentFunctional):
        TuringFunctional([(0, [("0", "00"), ("01", "01")])])
    # Same oracle cylinder, incomparable outputs, different stages.
    with pytest.raises(InconsistentFunctional):
        TuringFunctional([(0, [("1", "10")]), (2, [("11", "01")])])


def test_functional_apply_grows_with_stage():
    phi = TuringFunctional([(0, [("0", "1")]), (2, [("01", "10")])], horizon=4)
    assert phi.apply("0", 0) == BitString("1")
    assert phi.apply("01", 1) == BitString("1")
    assert phi.apply("01", 2) == BitString("10")
    assert phi.apply("011", 2) == BitString("10")
    assert phi.apply("1", 4) == EMPTY


def test_functional_preimage():
    phi = TuringFunctional([(0, [("0", "1"), ("10", "11")])], horizon=2)
    assert phi.preimage("1", 2) == CylinderSet.normalize(["0", "10"])
    assert phi.preimage("11", 2) == CylinderSet.cylinder("10")
    assert phi.preimage("^", 0) == FULL_SET
    assert phi.preimage("0", 2) == EMPTY_SET


def test_tree_viable_vs_intact():
    # Remove [00] and [10]: both length-2 survivors sit right of a removal.
    t = Pi01Tree(4, [(0, ["00", "10"])])
    assert t.viable("0", 0) and not t.intact("0", 0)
    assert t.viable("01", 0) and t.intact("01", 0)
    assert not t.viable("00", 0)
    assert t.survivors("^", 2, 0) == (BitString("01"), BitString("11"))
    assert t.class_measure(0) == CylinderSet.normalize(["01", "11"]).measure()


def test_tree_stagewise_removal_and_clamping():
    t = Pi01Tree(3, [(1, ["0"]), (2, ["11"])], horizon=5)
    assert t.removed_open(-3) == EMPTY_SET
    assert t.viable("00", 0)
    assert not t.viable("00", 1)
    assert t.viable("11", 1)
    assert not t.viable("11", 2)
    assert t.removed_open(9) == t.removed_open(5)


def test_tree_rejects_bad_shapes():
    with pytest.raises(RandlabError):
        Pi01Tree(0)
    with pytest.raises(RandlabError):
        Pi01Tree(2, [(0, ["010"])])
    with pytest.raises(RandlabError):
        Pi01Tree(3, [(2, ["0"])], horizon=1)


def test_survivor_guard():
    t = Pi01Tree(30)
    with pytest.raises(GuardExceeded):
        t.survivors("^", 30, 0)
    with pytest.raises(RandlabError):
        t.survivors("00", 1, 0)


def test_extreme_intact_walks():
    t = Pi01Tree(4, [(0, ["00", "10"])])
    assert t.leftmost_intact("^", 2, 0) == BitString("01")
    assert t.rightmost_intact("^", 2, 0) == BitString("11")
    assert t.leftmost_intact("0", 2, 0) == BitString("01")
    assert t.leftmost_intact("00", 4, 0) is None
    # Intactness is strict: at length 1 every node has a removal below it.
    assert t.leftmost_intact("^", 1, 0) is None


@given(st.lists(st.text(alphabet="01", min_size=1, max_size=6), max_size=6),
       st.text(alphabet="01", max_size=2), st.integers(min_value=0, max_value=4))
def test_extreme_intact_matches_brute_force(removals, sigma, extra):
    t = Pi01Tree(6, [(0, removals)] if removals else [])
    length = len(sigma) + extra
    stem = BitString(sigma)
    intact = [stem + tail for tail in BitString.all_strings(extra) if t.intact(stem + tail, 0)]
    intact.sort(key=lambda s: s.bits)
    assert t.leftmost_intact(sigma, length, 0) == (intact[0] if intact else None)
    assert t.rightmost_intact(sigma, length, 0) == (intact[-1] if intact else None)


def test_restrict_merges_schedules():
    t = Pi01Tree(4, [(1, ["00"])], horizon=3)
    extra = StagedOpenSet.from_events([(2, ["11"])], horizon=3)
    cut = t.restrict(extra)
    assert cut.viable("11", 1)
    assert not cut.viable("11", 2)
    assert not cut.viable("00", 1)
    assert cut.depth == 4
    deep = StagedOpenSet.from_events([(0, ["00000"])], horizon=0)
    with pytest.raises(RandlabError):
        t.restrict(deep)
