import random
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (axioms, minpair_ok, old_apply, old_choose, old_f_approx, old_find_family,
                     old_max_antichain, old_output_tree, old_version_events, per_stage,
                     schedules)

from randlab.bitstring import BitString, from_nat, to_nat
from randlab.cylinders import CylinderSet
from randlab.errors import GuardExceeded, RandlabError
from randlab.generators import random_functional_pair
from randlab.minpair import (FAMILY_GUARD, PairFamily, classify_case, f_approx,
                             find_family, induced_demuth_level,
                             isolated_path_analysis, output_tree,
                             _candidate_pool, _choose, _max_antichain)
from randlab.staged import Enumerator, TuringFunctional


def test_max_antichain_small_cases():
    mk = lambda *ss: [BitString(s) for s in ss]
    assert _max_antichain([]) == 0
    assert _max_antichain(mk("^")) == 1
    assert _max_antichain(mk("0", "01")) == 1
    assert _max_antichain(mk("00", "01", "1")) == 3
    # The root competes with its own subtree: take the two leaves, not ^.
    assert _max_antichain(mk("^", "00", "01")) == 2


def test_find_family_picks_earliest_stage():
    # Stage 0 offers one output; the second incomparable one lands at stage 2.
    phi = TuringFunctional([
        (0, [("00", "0")]),
        (2, [("01", "10")]),
    ], horizon=4)
    stem = BitString("0")  # Nat = 1, family size 2
    assert find_family(phi, stem, 1) is None
    fam = find_family(phi, stem, 4)
    assert fam is not None
    assert fam.found_stage == 2
    assert fam.size() == 2
    assert [p[1] for p in fam.pairs] == [BitString("0"), BitString("10")]


def test_find_family_greedy_skips_blocking_candidate():
    # Sorted pool order puts output 0 first, but 0 is comparable with both
    # 00 and 01; taking it would strand the search below size 2.  The exact
    # completability check must pass over it.
    phi = TuringFunctional([
        (0, [("000", "00"), ("001", "0"), ("01", "01")]),
    ], horizon=2)
    fam = find_family(phi, BitString("0"), 2)
    assert fam is not None
    outs = {p[1] for p in fam.pairs}
    assert outs == {BitString("00"), BitString("01")}


def test_find_family_guard():
    phi = TuringFunctional([], horizon=1)
    deep_stem = from_nat(FAMILY_GUARD + 1)
    with pytest.raises(GuardExceeded):
        find_family(phi, deep_stem, 1)


def test_f_approx_holds_a_small_preimage():
    phi = TuringFunctional([
        (0, [("00", "0"), ("01", "10")]),
    ], horizon=4)
    # Later psi outputs are incomparable with 0, so preimage(0) stays [0],
    # measure 1/2 <= 1/2 at Nat("0") = 1: the first candidate never spills.
    psi = TuringFunctional([
        (0, [("0", "0")]),
        (1, [("10", "11"), ("11", "10")]),
    ], horizon=4)
    stem = BitString("0")
    trace = f_approx(phi, psi, stem, 4)
    assert trace.family is not None
    assert trace.changes == ((0, 0),)
    assert per_stage(trace, 4) == ((BitString("00"),) * 5, (0,) * 5)
    assert trace.mind_changes() == 0


def test_f_approx_before_family_is_stem():
    phi = TuringFunctional([(3, [("00", "0"), ("01", "1")])], horizon=4)
    psi = TuringFunctional([], horizon=4)
    trace = f_approx(phi, psi, BitString("0"), 4)
    values, chosen = per_stage(trace, 4)
    assert values[:3] == (BitString("0"),) * 3
    assert chosen[:3] == (None,) * 3
    assert values[3] == BitString("00")
    assert trace.changes == ((3, 0),)


def test_selector_switches_when_preimage_swells():
    # At stage 0 output 0's preimage is [00] (1/4 <= 1/2); at stage 2 it
    # grows to [0] u [10] (3/4) and the selector must move to output 11.
    phi = TuringFunctional([
        (0, [("00", "0"), ("01", "11")]),
    ], horizon=4)
    psi = TuringFunctional([
        (0, [("00", "0")]),
        (2, [("01", "0"), ("10", "0")]),
    ], horizon=4)
    trace = f_approx(phi, psi, BitString("0"), 4)
    assert trace.changes == ((0, 0), (2, 1))
    values, chosen = per_stage(trace, 4)
    assert values[2] == BitString("01")
    assert trace.mind_changes() == 1
    # The selector never goes back.
    assert chosen == (0, 0, 1, 1, 1)


def test_induced_level_versions_mirror_switches():
    phi = TuringFunctional([
        (0, [("00", "0"), ("01", "11")]),
    ], horizon=4)
    psi = TuringFunctional([
        (0, [("00", "0")]),
        (2, [("01", "0"), ("10", "0")]),
    ], horizon=4)
    vos, trace = induced_demuth_level(phi, psi, BitString("0"), 4)
    assert vos.version_count() == 2
    assert [s for s, _ in vos.versions] == [0, 2]
    # Final version: preimage of 11, empty at every stage here.
    assert vos.open_at(4).is_empty()
    assert trace.mind_changes() == 1


def test_induced_level_no_family_is_empty():
    phi = TuringFunctional([], horizon=3)
    psi = TuringFunctional([], horizon=3)
    vos, trace = induced_demuth_level(phi, psi, BitString("1"), 3)
    assert vos.version_count() == 0
    assert vos.open_at(3).is_empty()
    assert trace.family is None


def test_mind_change_bound_seeded():
    for i in range(30):
        assert minpair_ok(*random_functional_pair(random.Random(f"mp:{i}")), 3, 8), i


def test_output_tree_is_prefix_closed_and_dated():
    phi = TuringFunctional([
        (0, [("0", "1")]),
        (2, [("01", "10")]),
    ], horizon=3)
    tree = output_tree(phi, BitString("0"), 3)
    final = tree.at(tree.horizon)
    for s in final:
        for i in range(len(s)):
            assert s.prefix(i) in final
    assert BitString("1") in tree.at(0)
    assert BitString("10") not in tree.at(1)
    assert BitString("10") in tree.at(2)


def test_isolation_analysis():
    # Width-2 tree: branches 10 and 11 diverge at position 1.
    tree = Enumerator([(0, ["^", "1", "10", "11"])], horizon=1)
    res = isolated_path_analysis(tree, 2)  # bound 4 > width 2
    assert res.applicable
    assert res.antichain_width == 2
    assert {b.branch for b in res.branches} == {BitString("10"), BitString("11")}
    assert all(b.onset == 2 for b in res.branches)
    assert res.all_isolated
    # Same tree against n=1: width 2 >= bound 2, not applicable.
    res = isolated_path_analysis(tree, 1)
    assert not res.applicable
    with pytest.raises(RandlabError):
        isolated_path_analysis(Enumerator([(0, ["11"])], horizon=1), 2)


def test_classify_case_disagreement():
    # The scenario fixture: phi offers a family at stem 0, psi swaps bits.
    phi = TuringFunctional([
        (0, [("00", "10")]),
        (1, [("01", "01"), ("010", "011")]),
        (2, [("001", "100")]),
    ], horizon=6)
    psi = TuringFunctional([(0, [("0", "1"), ("1", "0")])], horizon=6)
    rep = classify_case(phi, psi, BitString("0110"), BitString("0101010"), 1, 6)
    assert rep.case == "disagreement"
    assert rep.selected_output is not None
    assert rep.x_in_preimage is False
    assert rep.psi_on_x == BitString("1")


def test_classify_case_width_bounded():
    # A single output chain above stem 1: no incomparable pair, no family.
    phi = TuringFunctional([(0, [("10", "0"), ("11", "0")])], horizon=4)
    psi = TuringFunctional([], horizon=4)
    rep = classify_case(phi, psi, BitString("10"), BitString("0"), 1, 4)
    assert rep.case == "width-bounded"
    assert rep.isolation is not None
    assert rep.isolation.applicable
    assert rep.selected_output is None


def test_find_family_on_a_deep_output():
    # The recursive antichain walk once raised RecursionError here.
    phi = TuringFunctional([(0, [("00", "0" * 3000), ("01", "1")])], 1)
    fam = find_family(phi, BitString("0"), 1)
    assert fam is not None and fam.found_stage == 0
    assert [p[1] for p in fam.pairs] == [BitString("0" * 3000), BitString("1")]
    assert _max_antichain([BitString("0" * 5000), BitString("1" * 4000), BitString("01")]) == 3


def _agrees_with_the_old_path(phi, psi, horizon, stems):
    for stem in stems:
        for stage in (horizon // 2, horizon):
            assert find_family(phi, stem, stage) == old_find_family(phi, stem, stage)
        trace = f_approx(phi, psi, stem, horizon)
        assert (trace.family, *per_stage(trace, horizon)) == old_f_approx(phi, psi, stem, horizon)
        vos, again = induced_demuth_level(phi, psi, stem, horizon)
        assert again == trace
        assert ([(start, v.events) for start, v in vos.versions]
                == old_version_events(psi, trace, horizon))
        assert output_tree(phi, stem, horizon).events == old_output_tree(phi, stem, horizon).events
        for stage in range(horizon + 1):
            for probe in (stem, stem.append(0), stem.append(1) + stem):
                assert phi.apply(probe, stage) == old_apply(phi.events, probe, stage)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_minpair_path_matches_the_old_path_on_seeded_pairs(seed):
    phi, psi = random_functional_pair(random.Random(seed), 4, 30, 6)
    _agrees_with_the_old_path(phi, psi, 6, [from_nat(n) for n in range(4)])


@settings(deadline=None)
@given(schedules(axioms), schedules(axioms))
def test_minpair_path_matches_the_old_path_on_schedules(phi_sched, psi_sched):
    horizon = max(phi_sched[1], psi_sched[1])
    phi = TuringFunctional(phi_sched[0], horizon)
    psi = TuringFunctional(psi_sched[0], horizon)
    _agrees_with_the_old_path(phi, psi, horizon, [from_nat(n) for n in range(3)])


@given(st.lists(st.text(alphabet="01", max_size=8).map(BitString), max_size=12))
def test_max_antichain_matches_the_recursive_walk(strings):
    assert _max_antichain(strings) == old_max_antichain(strings)


# The family search as it was before the width table: the greedy
# `old_choose` over the pool at each change stage.  It is the oracle for
# `_choose` and `find_family`.

def suffix_find_family(phi, stem, stage):
    n = to_nat(stem)
    for s in phi.change_stages(stage):
        chosen = old_choose(_candidate_pool(phi, stem, s), 1 << n)
        if chosen is not None:
            return PairFamily(stem, n, tuple(chosen), s)
    return None


pool_entries = st.tuples(st.text(alphabet="01", max_size=4).map(BitString),
                         st.text(alphabet="01", max_size=6).map(BitString))


@settings(max_examples=300, deadline=None)
@given(st.lists(pool_entries, max_size=14), st.integers(min_value=1, max_value=8))
def test_choose_matches_the_suffix_greedy_on_any_pool(pool, want):
    # Any order and repeated outputs, not only length-lex pools.
    assert _choose(pool, want) == old_choose(pool, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_find_family_matches_the_suffix_greedy_on_seeded_pairs(seed):
    phi, psi = random_functional_pair(random.Random(seed), 6, 160, 8)
    for fn in (phi, psi):
        for n in range(4):
            stem = from_nat(n)
            assert find_family(fn, stem, 8) == suffix_find_family(fn, stem, 8)


# Work-count gates: on a schedule with events at stages 0 and 40 only, the
# minpair queries read each snapshot once, not each of the 61 stages.

SPARSE_PHI = TuringFunctional([(0, [("00", "0"), ("01", "11")]), (40, [("000", "01")])], 60)
SPARSE_PSI = TuringFunctional([(0, [("00", "0")]), (40, [("01", "0"), ("10", "0")])], 60)


def _queries(monkeypatch):
    """Count apply/preimage calls per (query, functional, argument, snapshot)."""
    counts = Counter()
    for name in ("apply", "preimage"):
        original = getattr(TuringFunctional, name)

        def counted(self, arg, stage, name=name, original=original):
            counts[name, id(self), str(arg), bisect_right(self._stages, stage)] += 1
            return original(self, arg, stage)
        monkeypatch.setattr(TuringFunctional, name, counted)
    return counts


@pytest.mark.parametrize("query, reads", [
    # psi offers no family above 0, so every stage up to 60 is searched.
    (lambda: find_family(SPARSE_PSI, BitString("0"), 60), 1),
    (lambda: f_approx(SPARSE_PHI, SPARSE_PSI, BitString("0"), 60), 1),
    (lambda: output_tree(SPARSE_PHI, BitString("0"), 60), 1),
    # The selector and the version it switches to each read the new snapshot.
    (lambda: induced_demuth_level(SPARSE_PHI, SPARSE_PSI, BitString("0"), 60), 2),
], ids=["find_family", "f_approx", "output_tree", "induced_demuth_level"])
def test_sparse_schedule_reads_each_snapshot_once(monkeypatch, query, reads):
    counts = _queries(monkeypatch)
    query()
    assert counts and max(counts.values()) <= reads
    assert {snapshot for *_, snapshot in counts} <= {1, 2}


def test_induced_level_reads_no_generator_strings(monkeypatch):
    # Each version is its preimage under psi stated by value, read from
    # psi's per-snapshot preimages: neither building the level nor reading
    # it at any stage spells out a set's generators.
    cases = []
    for seed in range(12):
        phi, psi = random_functional_pair(random.Random(f"induced-strings:{seed}"), 4, 30, 6)
        for n in range(3):
            stem = from_nat(n)
            vos, trace = induced_demuth_level(phi, psi, stem, 6)
            want = [[psi.preimage(trace.family.pairs[j][1], s) for s in range(8)] for _, j in trace.changes]
            cases.append((phi, psi, stem, want))
    assert sum(len(want) for *_, want in cases) > 20

    def refuse(cs):
        raise AssertionError("CylinderSet.strings read")

    monkeypatch.setattr(CylinderSet, "strings", property(refuse))
    for phi, psi, stem, want in cases:
        vos, trace = induced_demuth_level(phi, psi, stem, 6)
        for (start, version), values in zip(vos.versions, want):
            assert [version.open_at(s) for s in range(8)] == values
            assert vos.open_at(start) == values[start]
        vos.open_at(6)
