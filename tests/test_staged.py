import functools
import importlib.util
import pathlib
import random
import re
import types
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (axioms, bit_strings, old_apply, old_at, old_axioms_at, old_fresh,
                     old_fresh_output_tree, old_live_at, old_preimage, old_restrict_events,
                     schedules)

from randlab import staged
from randlab.bitstring import EMPTY, BitString
from randlab.cylinders import CylinderSet, EMPTY_SET, FULL_SET
from randlab.demuth import VersionedOpenSet
from randlab.errors import InconsistentFunctional, RandlabError
from randlab.generators import random_functional, random_functional_pair
from randlab.staged import (Enumerator, Pi01Tree, StagedOpenSet, TuringFunctional, by_stage,
                            first_seen)


def test_enumerator_cumulative():
    e = Enumerator([(1, ["0"]), (3, ["11", "10"])], horizon=5)
    assert e.at(0) == frozenset()
    assert e.at(1) == {BitString("0")}
    assert e.at(2) == {BitString("0")}
    assert e.at(3) == {BitString("0"), BitString("10"), BitString("11")}
    assert e.at(99) == e.at(e.horizon)


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


def test_staged_open_set_clamps():
    o = StagedOpenSet([(0, ["1"]), (2, ["01"])], horizon=4)
    assert o.open_at(-5) == EMPTY_SET
    assert o.open_at(-1) == EMPTY_SET
    assert o.open_at(0) == CylinderSet.cylinder("1")
    assert o.open_at(100) == o.final()
    assert o.final() == CylinderSet.normalize(["1", "01"])
    assert o.open_at(2).measure() == o.final().measure()


def test_staged_open_set_is_the_enumeration_of_its_generators():
    events = [(1, ["0"]), (3, ["11", "10"])]
    o, e = StagedOpenSet(events, horizon=5), Enumerator(events, horizon=5)
    assert isinstance(o, Enumerator)
    assert o.events == e.events and o.horizon == e.horizon
    for stage in range(-1, 7):
        assert o.at(stage) == e.at(stage)
        assert o.open_at(stage) == CylinderSet.normalize(e.at(stage))
    assert o.change_stages(5) == e.change_stages(5) == [0, 1, 3]
    assert repr(o) == "StagedOpenSet(2 events, horizon=5)"


def test_a_tree_is_the_staged_open_set_of_its_removals():
    events = [(1, ["0"]), (3, ["11", "10"])]
    t, o = Pi01Tree(4, events, horizon=5), StagedOpenSet(events, horizon=5)
    assert isinstance(t, StagedOpenSet)
    assert (t.events, t.horizon) == (o.events, o.horizon)
    for stage in range(-1, 7):
        assert t.removed_open(stage) == t.open_at(stage) == o.open_at(stage)
    assert t.final() == o.final()


def test_each_snapshot_builds_what_its_queries_derive_once():
    # Stages 1 and 2 read one snapshot, stage 3 the next.
    o = StagedOpenSet([(1, ["0"]), (3, ["11"])], horizon=5)
    assert o.open_at(1) is o.open_at(2) is not o.open_at(3)
    phi = TuringFunctional([(1, [("0", "0"), ("1", "1")]), (3, [("00", "01")])], horizon=5)
    assert phi.preimage("0", 1) is phi.preimage("0", 2) is not phi.preimage("0", 3)
    assert phi.preimage("0", 2) == CylinderSet.cylinder("0")
    assert phi.preimage("0", 3) == CylinderSet.cylinder("0")
    assert phi.apply("00", 2) == BitString("0") and phi.apply("00", 3) == BitString("01")


def test_staged_open_set_constant_and_empty():
    assert StagedOpenSet([], horizon=3).final() == EMPTY_SET


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


def is_intact(tree, sigma, stage):
    """No removal touches [sigma]: the whole cylinder survives."""
    return not tree.removed_open(stage).meets_cylinder(BitString(sigma))


def test_tree_viable_vs_intact():
    # Remove [00] and [10]: both length-2 survivors sit right of a removal.
    t = Pi01Tree(4, [(0, ["00", "10"])])
    assert t.viable("0", 0) and not is_intact(t, "0", 0)
    assert t.viable("01", 0) and is_intact(t, "01", 0)
    assert not t.viable("00", 0)
    assert [s for s in BitString.all_strings(2) if t.viable(s, 0)] == [BitString("01"), BitString("11")]
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


@pytest.mark.parametrize("events, horizon, message", [
    ([(0, "01")], None, "stage 0 must be a list, got the string '01'"),
    ([(1.7, ["0"])], 2, "stage 1.7 must be an integer"),
    ([(1, ["0"])], 2.9, "horizon 2.9 must be an integer"),
    ([(True, ["0"])], None, "stage True must be an integer"),
    ([(1, ["0"])], True, "horizon True must be an integer"),
    ([("1", ["0"])], None, "stage '1' must be an integer"),
])
def test_schedules_refuse_what_the_scenario_reader_refuses(events, horizon, message):
    # int() would read 1.7 as stage 1, and a bare "01" would enumerate "0" and "1".
    with pytest.raises(RandlabError, match=re.escape(message)):
        Enumerator(events, horizon)
    with pytest.raises(RandlabError, match=re.escape(message)):
        Pi01Tree(4, events, horizon)


def test_tree_refuses_a_depth_that_is_not_an_integer():
    for depth in (3.9, True, "3"):
        with pytest.raises(RandlabError, match="tree depth .* must be an integer"):
            Pi01Tree(depth)


def test_extreme_intact_walks():
    t = Pi01Tree(4, [(0, ["00", "10"])])
    assert t.leftmost_intact("^", 2, 0) == BitString("01")
    assert t.rightmost_intact("^", 2, 0) == BitString("11")
    assert t.leftmost_intact("0", 2, 0) == BitString("01")
    assert t.leftmost_intact("00", 4, 0) is None
    # Intactness is strict: at length 1 every node has a removal below it.
    assert t.leftmost_intact("^", 1, 0) is None


def test_an_intact_extension_is_no_shorter_than_its_stem():
    t = Pi01Tree(4, [(0, ["00"])])
    for extreme in (t.leftmost_intact, t.rightmost_intact):
        with pytest.raises(ValueError, match="extension length 1 is shorter than 01"):
            extreme("01", 1, 0)
    with pytest.raises(ValueError, match="extension length 0 is shorter than 0"):
        CylinderSet.normalize(["00"]).disjoint_extension(BitString("0"), 0)


@given(st.lists(st.text(alphabet="01", min_size=1, max_size=6), max_size=6),
       st.text(alphabet="01", max_size=2), st.integers(min_value=0, max_value=4))
def test_extreme_intact_matches_brute_force(removals, sigma, extra):
    t = Pi01Tree(6, [(0, removals)] if removals else [])
    length = len(sigma) + extra
    stem = BitString(sigma)
    intact = [stem + tail for tail in BitString.all_strings(extra) if is_intact(t, stem + tail, 0)]
    intact.sort(key=lambda s: s.bits)
    assert t.leftmost_intact(sigma, length, 0) == (intact[0] if intact else None)
    assert t.rightmost_intact(sigma, length, 0) == (intact[-1] if intact else None)


def test_restrict_merges_schedules():
    t = Pi01Tree(4, [(1, ["00"])], horizon=3)
    extra = StagedOpenSet([(2, ["11"])], horizon=3)
    cut = t.restrict(extra)
    assert cut.viable("11", 1)
    assert not cut.viable("11", 2)
    assert not cut.viable("00", 1)
    assert cut.depth == 4
    deep = StagedOpenSet([(0, ["00000"])], horizon=0)
    with pytest.raises(RandlabError):
        t.restrict(deep)


def test_functional_negative_stage_named():
    with pytest.raises(RandlabError, match="negative stage -1"):
        TuringFunctional([(-1, [("0", "1")])])


def test_depth_errors_name_the_first_string_in_event_order():
    # Within a stage strings sort length-lex, so "000" precedes "111".
    with pytest.raises(RandlabError, match="removal 000 deeper"):
        Pi01Tree(2, [(0, ["1"]), (1, ["111", "000", "0"]), (2, ["00000"])])
    t = Pi01Tree(2, [(0, ["00"])], horizon=4)
    extra = StagedOpenSet([(0, ["1"]), (2, ["0101", "110"]), (3, ["11111"])], horizon=4)
    with pytest.raises(RandlabError, match="restriction string 110 deeper"):
        t.restrict(extra)


def test_by_stage_and_first_seen():
    assert by_stage([(2, "b"), (0, "a"), (2, "c"), (2, "b")]) == [(0, ["a"]), (2, ["b", "c"])]
    assert first_seen([(0, {"a"}), (1, {"a", "b"}), (3, {"b", "c"})]) == [(0, ["a"]), (1, ["b"]), (3, ["c"])]
    assert by_stage([]) == first_seen([]) == []


def query_stages(horizon):
    # Negative, before the first event, on and between events, past the horizon.
    return range(-3, horizon + 4)


def replayed_open(events, horizon, stage):
    return CylinderSet.normalize(old_at(events, min(max(stage, -1), horizon)))


@given(schedules(bit_strings))
def test_enumerator_and_open_set_match_replay(sched):
    events, horizon = sched
    e = Enumerator(events, horizon)
    o = StagedOpenSet(events, horizon)
    norm = e.events
    for stage in query_stages(horizon):
        assert e.at(stage) == old_at(norm, stage)
        assert o.open_at(stage) == replayed_open(norm, horizon, stage)
    assert e.at(horizon) == old_at(norm, horizon)


@given(schedules(axioms), st.lists(bit_strings, min_size=1, max_size=4))
def test_functional_matches_replay(sched, probes):
    events, horizon = sched
    phi = TuringFunctional(events, horizon)
    norm = phi.events
    for stage in query_stages(horizon):
        assert phi.axioms_at(stage) == old_axioms_at(norm, stage)
        for p in probes:
            assert phi.apply(p, stage) == old_apply(norm, p, stage)
            assert phi.preimage(p, stage) == old_preimage(norm, p, stage)


@given(schedules(bit_strings), schedules(bit_strings))
def test_tree_and_restrict_match_replay(base, more):
    (events, horizon), (extra_events, extra_horizon) = base, more
    t = Pi01Tree(6, events, horizon)
    extra = StagedOpenSet(extra_events, extra_horizon)
    cut = t.restrict(extra)
    merged = old_restrict_events(t.events, extra.events)
    # The merge keeps no stage that brings nothing; those never changed a query.
    assert cut.events == tuple(ev for ev in Enumerator(merged).events if ev[1])
    assert cut.horizon == max(horizon, extra_horizon)
    for stage in query_stages(max(horizon, extra_horizon)):
        assert t.removed_open(stage) == replayed_open(t.events, horizon, stage)
        assert cut.removed_open(stage) == replayed_open(merged, cut.horizon, stage)


@given(st.sets(st.integers(min_value=0, max_value=12), max_size=5))
def test_live_at_matches_replay(stages):
    versions = [(s, StagedOpenSet([], 12)) for s in sorted(stages)]
    level = VersionedOpenSet(versions)
    for stage in range(-3, 16):
        assert level.live_at(stage) is old_live_at(versions, stage)


@given(schedules(bit_strings))
def test_first_seen_matches_the_fresh_since_loops(sched):
    events, horizon = sched
    o = StagedOpenSet(events, horizon)
    # Generator snapshots, as the demuth and minpair loops read them; a
    # generator can drop out when its sibling arrives and the two merge.
    gens = [(s, o.open_at(s).strings) for s in range(horizon + 1)]
    new = Enumerator(first_seen(gens), horizon).events
    assert new == Enumerator(old_fresh(gens), horizon).events
    closures = [(s, {g.prefix(i) for g in strings for i in range(len(g) + 1)}) for s, strings in gens]
    assert (Enumerator(first_seen(closures), horizon).events
            == Enumerator(old_fresh_output_tree(closures), horizon).events)


def test_staged_queries_are_traceable():
    # The benchmark's tracer wraps what each class defines in its own body
    # (vars(cls)); an inherited query would silently drop out of its counts.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for query in tracing.STAGED_QUERIES:
        cls_name, method = query.split(".")
        assert isinstance(vars(getattr(staged, cls_name)).get(method), types.FunctionType), query
    # It also fingerprints fireworks adversaries by their events and horizon.
    e = Enumerator([(1, ["0"])], horizon=3)
    assert (e.events, e.horizon) == (((1, (BitString("0"),)),), 3)


# The consistency check as it was before the preorder walk: every pair of
# axioms, in snapshot order.  It is the oracle for the walk's verdict.

def old_conflict(axioms):
    axioms = sorted(set(axioms))
    for i, (s1, t1) in enumerate(axioms):
        for s2, t2 in axioms[i + 1:]:
            if s1.comparable(s2) and not t1.comparable(t2):
                return (s1, t1), (s2, t2)
    return None


NAMED_AXIOM = re.compile(r"\(([01^]+),([01^]+)\)")


def _final_axioms(events):
    return {(BitString(s), BitString(t)) for _, pairs in events for s, t in pairs}


@given(st.one_of(schedules(axioms), schedules(st.tuples(bit_strings, bit_strings))))
def test_consistency_walk_matches_pairwise(sched):
    events, horizon = sched
    final = _final_axioms(events)
    try:
        TuringFunctional(events, horizon)
    except InconsistentFunctional as err:
        assert old_conflict(final) is not None
        named = [(BitString(s), BitString(t)) for s, t in NAMED_AXIOM.findall(str(err))]
        assert len(named) == 2 and all(ax in final for ax in named)
        (s1, t1), (s2, t2) = named
        assert s1.comparable(s2) and not t1.comparable(t2)
    else:
        assert old_conflict(final) is None


@given(schedules(bit_strings), schedules(st.tuples(bit_strings, bit_strings)))
def test_event_items_keep_the_length_lex_order(strings, pairs):
    # The keyed sort must order every event as BitString.__lt__ does.
    e = Enumerator(*strings)
    assert e.events == tuple((s, tuple(sorted(map(BitString, items)))) for s, items in strings[0])
    final = _final_axioms(pairs[0])
    if old_conflict(final) is None:
        phi = TuringFunctional(*pairs)
        assert phi.events == tuple((s, tuple(sorted((BitString(a), BitString(b)) for a, b in items)))
                                   for s, items in pairs[0])
        assert phi.axioms_at(pairs[1]) == tuple(sorted(final))


def test_consistency_check_compares_once_per_axiom(monkeypatch):
    # A work-count gate: the pairwise loop made ~n^2/2 comparisons here.
    built = random_functional(random.Random(7), 11, 4000, 8)
    count = len(built.axioms_at(built.horizon))
    assert count >= 2000
    calls = []
    comparable = BitString.comparable
    monkeypatch.setattr(BitString, "comparable", lambda a, b: calls.append(1) or comparable(a, b))
    TuringFunctional(built.events, built.horizon)
    assert 0 < len(calls) <= count


def _probe_taus(phi, rng):
    """Every prefix of every output, plus strings no output extends."""
    taus = {ax_t.prefix(i) for _, ax_t in phi.axioms_at(phi.horizon) for i in range(len(ax_t) + 1)}
    taus.update(BitString(format(rng.getrandbits(n), f"0{n}b")) for n in range(1, 9) for _ in range(3))
    return sorted(taus)


@pytest.mark.parametrize("seed", range(4))
def test_preimage_index_matches_the_scan_on_seeded_functionals(seed):
    rng = random.Random(f"preimage:{seed}")
    phi = random_functional(rng, 6, 160, 8)
    norm = phi.events
    taus = _probe_taus(phi, rng)
    for stage in query_stages(phi.horizon):
        for tau in taus:
            want = old_preimage(norm, tau, stage)
            # The second ask, as text, reads the snapshot's stored answer.
            assert phi.preimage(tau, stage) == want
            assert phi.preimage(tau.bits, stage) == want


def test_preimage_answers_each_snapshot_and_tau_once(monkeypatch):
    # A work-count gate: the scan built one set per call; the index builds
    # one per (snapshot, tau) however often and at whichever stages it is asked.
    rng = random.Random("preimage:gate")
    phi = random_functional(rng, 6, 160, 8)
    taus = [tau for tau in _probe_taus(phi, rng) if len(tau)]
    builds = []
    normalize = CylinderSet.normalize
    monkeypatch.setattr(CylinderSet, "normalize",
                        staticmethod(lambda strings: builds.append(1) or normalize(strings)))
    stages = range(phi.horizon + 3)
    for _ in range(3):
        for stage in stages:
            for tau in taus:
                phi.preimage(tau, stage)
    snapshots = {bisect_right(phi._stages, stage) for stage in stages}
    assert len(snapshots) < len(stages)
    assert 0 < len(builds) <= len(snapshots) * len(taus)


# The functional's constructor as it was before it converted and keyed each
# distinct axiom once: every item converted and keyed in its event's sort,
# and the distinct axioms keyed again for the snapshots.  It is the oracle
# for `TuringFunctional.__init__`.

def _old_axiom_key(axiom):
    return (len(axiom[0]), axiom[0].bits, len(axiom[1]), axiom[1].bits)


def old_functional(events):
    """(events, snapshots) as the old constructor stored them."""
    norm = tuple((stage, tuple(sorted(((BitString(s), BitString(t)) for s, t in items), key=_old_axiom_key)))
                 for stage, items in events)
    first = {}
    for i, (_, items) in enumerate(norm, 1):
        for axiom in items:
            first.setdefault(axiom, i)
    ordered = sorted(first.items(), key=lambda item: _old_axiom_key(item[0]))
    return norm, [tuple(ax for ax, since in ordered if since <= i) for i in range(len(norm) + 1)]


def _agrees_with_the_old_constructor(events, horizon):
    phi = TuringFunctional(events, horizon)
    norm, snapshots = old_functional(events)
    assert phi.events == norm
    stages = [s for s, _ in norm]
    taus = {EMPTY, BitString("0"), BitString("1")}
    taus.update(ax_t.prefix(i) for _, ax_t in snapshots[-1] for i in range(len(ax_t) + 1))
    probes = {EMPTY, BitString("0"), BitString("11")}
    probes.update(ax_s + tail for ax_s, _ in snapshots[-1] for tail in ("", "0", "1"))
    for stage in query_stages(phi.horizon):
        assert phi.axioms_at(stage) == snapshots[bisect_right(stages, stage)]
        for sigma in probes:
            assert phi.apply(sigma, stage) == old_apply(norm, sigma, stage)
        for tau in taus:
            assert phi.preimage(tau, stage) == old_preimage(norm, tau, stage)


@pytest.mark.parametrize("seed", range(6))
def test_functional_matches_the_old_constructor_on_seeded_pairs(seed):
    rng = random.Random(f"functional-init:{seed}")
    for phi in random_functional_pair(rng, 5, 40, 8):
        # The same axioms as text pairs, as list pairs (how scenario JSON
        # gives them), and as bit strings.
        for form in (lambda s, t: (s.bits, t.bits), lambda s, t: [s.bits, t.bits], lambda s, t: (s, t)):
            events = [(stage, [form(s, t) for s, t in items]) for stage, items in phi.events]
            _agrees_with_the_old_constructor(events, phi.horizon)


@given(schedules(axioms), st.lists(st.sampled_from(["text", "list", "bits"]), min_size=1))
def test_functional_matches_the_old_constructor_on_schedules(sched, forms):
    # Repeated axioms, within an event and across events, in mixed forms.
    events, horizon = sched
    shape = {"text": lambda s, t: (s, t), "list": lambda s, t: [s, t],
             "bits": lambda s, t: (BitString(s), BitString(t))}
    mixed, i = [], 0
    for stage, items in events:
        out = []
        for s, t in items:
            out.append(shape[forms[i % len(forms)]](s, t))
            i += 1
        mixed.append((stage, out))
    _agrees_with_the_old_constructor(mixed, horizon)


@given(schedules(bit_strings))
def test_valued_open_set_matches_the_open_set_of_its_first_seen_events(sched):
    # State a staged open set by its value at each change stage, every value
    # deferred: reading it at the horizon computes the last value only, each
    # value is computed once, and the events are those first_seen dates.
    events, horizon = sched
    plain = StagedOpenSet(events, horizon)
    stages = plain.change_stages(horizon)
    computed = []

    def value(stage):
        computed.append(stage)
        return plain.open_at(stage)

    valued = staged.ValuedOpenSet([(s, functools.partial(value, s)) for s in stages], horizon)
    assert not computed
    assert valued.final() == plain.final()
    assert computed == stages[-1:]
    for stage in query_stages(horizon):
        assert valued.open_at(stage) == plain.open_at(stage)
    assert sorted(computed) == stages
    assert valued.events == Enumerator(first_seen((s, plain.open_at(s).strings) for s in stages),
                                       horizon).events
    assert valued.change_stages(horizon) == stages
    # Deriving the events recomputes no value.
    assert sorted(computed) == stages


def test_valued_open_set_checks_its_stages():
    with pytest.raises(RandlabError, match="stages must be strictly increasing, got 1 after 1"):
        staged.ValuedOpenSet([(1, CylinderSet), (1, CylinderSet)])
    with pytest.raises(RandlabError, match="horizon 2 precedes last event at 3"):
        staged.ValuedOpenSet([(3, CylinderSet)], 2)
    assert staged.ValuedOpenSet([], 4).final() == EMPTY_SET
