import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import as_fraction, schedules

from randlab import demuth
from randlab.bitstring import BitString
from randlab.cylinders import CylinderSet, EMPTY_SET
from randlab.demuth import (DemuthTest, DiffPair, DiffUnionTest,
                            VersionedOpenSet, _multiples_exceeded, demuth_to_diffunion,
                            diffunion_to_demuth, solovay_membership_profile,
                            verify_demuth, verify_diffunion)
from randlab.dyadic import Dyadic
from randlab.errors import GuardExceeded, RandlabError
from randlab.scenario import _convert_u2d_rows
from randlab.generators import (random_demuth_test, random_diffunion_test,
                                random_open_set, thinned_delayed)
from randlab.staged import StagedOpenSet, ValuedOpenSet, first_seen


def staged(events, horizon=4):
    return StagedOpenSet(events, horizon)


def test_versioned_set_reads_latest_declaration():
    v0 = staged([(0, ["0"])])
    v1 = staged([(1, ["11"])])
    level = VersionedOpenSet([(0, v0), (2, v1)])
    assert level.open_at(-1) == EMPTY_SET
    assert level.open_at(0) == CylinderSet.cylinder("0")
    assert level.open_at(1) == CylinderSet.cylinder("0")
    assert level.open_at(2) == CylinderSet.cylinder("11")
    assert level.open_at(4) == CylinderSet.cylinder("11")
    assert level.version_count() == 2


def test_versioned_set_empty_and_ordering():
    assert VersionedOpenSet([]).open_at(9) == EMPTY_SET
    with pytest.raises(RandlabError):
        VersionedOpenSet([(1, staged([])), (1, staged([]))])


def test_versioned_set_changes_where_its_live_version_does():
    # The one version changes at 5 on its own: a reader that follows only
    # the declaration stages would keep reading {00}.
    grown = StagedOpenSet([(0, ["00"]), (5, ["010"])], 8)
    level = VersionedOpenSet([(0, grown)])
    assert level.change_stages(8) == [0, 5]
    assert (level.next_change(0, 8), level.next_change(5, 8)) == (5, 8)
    test = DiffUnionTest(((), (DiffPair(level, StagedOpenSet([], 8)),)), (0, 1), 8)
    assert str(test.level_final(1)) == "{00,010}"
    assert str(diffunion_to_demuth(test).level_final(0)) == "{00,010}"
    # A version's changes after it is superseded are not the set's.
    late = VersionedOpenSet([(0, grown), (3, StagedOpenSet([(1, ["1"])], 8))])
    assert late.change_stages(8) == [0, 3]
    assert late.change_stages(2) == [0] and late.change_stages(-1) == []


def _version(events, horizon, valued):
    """A version from a drawn schedule: enumerated, or stated by value at
    its event stages."""
    enumerated = StagedOpenSet(events, horizon)
    if not valued:
        return enumerated
    return ValuedOpenSet([(s, partial(enumerated.open_at, s)) for s, _ in events], horizon)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(schedules(st.text(alphabet="01", max_size=4)), st.booleans()), max_size=4),
       st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=20))
def test_versioned_set_answers_alike_between_its_change_stages(drawn, gaps, upto):
    starts = [sum(gaps[:i + 1]) + i for i in range(len(drawn))]
    level = VersionedOpenSet([(start, _version(*sched, valued))
                              for start, (sched, valued) in zip(starts, drawn)])
    changes = level.change_stages(upto)
    assert changes[0] == 0 and changes == sorted(set(changes)) and changes[-1] <= upto
    for stage in range(upto + 1):
        last = max(t for t in changes if t <= stage)
        assert level.open_at(stage) == level.open_at(last)
        assert level.next_change(stage, upto + 1) == min([t for t in changes if t > stage] + [upto + 1])


def test_verify_demuth_checks_both_bounds():
    fat = VersionedOpenSet([(0, staged([(0, ["0"])]))])  # measure 1/2
    none = VersionedOpenSet([])
    # At level 1 the cap is exactly 1/2: equality passes.
    report = verify_demuth(DemuthTest((none, fat), (1, 1), horizon=4))
    assert report.ok
    assert report.rows[1].measure == Dyadic(1, 1)
    assert report.rows[1].measure_bound == Dyadic(1, 1)
    # At level 2 the cap drops to 1/4 and the same set breaks it.
    report = verify_demuth(DemuthTest((none, none, fat), (1, 1, 1), horizon=4))
    assert not report.ok
    assert not report.rows[2].ok
    # Version counting is the other half of the audit.
    over = DemuthTest((VersionedOpenSet([(0, staged([])), (1, staged([]))]),),
                      (1,), horizon=4)
    assert not verify_demuth(over).ok


def test_forward_conversion_cancels_superseded_versions():
    v0 = staged([(0, ["0"])])
    v1 = staged([(1, ["10"]), (3, ["111"])])
    test = DemuthTest((VersionedOpenSet([(0, v0), (2, v1)]),), (3,), horizon=4)
    out = demuth_to_diffunion(test)
    assert isinstance(out, DiffUnionTest)
    # Padded to the declared bound.
    assert len(out.levels[0]) == 3
    assert out.pair_bounds == (3,)
    assert out.level_final(0) == v1.final()


def test_forward_conversion_identity_seeded():
    for i in range(25):
        rng = random.Random(f"fwd:{i}")
        test = random_demuth_test(rng, levels=1 + rng.randrange(5),
                                  version_bound=1 + rng.randrange(6),
                                  horizon=1 + rng.randrange(10))
        out = demuth_to_diffunion(test)
        for n, level in enumerate(test.levels):
            assert out.level_final(n) == level.open_at(test.horizon)


def test_converse_tracks_a_growing_subtrahend():
    u = staged([(0, ["0"]), (1, ["10"]), (2, ["110"])])
    v = staged([(1, ["0"]), (2, ["10"])])
    ignored = DiffPair(staged([]), staged([]))
    test = DiffUnionTest(((ignored,), (DiffPair(u, v),)), (1, 1), horizon=4)
    out = diffunion_to_demuth(test)
    level = out.levels[0]
    # V's measure crosses 1/2 (one pair, watched level 1) only at stage 2.
    assert level.version_count() == 2
    assert [s for s, _ in level.versions] == [0, 2]
    assert level.open_at(4) == CylinderSet.cylinder("110")
    assert out.version_bounds == (2,)
    assert verify_demuth(out).ok


def test_converse_declares_each_version_at_its_crossing_stage():
    # One of four pairs at level 1 (quantum 1/8) has a V that crosses a new
    # multiple of 1/8 at every stage 0..6: 3/16 at stage 0, then 2/16 more
    # per stage.  Coalescing the stage-0 crossing into stage 1 would push
    # every later declaration one stage on, the last one past the horizon.
    strings = list(BitString.all_strings(4))
    v = staged([(0, strings[:3])] + [(s, strings[2 * s + 1:2 * s + 3]) for s in range(1, 7)],
               horizon=6)
    none = DiffPair(staged([], 6), staged([], 6))
    test = DiffUnionTest(((none,), (DiffPair(staged([(0, ["1"])], 6), v), none, none, none)),
                         (1, 4), horizon=6)
    out = diffunion_to_demuth(test)
    assert [s for s, _ in out.levels[0].versions] == list(range(7))
    assert out.level_final(0) == test.level_final(1)
    assert verify_demuth(out).ok
    late = VersionedOpenSet([(0, staged([], 6)), (7, staged([], 6))])
    with pytest.raises(RandlabError, match="horizon 6 precedes last version of level 0 at 7"):
        DemuthTest((late,), (2,), horizon=6)


def test_converse_bounds_seeded():
    for i in range(25):
        rng = random.Random(f"cnv:{i}")
        test = random_diffunion_test(rng, levels=2 + rng.randrange(3),
                                     pair_bound=1 + rng.randrange(3),
                                     horizon=1 + rng.randrange(8))
        out = diffunion_to_demuth(test)
        assert len(out.levels) == len(test.levels) - 1
        for n, level in enumerate(out.levels):
            c = max(1, len(test.levels[n + 1]))
            assert level.version_count() <= c * c * (1 << (n + 1))
            assert level.open_at(test.horizon).measure() <= Dyadic.half_pow(n)
            tracked = test.level_final(n + 1)
            for _, version in level.versions:
                assert tracked.is_subset(version.open_at(test.horizon))


def test_converse_refuses_overweight_input():
    heavy = DiffPair(staged([(0, ["0", "10"])]), staged([]))
    test = DiffUnionTest(((heavy,), (heavy,)), (1, 1), horizon=4)
    with pytest.raises(RandlabError):
        diffunion_to_demuth(test)
    with pytest.raises(RandlabError):
        diffunion_to_demuth(DiffUnionTest((), (), horizon=4))


def test_random_tests_verify_by_construction():
    for i in range(10):
        rng = random.Random(f"gen:{i}")
        d = random_demuth_test(rng, levels=4, version_bound=4, horizon=6)
        assert verify_demuth(d).ok
        u = random_diffunion_test(rng, levels=4, pair_bound=3, horizon=6)
        assert verify_diffunion(u).ok


def test_thinned_delayed_is_a_stagewise_subset():
    for i in range(20):
        rng = random.Random(f"thin:{i}")
        src = random_open_set(rng, horizon=6, count=8, max_len=5)
        sub = thinned_delayed(rng, src, horizon=6)
        for stage in range(-1, 7):
            assert sub.open_at(stage).is_subset(src.open_at(stage))


def test_membership_profile():
    level0 = VersionedOpenSet([(0, staged([(0, ["^"])]))])
    level1 = VersionedOpenSet([(0, staged([(0, ["01"])]))])
    test = DemuthTest((level0, level1), (1, 1), horizon=4)
    assert solovay_membership_profile(BitString("0110"), test) == {0, 1}
    assert solovay_membership_profile(BitString("0010"), test) == {0}
    out = demuth_to_diffunion(test)
    assert solovay_membership_profile(BitString("0110"), out) == {0, 1}
    with pytest.raises(RandlabError):
        solovay_membership_profile(BitString("0"), object())


# The crossing count as it was before it was integer arithmetic: the
# measure over the quantum as a Fraction.  It is the oracle for
# `_multiples_exceeded`.

def fraction_multiples_exceeded(measure, quantum):
    t = as_fraction(measure) / quantum
    if t <= 0:
        return 0
    return (t.numerator - 1) // t.denominator


@given(st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=0, max_value=48),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=12))
def test_multiples_exceeded_matches_the_fraction_form(num, exp, c, n):
    measure = Dyadic(num, exp)
    assert (_multiples_exceeded(measure, c, n)
            == fraction_multiples_exceeded(measure, Fraction(1, c * (1 << (n + 1)))))


# The converse conversion as it was before it visited only change stages:
# every tracked union and every crossing test at every stage 0..horizon.
# It is the oracle for `diffunion_to_demuth`.

def per_stage_diffunion_to_demuth(test):
    out_levels, out_bounds = [], []
    for n in range(len(test.levels) - 1):
        pairs = test.levels[n + 1]
        if test.level_final(n + 1).measure() > Dyadic.half_pow(n + 1):
            raise RandlabError("overweight")
        c = max(1, len(pairs))
        quantum = Fraction(1, c * (1 << (n + 1)))

        def version(snapshot_stage, declare):
            def tracked(s):
                acc = EMPTY_SET
                for pair in pairs:
                    v_snap = EMPTY_SET if snapshot_stage is None else pair.v.open_at(snapshot_stage)
                    acc = acc | (pair.u.open_at(s) - v_snap)
                return acc
            events = first_seen((s, tracked(s).strings) for s in range(test.horizon + 1))
            return declare, StagedOpenSet(events, test.horizon)

        # Each version is declared at its crossing stage; one at stage 0
        # replaces the first version.
        versions = {0: version(None, 0)}
        exceeded = [0] * len(pairs)
        for s in range(test.horizon + 1):
            crossed = False
            for k, pair in enumerate(pairs):
                now = fraction_multiples_exceeded(pair.v.open_at(s).measure(), quantum)
                if now > exceeded[k]:
                    exceeded[k] = now
                    crossed = True
            if crossed:
                versions[s] = version(s, s)
        out_levels.append(VersionedOpenSet(list(versions.values())))
        out_bounds.append(c * c * (1 << (n + 1)))
    return DemuthTest(tuple(out_levels), tuple(out_bounds), test.horizon)


def conversion_outcome(convert, test):
    try:
        out = convert(test)
    except RandlabError:
        return RandlabError
    return out.version_bounds, out.horizon, [
        [(stage, v.events, v.horizon) for stage, v in level.versions]
        for level in out.levels]


@pytest.mark.parametrize("seed", range(40))
def test_converse_matches_the_per_stage_loops_on_seeded_tests(seed):
    rng = random.Random(f"cnv-diff:{seed}")
    test = random_diffunion_test(rng, levels=2 + rng.randrange(3), pair_bound=1 + rng.randrange(3),
                                 horizon=1 + rng.randrange(12))
    assert (conversion_outcome(diffunion_to_demuth, test)
            == conversion_outcome(per_stage_diffunion_to_demuth, test))


open_sets = schedules(st.text(alphabet="01", max_size=4)).map(
    lambda sched: StagedOpenSet(*sched))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(open_sets, open_sets), max_size=3), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=16))
def test_converse_matches_the_per_stage_loops_on_schedules(levels, horizon):
    # Sets that need not nest, horizons on either side of theirs, empty
    # levels, and overweight levels the conversion refuses.
    test = DiffUnionTest(tuple(tuple(DiffPair(u, v) for u, v in level) for level in levels),
                         tuple(3 for _ in levels), horizon)
    assert (conversion_outcome(diffunion_to_demuth, test)
            == conversion_outcome(per_stage_diffunion_to_demuth, test))


class RecordingOpenSet(StagedOpenSet):
    """A staged open set that logs the stage of every `open_at` read."""

    __slots__ = ("reads",)

    def __init__(self, events, horizon):
        super().__init__(events, horizon)
        self.reads = []

    def open_at(self, stage):
        self.reads.append(stage)
        return super().open_at(stage)


def test_converse_reads_each_pair_only_at_its_change_stages():
    # A work-count gate: the per-stage loops read every U and V at every
    # stage, once per version.  Past the final-measure check at the horizon,
    # each set is read once per change stage of its own schedule.
    skipped = 0
    for i in range(10):
        rng = random.Random(f"cnv-gate:{i}")
        raw = random_diffunion_test(rng, levels=4, pair_bound=3, horizon=12)
        wrapped = {}
        levels = tuple(tuple(DiffPair(*(wrapped.setdefault(id(o), RecordingOpenSet(o.events, o.horizon))
                                        for o in (pair.u, pair.v)))
                             for pair in level) for level in raw.levels)
        test = DiffUnionTest(levels, raw.pair_bounds, raw.horizon)
        assert conversion_outcome(diffunion_to_demuth, test) == conversion_outcome(diffunion_to_demuth, raw)
        for o in wrapped.values():
            changes = o.change_stages(test.horizon)
            allowed = set(changes) | {test.horizon}
            assert set(o.reads) <= allowed
            assert len(o.reads) <= len(changes) + 1
            skipped += len(set(range(test.horizon + 1)) - allowed)
    assert skipped > 100



def test_u2d_audit_computes_one_tracked_union_per_version(monkeypatch):
    # Each version is a ValuedOpenSet of its tracked union at the U change
    # stages.  Building the versions computes no union, and the u2d report,
    # which reads every version at the horizon, computes one per version;
    # the per-stage loops computed one per U change stage.  The unions that
    # read the input's own levels (`level_set_at`) are not counted.
    unions = []
    reading_input = []
    tracked, level_set_at = demuth._tracked, DiffUnionTest.level_set_at

    def counted(u_now, v_snap):
        if not reading_input:
            unions.append(v_snap)
        return tracked(u_now, v_snap)

    def input_level(self, n, stage):
        reading_input.append(n)
        try:
            return level_set_at(self, n, stage)
        finally:
            reading_input.pop()

    monkeypatch.setattr(demuth, "_tracked", counted)
    monkeypatch.setattr(DiffUnionTest, "level_set_at", input_level)
    total = 0
    for i in range(20):
        rng = random.Random(f"u2d-count:{i}")
        test = random_diffunion_test(rng, levels=2 + rng.randrange(3), pair_bound=1 + rng.randrange(3),
                                     horizon=4 + rng.randrange(8))
        back = diffunion_to_demuth(test)
        assert not unions
        # A level with no pairs tracks the empty union, which is no union at all.
        versions = sum(level.version_count() for n, level in enumerate(back.levels) if test.levels[n + 1])
        _convert_u2d_rows(test)
        assert len(unions) == versions
        total += versions
        del unions[:]
    assert total > 20


def test_d2u_refuses_a_level_padded_past_the_guard():
    # One pair per declared version; a bound of 10^11 once built 2 * 10^11 empty sets.
    test = DemuthTest((VersionedOpenSet([(0, StagedOpenSet([], 4))]),), (demuth.PAIR_GUARD + 1,), 4)
    with pytest.raises(GuardExceeded, match=f"level 0 padded to {demuth.PAIR_GUARD + 1} pairs "
                                            f"refused \\(limit {demuth.PAIR_GUARD}\\)"):
        demuth_to_diffunion(test)
    out = demuth_to_diffunion(test._replace(version_bounds=(3,)))
    assert out.pair_bounds == (3,) and len({pair.v for pair in out.levels[0]}) == 1
