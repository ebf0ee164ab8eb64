"""Versioned open-set tests and the two conversions between their shapes.

A versioned level models an open set whose defining index is revised a
bounded number of times: each version is a full staged open set, the live
version at a stage is the latest one declared by then, and before the first
declaration the level reads as empty.  A difference-union level instead
lists pairs (U, V) and denotes the union of the differences U minus V.

The two conversions preserve the denoted sets in the directions the theory
promises: version lists can be re-read as difference pairs exactly, and
difference pairs can be tracked by a version list whose revision count and
final measure stay within explicit budgets.

A versioned level is a schedule of its versions (`staged._Schedule`).  The
converse conversion states each version by its value at the change stages
of the U_k (`staged.ValuedOpenSet`), so a version computes its tracked
union only at the stages it is read, and counts the quanta a measure
exceeds in integers.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .bitstring import BitString
from .cylinders import EMPTY_SET, CylinderSet
from .dyadic import Dyadic
from .errors import GuardExceeded, RandlabError
from .staged import StagedOpenSet, ValuedOpenSet, _check_int, _dated, _Schedule


class VersionedOpenSet(_Schedule):
    """An open set under bounded revision: (declaration_stage, set) entries.

    A schedule of its versions: declaration stages are strictly increasing,
    and the snapshot a stage reads is the version live there.  Every entry
    is a staged open set in its own right (enumerated, or stated by value
    as a `ValuedOpenSet`) and keeps growing after being superseded; only
    its declaration is frozen.
    """

    __slots__ = ("versions",)

    def __init__(self, versions: Iterable[Tuple[int, StagedOpenSet]]) -> None:
        self.versions = _dated(versions, what="version stage")
        # No version is live before the first declaration.
        super().__init__(self.versions, None, (None, *(version for _, version in self.versions)))

    def version_count(self) -> int:
        return len(self.versions)

    live_at = _Schedule._at

    def open_at(self, stage: int) -> CylinderSet:
        live = self.live_at(stage)
        return EMPTY_SET if live is None else live.open_at(stage)

    def __repr__(self) -> str:
        return f"VersionedOpenSet({self.version_count()} versions)"


class _DemuthTestFields(NamedTuple):
    levels: Tuple[VersionedOpenSet, ...]
    version_bounds: Tuple[int, ...]
    horizon: int


class DemuthTest(_DemuthTestFields):
    """Levels of versioned open sets; level n owes final measure <= 2^-n and
    at most version_bounds[n] versions."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        _check_int(self.horizon, "horizon")
        if len(self.levels) != len(self.version_bounds):
            raise RandlabError("one version bound per level required")
        for n, level in enumerate(self.levels):
            # The audit reads each level at the horizon and would miss it.
            if level.versions and level.versions[-1][0] > self.horizon:
                raise RandlabError(f"horizon {self.horizon} precedes last version of "
                                   f"level {n} at {level.versions[-1][0]}")

    def level_final(self, n: int) -> CylinderSet:
        return self.levels[n].open_at(self.horizon)


class DiffPair(NamedTuple):
    u: StagedOpenSet
    v: StagedOpenSet


class _DiffUnionTestFields(NamedTuple):
    levels: Tuple[Tuple[DiffPair, ...], ...]
    pair_bounds: Tuple[int, ...]
    horizon: int


class DiffUnionTest(_DiffUnionTestFields):
    """Levels of difference-pair lists; level n denotes union of (U_k - V_k)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        _check_int(self.horizon, "horizon")
        if len(self.levels) != len(self.pair_bounds):
            raise RandlabError("one pair bound per level required")

    def level_set_at(self, n: int, stage: int) -> CylinderSet:
        pairs = self.levels[n]
        return _tracked([p.u.open_at(stage) for p in pairs], [p.v.open_at(stage) for p in pairs])

    def level_final(self, n: int) -> CylinderSet:
        return self.level_set_at(n, self.horizon)


class LevelReport(NamedTuple):
    level: int
    version_count: int
    version_bound: int
    measure: Dyadic
    measure_bound: Dyadic
    ok: bool


class TestReport(NamedTuple):
    rows: Tuple[LevelReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _audit(test, counts: Iterable[int], bounds: Sequence[int]) -> TestReport:
    """Per-level audit: count within bound, final measure <= 2^-n."""
    rows = []
    for n, (count, bound) in enumerate(zip(counts, bounds)):
        measure = test.level_final(n).measure()
        cap = Dyadic.half_pow(n)
        rows.append(LevelReport(n, count, bound, measure, cap, count <= bound and measure <= cap))
    return TestReport(tuple(rows))


def verify_demuth(test: DemuthTest) -> TestReport:
    return _audit(test, (level.version_count() for level in test.levels), test.version_bounds)


def verify_diffunion(test: DiffUnionTest) -> TestReport:
    return _audit(test, map(len, test.levels), test.pair_bounds)


PAIR_GUARD = 1 << 16


def demuth_to_diffunion(test: DemuthTest) -> DiffUnionTest:
    """Re-read each version list as difference pairs, exactly.

    Pair k is (k-th version, k-th version) when a (k+1)-th version exists
    and (k-th version, empty) when it does not, so every superseded pair
    cancels and the union of differences is precisely the final version.
    The pair list is padded to the declared version bound, at most
    `PAIR_GUARD`, by pairs of one shared empty set.
    """
    empty = StagedOpenSet([], test.horizon)
    levels = []
    for n, level in enumerate(test.levels):
        count = level.version_count()
        width = max(test.version_bounds[n], count)
        if width > PAIR_GUARD:
            raise GuardExceeded(f"level {n} padded to {width} pairs refused (limit {PAIR_GUARD})")
        versions = [version for _, version in level.versions] + [empty] * (width - count)
        levels.append(tuple(DiffPair(u, u if k + 1 < count else empty)
                            for k, u in enumerate(versions)))
    return DiffUnionTest(tuple(levels), tuple(map(len, levels)), test.horizon)


def _multiples_exceeded(measure: Dyadic, c: int, n: int) -> int:
    """How many positive multiples of 2^-(n+1) / c the measure strictly exceeds.

    Over that quantum the measure num / 2^exp reads t = a / 2^exp with
    a = num * c * 2^(n+1); a positive t exceeds ceil(t) - 1 multiples,
    which is (a - 1) >> exp.
    """
    a = (measure.num * c) << (n + 1)
    return (a - 1) >> measure.exp if a > 0 else 0


def _sweep(sets: Sequence[StagedOpenSet], horizon: int) -> Iterator[Tuple[int, List[int], List[CylinderSet]]]:
    """Walk stages 0..horizon where some set changes: at each, the indices of
    the sets that change there and every set's value, each set read only at
    its own change stages."""
    changes = [set(o.change_stages(horizon)) for o in sets]
    now = [EMPTY_SET] * len(sets)
    for s in sorted(set().union(*changes)):
        changed = [k for k, stages in enumerate(changes) if s in stages]
        for k in changed:
            now[k] = sets[k].open_at(s)
        yield s, changed, list(now)


def _tracked(u_now: Sequence[CylinderSet], v_snap: Sequence[CylinderSet]) -> CylinderSet:
    """One version's value where the U_k read `u_now`: the union of the
    U_k minus the V_k snapshots it subtracts."""
    acc = EMPTY_SET
    for u, v in zip(u_now, v_snap):
        acc = acc | (u - v)
    return acc


def diffunion_to_demuth(test: DiffUnionTest) -> DemuthTest:
    """Track each difference-union level one index up by a version list.

    Output level n watches input level n+1.  The first version is the union
    of the U_k alone; whenever some V_k's measure first strictly exceeds a
    new multiple of 2^-(n+1) / c (c = pair count), a fresh version is
    declared at that stage whose definition subtracts the V_k snapshots
    taken there (a crossing at stage 0 replaces the first version).
    Crossings in the same stage coalesce into one declaration, so the
    version count stays at most c^2 * 2^(n+1), every declaration is at or
    before the horizon, and the final measure stays at most 2^-n as long as
    the input level obeys its own bound.

    A tracked union can change only where some U_k changes and a crossing
    happen only where some V_k does, so both are read only at the change
    stages of their schedules (`_sweep`).  Each version is a
    `ValuedOpenSet` of its tracked union at the U change stages, computed
    only where the version is read: an audit at the horizon computes one
    union per version.
    """
    if not test.levels:
        raise RandlabError("no input levels to convert")
    out_levels: List[VersionedOpenSet] = []
    out_bounds: List[int] = []
    for n in range(len(test.levels) - 1):
        pairs = test.levels[n + 1]
        cap_in = Dyadic.half_pow(n + 1)
        if test.level_final(n + 1).measure() > cap_in:
            raise RandlabError(
                f"input level {n + 1} breaks its measure bound; refusing to convert"
            )
        c = max(1, len(pairs))
        u_rows = [(s, u_now) for s, _, u_now in _sweep([pair.u for pair in pairs], test.horizon)]
        # Declaration stage -> the V snapshots its version subtracts; a
        # crossing at stage 0 replaces the first version, which subtracts none.
        snapshots = {0: [EMPTY_SET] * len(pairs)}
        exceeded = [0] * len(pairs)
        for s, changed, v_now in _sweep([pair.v for pair in pairs], test.horizon):
            crossed = False
            for k in changed:
                now = _multiples_exceeded(v_now[k].measure(), c, n)
                if now > exceeded[k]:
                    exceeded[k] = now
                    crossed = True
            if crossed:
                snapshots[s] = v_now
        # Each value binds this level's rows and its own V snapshots.
        out_levels.append(VersionedOpenSet([
            (s, ValuedOpenSet([(row, partial(_tracked, u_now, v_snap)) for row, u_now in u_rows],
                              test.horizon))
            for s, v_snap in snapshots.items()]))
        out_bounds.append(c * c * (1 << (n + 1)))
    return DemuthTest(tuple(out_levels), tuple(out_bounds), test.horizon)


def solovay_membership_profile(x: BitString, test) -> frozenset:
    """Indices of the levels whose final set swallows the cylinder at `x`."""
    if not isinstance(test, (DemuthTest, DiffUnionTest)):
        raise RandlabError(f"not a test: {test!r}")
    return frozenset(n for n in range(len(test.levels)) if test.level_final(n).contains_prefix_of(x))
