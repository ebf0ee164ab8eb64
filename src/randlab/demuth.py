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
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import BitString
from .cylinders import EMPTY_SET, CylinderSet
from .dyadic import Dyadic
from .errors import RandlabError
from .staged import StagedOpenSet, _check_int, first_seen


class VersionedOpenSet:
    """An open set under bounded revision: (declaration_stage, set) entries.

    Declaration stages are strictly increasing.  Every entry is a staged
    open set in its own right and keeps enumerating after being superseded;
    only its declaration is frozen.
    """

    __slots__ = ("versions", "_stages")

    def __init__(self, versions: Sequence[Tuple[int, StagedOpenSet]]) -> None:
        self.versions = tuple(versions)
        self._stages = [stage for stage, _ in self.versions]
        for last, stage in zip([-1] + self._stages, self._stages):
            _check_int(stage, "version stage")
            if stage <= last:
                raise RandlabError(f"version stages must increase, got {stage} after {last}")

    def version_count(self) -> int:
        return len(self.versions)

    def live_at(self, stage: int) -> Optional[StagedOpenSet]:
        i = bisect_right(self._stages, stage)
        return self.versions[i - 1][1] if i else None

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
        acc = EMPTY_SET
        for pair in self.levels[n]:
            acc = acc | (pair.u.open_at(stage) - pair.v.open_at(stage))
        return acc

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


def demuth_to_diffunion(test: DemuthTest) -> DiffUnionTest:
    """Re-read each version list as difference pairs, exactly.

    Pair k is (k-th version, k-th version) when a (k+1)-th version exists
    and (k-th version, empty) when it does not, so every superseded pair
    cancels and the union of differences is precisely the final version.
    The pair list is padded to the declared version bound.
    """
    levels = []
    for n, level in enumerate(test.levels):
        pairs: List[DiffPair] = []
        count = level.version_count()
        width = max(test.version_bounds[n], count)
        for k in range(width):
            if k < count:
                u = level.versions[k][1]
                v = u if k + 1 < count else StagedOpenSet.empty(test.horizon)
            else:
                u = StagedOpenSet.empty(test.horizon)
                v = StagedOpenSet.empty(test.horizon)
            pairs.append(DiffPair(u, v))
        levels.append(tuple(pairs))
    return DiffUnionTest(tuple(levels), tuple(max(b, l.version_count()) for b, l in zip(test.version_bounds, test.levels)), test.horizon)


def _multiples_exceeded(measure: Dyadic, quantum: Fraction) -> int:
    """How many positive multiples of `quantum` the measure strictly exceeds."""
    t = measure.as_fraction() / quantum
    if t <= 0:
        return 0
    return (t.numerator - 1) // t.denominator


def _sweep(sets: Sequence[StagedOpenSet], horizon: int) -> Iterator[Tuple[int, List[int], List[CylinderSet]]]:
    """Walk stages 0..horizon where some set changes: at each, the indices of
    the sets that change there and every set's value, each set read only at
    its own change stages."""
    changes = [set(o.enumerator.change_stages(horizon)) for o in sets]
    now = [EMPTY_SET] * len(sets)
    for s in sorted(set().union(*changes)):
        changed = [k for k, stages in enumerate(changes) if s in stages]
        for k in changed:
            now[k] = sets[k].open_at(s)
        yield s, changed, list(now)


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
    stages of their schedules (`_sweep`).
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
        quantum = Fraction(1, c * (1 << (n + 1)))
        u_rows = list(_sweep([pair.u for pair in pairs], test.horizon))

        def version_from_snapshot(v_snap: List[CylinderSet]) -> StagedOpenSet:
            def tracked(u_now: List[CylinderSet]) -> CylinderSet:
                acc = EMPTY_SET
                for u, v in zip(u_now, v_snap):
                    acc = acc | (u - v)
                return acc

            events = first_seen((s, tracked(u_now).strings) for s, _, u_now in u_rows)
            return StagedOpenSet.from_events(events, test.horizon)

        # Declaration stage -> the V snapshots its version subtracts; a
        # crossing at stage 0 replaces the first version, which subtracts none.
        snapshots = {0: [EMPTY_SET] * len(pairs)}
        exceeded = [0] * len(pairs)
        for s, changed, v_now in _sweep([pair.v for pair in pairs], test.horizon):
            crossed = False
            for k in changed:
                now = _multiples_exceeded(v_now[k].measure(), quantum)
                if now > exceeded[k]:
                    exceeded[k] = now
                    crossed = True
            if crossed:
                snapshots[s] = v_now
        out_levels.append(VersionedOpenSet([(s, version_from_snapshot(v_snap))
                                            for s, v_snap in snapshots.items()]))
        out_bounds.append(c * c * (1 << (n + 1)))
    return DemuthTest(tuple(out_levels), tuple(out_bounds), test.horizon)


def solovay_membership_profile(x: BitString, test) -> frozenset:
    """Indices of the levels whose final set swallows the cylinder at `x`."""
    if not isinstance(test, (DemuthTest, DiffUnionTest)):
        raise RandlabError(f"not a test: {test!r}")
    return frozenset(n for n in range(len(test.levels)) if test.level_final(n).contains_prefix_of(x))
