"""Stage-indexed stand-ins for effectively presented objects.

Everything here is a finite script: an enumeration schedule with a horizon.
Monotonicity in the stage index is structural (schedules are cumulative), so
the only invariants that need active checking are stage ordering, functional
consistency, and depth bounds on tree removals.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .bitstring import EMPTY, BitString
from .cylinders import EMPTY_SET, CylinderSet, _descend
from .dyadic import Dyadic
from .errors import GuardExceeded, InconsistentFunctional, RandlabError

StrLike = Union[BitString, str]


def _as_events(events: Iterable[Tuple[int, Iterable[StrLike]]]) -> Tuple[Tuple[int, Tuple[BitString, ...]], ...]:
    out = []
    last = -1
    for stage, strings in events:
        stage = int(stage)
        if stage < 0:
            raise RandlabError(f"negative stage {stage}")
        if stage <= last:
            raise RandlabError(f"stages must be strictly increasing, got {stage} after {last}")
        last = stage
        out.append((stage, tuple(sorted(BitString(s) for s in strings))))
    return tuple(out)


class Enumerator:
    """A monotone stage -> finite-string-set schedule with a horizon.

    `at(s)` is the set enumerated by stage s; stages past the horizon return
    the final set, stages before the first event return nothing.
    """

    __slots__ = ("events", "horizon")

    def __init__(self, events: Iterable[Tuple[int, Iterable[StrLike]]], horizon: Optional[int] = None) -> None:
        self.events = _as_events(events)
        last = self.events[-1][0] if self.events else 0
        self.horizon = last if horizon is None else int(horizon)
        if self.horizon < last:
            raise RandlabError(f"horizon {self.horizon} precedes last event at {last}")

    def at(self, stage: int) -> frozenset:
        acc: set = set()
        for s, strings in self.events:
            if s > stage:
                break
            acc.update(strings)
        return frozenset(acc)

    def final(self) -> frozenset:
        return self.at(self.horizon)

    def first_stage_of(self, s: BitString) -> Optional[int]:
        for stage, strings in self.events:
            if s in strings:
                return stage
        return None

    def first_extension_stage(self, prefix: BitString) -> Optional[Tuple[int, BitString]]:
        """Earliest stage enumerating an extension of `prefix`, with the
        length-lex least such string at that stage."""
        for stage, strings in self.events:
            hits = sorted(t for t in strings if t.extends(prefix))
            if hits:
                return stage, min(hits, key=lambda t: (len(t), t.bits))
        return None

    def __repr__(self) -> str:
        return f"Enumerator({len(self.events)} events, horizon={self.horizon})"


class StagedOpenSet:
    """An open set revealed stagewise: the union of cylinders enumerated so far."""

    __slots__ = ("enumerator", "_cache")

    def __init__(self, enumerator: Enumerator) -> None:
        self.enumerator = enumerator
        self._cache: Dict[int, CylinderSet] = {}

    @staticmethod
    def from_events(events, horizon: Optional[int] = None) -> "StagedOpenSet":
        return StagedOpenSet(Enumerator(events, horizon))

    @staticmethod
    def constant(strings: Iterable[StrLike], horizon: int = 0) -> "StagedOpenSet":
        strings = list(strings)
        return StagedOpenSet(Enumerator([(0, strings)] if strings else [], horizon))

    @staticmethod
    def empty(horizon: int = 0) -> "StagedOpenSet":
        return StagedOpenSet(Enumerator([], horizon))

    @property
    def horizon(self) -> int:
        return self.enumerator.horizon

    def open_at(self, stage: int) -> CylinderSet:
        stage = min(max(stage, -1), self.horizon)
        if stage not in self._cache:
            self._cache[stage] = CylinderSet.normalize(self.enumerator.at(stage))
        return self._cache[stage]

    def final(self) -> CylinderSet:
        return self.open_at(self.horizon)

    def measure_at(self, stage: int) -> Dyadic:
        return self.open_at(stage).measure()

    def __repr__(self) -> str:
        return f"StagedOpenSet({self.enumerator!r})"


class TuringFunctional:
    """A monotone oracle-to-output map given by stage-dated axioms (sigma, tau).

    Reading an axiom (sigma, tau) as "every oracle extending sigma computes
    at least tau", consistency demands that comparable oracles never receive
    incomparable outputs.  The check runs over the full final axiom set at
    construction, which covers every stage because schedules only grow.
    """

    __slots__ = ("events", "horizon")

    def __init__(self, events: Iterable[Tuple[int, Iterable[Tuple[StrLike, StrLike]]]], horizon: Optional[int] = None) -> None:
        norm: List[Tuple[int, Tuple[Tuple[BitString, BitString], ...]]] = []
        last = -1
        for stage, pairs in events:
            stage = int(stage)
            if stage <= last:
                raise RandlabError(f"stages must be strictly increasing, got {stage} after {last}")
            last = stage
            norm.append((stage, tuple(sorted((BitString(a), BitString(b)) for a, b in pairs))))
        self.events = tuple(norm)
        last_stage = self.events[-1][0] if self.events else 0
        self.horizon = last_stage if horizon is None else int(horizon)
        if self.horizon < last_stage:
            raise RandlabError(f"horizon {self.horizon} precedes last event at {last_stage}")
        self._check_consistency()

    def _check_consistency(self) -> None:
        axioms = self.axioms_at(self.horizon)
        for i, (s1, t1) in enumerate(axioms):
            for s2, t2 in axioms[i + 1:]:
                if s1.comparable(s2) and not t1.comparable(t2):
                    raise InconsistentFunctional(
                        f"axioms ({s1},{t1}) and ({s2},{t2}) disagree on a common oracle"
                    )

    def axioms_at(self, stage: int) -> Tuple[Tuple[BitString, BitString], ...]:
        acc: List[Tuple[BitString, BitString]] = []
        for s, pairs in self.events:
            if s > stage:
                break
            acc.extend(pairs)
        return tuple(sorted(set(acc)))

    def apply(self, sigma: StrLike, stage: int) -> BitString:
        """Longest output granted to oracles extending `sigma` by `stage`.

        Consistency makes the applicable outputs pairwise comparable, so the
        longest one is unique.  No applicable axiom means the empty output.
        """
        sigma = BitString(sigma)
        best = EMPTY
        for ax_s, ax_t in self.axioms_at(stage):
            if ax_s.is_prefix_of(sigma) and len(ax_t) > len(best):
                best = ax_t
        return best

    def preimage(self, tau: StrLike, stage: int) -> CylinderSet:
        """Clopen set of oracle prefixes whose output extends `tau` by `stage`."""
        tau = BitString(tau)
        if len(tau) == 0:
            # Every oracle computes the empty output.
            return CylinderSet(True)
        gens = [ax_s for ax_s, ax_t in self.axioms_at(stage) if ax_t.extends(tau)]
        return CylinderSet.normalize(gens)

    def __repr__(self) -> str:
        return f"TuringFunctional({len(self.axioms_at(self.horizon))} axioms, horizon={self.horizon})"


class Pi01Tree:
    """A co-enumerated class: all of Cantor space minus staged cylinder removals.

    Removing a string kills every extension.  `depth` bounds both removal
    lengths and the leaf level at which survivor counts are measured.
    """

    __slots__ = ("depth", "events", "horizon", "_removed_cache")

    def __init__(self, depth: int, events: Iterable[Tuple[int, Iterable[StrLike]]] = (), horizon: Optional[int] = None) -> None:
        if depth < 1:
            raise RandlabError("tree depth must be positive")
        self.depth = int(depth)
        self.events = _as_events(events)
        for _, strings in self.events:
            for s in strings:
                if len(s) > self.depth:
                    raise RandlabError(f"removal {s} deeper than tree depth {self.depth}")
        last = self.events[-1][0] if self.events else 0
        self.horizon = last if horizon is None else int(horizon)
        if self.horizon < last:
            raise RandlabError(f"horizon {self.horizon} precedes last event at {last}")
        self._removed_cache: Dict[int, CylinderSet] = {}

    def removed_open(self, stage: int) -> CylinderSet:
        stage = min(max(stage, -1), self.horizon)
        if stage not in self._removed_cache:
            acc: set = set()
            for s, strings in self.events:
                if s > stage:
                    break
                acc.update(strings)
            self._removed_cache[stage] = CylinderSet.normalize(acc)
        return self._removed_cache[stage]

    def viable(self, sigma: StrLike, stage: int) -> bool:
        """Exact check that [sigma] still meets the class at `stage`."""
        return not self.removed_open(stage).shift(BitString(sigma)).is_full()

    def intact(self, sigma: StrLike, stage: int) -> bool:
        """True when no removal touches [sigma]: the whole cylinder survives."""
        return not self.removed_open(stage).meets_cylinder(BitString(sigma))

    def survivors(self, sigma: StrLike, length: int, stage: int) -> Tuple[BitString, ...]:
        """All length-`length` extensions of sigma whose cylinder still meets
        the class at `stage` (exact, certified against the removals so far)."""
        sigma = BitString(sigma)
        if length < len(sigma):
            raise RandlabError("survivor length shorter than the stem")
        if length > self.depth:
            raise RandlabError(f"survivor length {length} exceeds depth {self.depth}")
        span = length - len(sigma)
        if span > 20:
            raise GuardExceeded(f"survivor enumeration over 2^{span} strings refused")
        removed = self.removed_open(stage)
        out = []
        for tail in BitString.all_strings(span):
            tau = sigma + tail
            if not removed.shift(tau).is_full():
                out.append(tau)
        return tuple(out)

    def class_measure(self, stage: int) -> Dyadic:
        """Exact measure of the stage-`stage` class (equivalently, of the
        surviving depth-level leaves)."""
        return Dyadic(1) - self.removed_open(stage).measure()

    def _extreme_intact(self, sigma: BitString, length: int, stage: int, want_left: bool) -> Optional[BitString]:
        """Lex-least (or -greatest) fully intact extension of sigma at `length`."""
        # A removal on or above sigma kills everything; none at all below
        # sigma leaves the whole cylinder intact.
        node = _descend(self.removed_open(stage)._tree, sigma.bits)
        if node is True:
            return None
        fill = "0" if want_left else "1"
        span = length - len(sigma)
        if node is False:
            return sigma + BitString(fill * span)
        order = ("0", "1") if want_left else ("1", "0")
        # Depth-first in the wanted order; the first empty subtree found is
        # the answer.  `dead` holds (node, remaining) pairs already searched
        # in vain, so shared subtrees are searched once.
        dead = set()
        path: List[str] = []
        frames = [[node, span, 0]]
        while frames:
            frame = frames[-1]
            nd, remaining, tried = frame
            if tried == 2 or remaining == 0:
                # remaining == 0 with removals strictly below: not intact.
                dead.add((nd, remaining))
                frames.pop()
                if frames:
                    path.pop()
                continue
            frame[2] = tried + 1
            bit = order[tried]
            child = nd.one if bit == "1" else nd.zero
            if child is False:
                path.append(bit)
                return sigma + BitString("".join(path) + fill * (remaining - 1))
            if child is True or (child, remaining - 1) in dead:
                continue
            path.append(bit)
            frames.append([child, remaining - 1, 0])
        return None

    def leftmost_intact(self, sigma: StrLike, length: int, stage: int) -> Optional[BitString]:
        return self._extreme_intact(BitString(sigma), length, stage, True)

    def rightmost_intact(self, sigma: StrLike, length: int, stage: int) -> Optional[BitString]:
        return self._extreme_intact(BitString(sigma), length, stage, False)

    def restrict(self, extra: StagedOpenSet) -> "Pi01Tree":
        """The class cut down by the complement of a staged open set: the
        open set's cylinders become additional staged removals."""
        for _, strings in extra.enumerator.events:
            for s in strings:
                if len(s) > self.depth:
                    raise RandlabError(f"restriction string {s} deeper than depth {self.depth}")
        merged: Dict[int, set] = {}
        for stage, strings in self.events:
            merged.setdefault(stage, set()).update(strings)
        for stage, strings in extra.enumerator.events:
            merged.setdefault(stage, set()).update(strings)
        events = sorted((stage, sorted(strs)) for stage, strs in merged.items())
        return Pi01Tree(self.depth, events, max(self.horizon, extra.horizon))

    def __repr__(self) -> str:
        return f"Pi01Tree(depth={self.depth}, {len(self.events)} removal events, horizon={self.horizon})"
