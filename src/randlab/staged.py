"""Stage-indexed stand-ins for effectively presented objects.

Everything here is a finite script: dated events with a horizon.  One
private `_Schedule` checks the stages (integers, non-negative, strictly
increasing, horizon at or past the last event) and holds one snapshot per
event, so every stage query is a `bisect` on the event stages that returns
a stored snapshot.  Enumerations and axiom sets are schedules whose
snapshots accumulate their events at construction; each distinct axiom is
converted and keyed once.  A staged open set is an enumeration of its
generators that also answers the open set they generate; a co-enumerated
tree is the staged open set of its removals with a depth bound.  A
`ValuedOpenSet` states a staged open set by its value at each change stage
instead: its snapshots are deferred values, each computed the first time a
stage that reads it is asked, so a set read only at its horizon computes
one value.  What a query derives from a snapshot is built once per
snapshot (`_per_snapshot`); a tree's intact extensions are read off its
removed open set, whose trie keeps what they need.  Monotonicity in the
stage index is therefore structural, and the only invariants left to
check are functional consistency and depth bounds on tree removals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from .bitstring import EMPTY, BitString, length_lex
from .cylinders import CylinderSet
from .dyadic import Dyadic
from .errors import InconsistentFunctional, RandlabError

StrLike = Union[BitString, str]
T = TypeVar("T", bound=Hashable)


def by_stage(dated: Iterable[Tuple[int, T]]) -> List[Tuple[int, List[T]]]:
    """Group (stage, item) pairs into events: stages ascending, each item
    once per stage, in the order first given."""
    buckets: Dict[int, Dict[T, None]] = {}
    for stage, item in dated:
        buckets.setdefault(stage, {})[item] = None
    return [(stage, list(buckets[stage])) for stage in sorted(buckets)]


def first_seen(snapshots: Iterable[Tuple[int, Iterable[T]]]) -> List[Tuple[int, List[T]]]:
    """Events dating each item by the first snapshot that holds it; the
    (stage, items) snapshots come in increasing stage order."""
    first: Dict[T, int] = {}
    for stage, items in snapshots:
        for item in items:
            first.setdefault(item, stage)
    return by_stage((stage, item) for item, stage in first.items())


def _bits(s: StrLike) -> BitString:
    # Strings already normalised pass through, so merged schedules re-read none.
    return s if isinstance(s, BitString) else BitString(s)


Axiom = Tuple[BitString, BitString]
# Length-lex on sigma, then on tau: the order of the (sigma, tau) tuples,
# compared and hashed in C; equal keys are equal axioms.
AxiomKey = Tuple[int, str, int, str]


def _axiom(seen: Dict[tuple, Tuple[AxiomKey, Axiom]], pair: Tuple[StrLike, StrLike]) -> Tuple[AxiomKey, Axiom]:
    """The pair's sort key and the pair as bit strings, made once per
    distinct pair in `seen`."""
    sigma, tau = pair
    raw = (sigma, tau)  # scenario JSON gives each pair as a list, which cannot be a key
    found = seen.get(raw)
    if found is None:
        axiom = (_bits(sigma), _bits(tau))
        found = seen[raw] = (length_lex(axiom[0]) + length_lex(axiom[1]), axiom)
    return found


def _cumulative_sets(events: Sequence[Tuple[int, tuple]]) -> List[frozenset]:
    """Snapshot i is the set of everything events 0..i-1 enumerate."""
    acc: set = set()
    snapshots = [frozenset()]
    for _, items in events:
        acc.update(items)
        snapshots.append(frozenset(acc))
    return snapshots


def _least_above(snapshot: frozenset) -> Dict[str, BitString]:
    """Bits of each prefix of a snapshot's strings -> the length-lex least
    string above it.  In length-lex order the first string to reach a
    prefix is its least; the prefixes of a reached one are reached too."""
    table: Dict[str, BitString] = {}
    for t in sorted(snapshot, key=length_lex):
        bits = t.bits
        for n in range(len(bits), -1, -1):
            prefix = bits[:n]
            if prefix in table:
                break
            table[prefix] = t
    return table


def _check_int(value: object, what: str) -> None:
    # bool is an int subclass, and int() would truncate a float or read a string.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RandlabError(f"{what} {value!r} must be an integer")


def _same(items: object) -> object:
    return items


def _dated(events: Iterable[Tuple[int, object]], payload: Callable = _same, what: str = "stage") -> tuple:
    """The (stage, payload(items)) events, each stage checked as it is read:
    an integer, non-negative, and past the stage before."""
    out: List[Tuple[int, object]] = []
    for stage, items in events:
        _check_int(stage, what)
        if isinstance(items, str):
            raise RandlabError(f"items at {what} {stage} must be a list, got the string {items!r}")
        if stage < 0:
            raise RandlabError(f"negative {what} {stage}")
        if out and stage <= out[-1][0]:
            raise RandlabError(f"{what}s must be strictly increasing, got {stage} after {out[-1][0]}")
        out.append((stage, payload(items)))
    return tuple(out)


def _strings(items: Iterable[StrLike]) -> Tuple[BitString, ...]:
    # Sorted on a length-lex key compared in C (no Python `__lt__` per comparison).
    return tuple(sorted(map(_bits, items), key=length_lex))


class _Schedule:
    """Checked dated events with a horizon at or past the last of them.

    `snapshots` holds one snapshot per event, the one after event i
    standing for everything events 0..i give, plus snapshot 0, the one
    every stage before the first event reads.  A query at a stage reads the
    snapshot of the last event by then, found by a `bisect`.
    """

    __slots__ = ("horizon", "_stages", "_snapshots", "_built")

    def __init__(self, dated: Sequence[Tuple[int, object]], horizon: Optional[int],
                 snapshots: Sequence) -> None:
        self._stages = [stage for stage, _ in dated]
        last = self._stages[-1] if dated else 0
        self.horizon = last if horizon is None else horizon
        _check_int(self.horizon, "horizon")
        if self.horizon < last:
            raise RandlabError(f"horizon {self.horizon} precedes last event at {last}")
        self._snapshots = tuple(snapshots)
        self._built: Dict[Tuple[Callable, int], object] = {}

    def _at(self, stage: int):
        return self._snapshots[bisect_right(self._stages, stage)]

    def _per_snapshot(self, build: Callable, stage: int):
        """`build(snapshot)` for the snapshot `stage` reads, built the first
        time one of its stages asks: the stages between two events share it."""
        i = bisect_right(self._stages, stage)
        found = self._built.get((build, i))
        if found is None:
            found = self._built[build, i] = build(self._snapshots[i])
        return found

    def change_stages(self, upto: int) -> List[int]:
        """Stage 0 and every event stage up to `upto`, ascending: from one of
        these to the next, every stage query answers alike."""
        if upto < 0:
            return []
        return sorted({0, *self._stages[:bisect_right(self._stages, upto)]})

    def next_change(self, stage: int, limit: int) -> int:
        """The first event stage past `stage`, or `limit` if none comes before it."""
        i = bisect_right(self._stages, stage)
        return min(self._stages[i], limit) if i < len(self._stages) else limit


class Enumerator(_Schedule):
    """A monotone stage -> finite-string-set schedule with a horizon.

    `at(s)` is the set enumerated by stage s; stages past the horizon return
    the final set, stages before the first event return nothing.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Tuple[int, Iterable[StrLike]]], horizon: Optional[int] = None) -> None:
        self.events = _dated(events, _strings)
        super().__init__(self.events, horizon, _cumulative_sets(self.events))

    at = _Schedule._at

    def least_extension(self, sigma: StrLike, stage: int) -> Optional[BitString]:
        """The length-lex least string enumerated by `stage` that extends
        `sigma`, or None; one lookup in a table built once per snapshot."""
        return self._per_snapshot(_least_above, stage).get(_bits(sigma).bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.events)} events, horizon={self.horizon})"


class StagedOpenSet(Enumerator):
    """An open set revealed stagewise: the union of the cylinders enumerated
    so far, with the enumeration of its generators as its schedule."""

    __slots__ = ()

    def open_at(self, stage: int) -> CylinderSet:
        return self._per_snapshot(CylinderSet.normalize, stage)

    def final(self) -> CylinderSet:
        return self.open_at(self.horizon)


def _force(value: Callable[[], CylinderSet]) -> CylinderSet:
    return value()


class ValuedOpenSet(_Schedule):
    """A staged open set stated by its value at each of its change stages.

    Each value is a callable of no arguments, called the first time a stage
    that reads it is asked and kept (`_per_snapshot`): a set read only at
    its horizon computes one value.  The values must grow with the stage, as
    a staged open set's do.  `events`, derived on demand, dates each
    generator by the first value that holds it (`first_seen`).
    """

    __slots__ = ()

    def __init__(self, values: Iterable[Tuple[int, Callable[[], CylinderSet]]],
                 horizon: Optional[int] = None) -> None:
        dated = _dated(values)
        # Before the first value the set reads as empty: CylinderSet() is.
        super().__init__(dated, horizon, (CylinderSet, *(value for _, value in dated)))

    def open_at(self, stage: int) -> CylinderSet:
        return self._per_snapshot(_force, stage)

    final = StagedOpenSet.final

    @property
    def events(self) -> tuple:
        return Enumerator(first_seen((s, self.open_at(s).strings) for s in self._stages), self.horizon).events


def _check_consistent(axioms: Iterable[Tuple[BitString, BitString]]) -> None:
    """Refuse two axioms whose stems are comparable and whose outputs are not.

    One preorder pass: sorted by stem bits, a stem comes before its
    extensions and they follow it contiguously, so after popping the stems
    that are not prefixes of the one at hand, the stack holds exactly its
    ancestors (and equal stems).  Their outputs form a chain, checked as they
    were pushed, so an output comparable with the longest of them is
    comparable with all of them.
    """
    # (stem bits, the axiom with the longest output from the root down to it)
    stack: List[Tuple[str, Tuple[BitString, BitString]]] = []
    for sigma, tau in sorted(axioms, key=lambda axiom: axiom[0].bits):
        bits = sigma.bits
        while stack and not bits.startswith(stack[-1][0]):
            stack.pop()
        longest = (sigma, tau)
        if stack:
            above_s, above_t = stack[-1][1]
            if not tau.comparable(above_t):
                raise InconsistentFunctional(
                    f"axioms ({above_s},{above_t}) and ({sigma},{tau}) disagree on a common oracle"
                )
            if len(above_t) > len(tau):
                longest = (above_s, above_t)
        stack.append((bits, longest))


def _stem_table(axioms: Sequence[Tuple[BitString, BitString]]) -> Dict[str, BitString]:
    """Stem bits -> longest output among one snapshot's axioms."""
    # Within a stem the snapshot's order puts the longest output last.
    return {ax_s.bits: ax_t for ax_s, ax_t in axioms}


def _output_index(axioms: Sequence[Tuple[BitString, BitString]]):
    """One snapshot's preimage index: output bits ascending, the stems in the
    same order, and the preimages asked so far by tau bits."""
    ordered = sorted(axioms, key=lambda axiom: axiom[1].bits)
    return [ax_t.bits for _, ax_t in ordered], [ax_s for ax_s, _ in ordered], {}


class TuringFunctional(_Schedule):
    """A monotone oracle-to-output map given by stage-dated axioms (sigma, tau).

    Reading an axiom (sigma, tau) as "every oracle extending sigma computes
    at least tau", consistency demands that comparable oracles never receive
    incomparable outputs.  The check is one preorder pass over the final
    axiom set at construction (`_check_consistent`), which covers every
    stage because schedules only grow.  Each snapshot is the tuple of the
    axioms granted so far in length-lex order of (sigma, tau), cut from one
    sort of the distinct axioms.  `apply` reads a table from stem to longest
    output and `preimage` an index of the axioms sorted on output bits, each
    built once per snapshot the first time one of its stages is asked.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Tuple[int, Iterable[Tuple[StrLike, StrLike]]]], horizon: Optional[int] = None) -> None:
        seen: Dict[tuple, Tuple[AxiomKey, Axiom]] = {}
        dated = _dated(events, lambda items: sorted([_axiom(seen, pair) for pair in items], key=itemgetter(0)))
        # Each distinct axiom with the first event granting it, in key order.
        first: Dict[AxiomKey, Tuple[int, Axiom]] = {}
        for i, (_, items) in enumerate(dated, 1):
            for key, axiom in items:
                first.setdefault(key, (i, axiom))
        ordered = [first[key] for key in sorted(first)]
        self.events = tuple([(stage, tuple([axiom for _, axiom in items])) for stage, items in dated])
        snapshots = [tuple([ax for since, ax in ordered if since <= i]) for i in range(len(dated) + 1)]
        super().__init__(self.events, horizon, snapshots)
        _check_consistent(self._snapshots[-1])

    axioms_at = _Schedule._at

    def apply(self, sigma: StrLike, stage: int) -> BitString:
        """Longest output granted to oracles extending `sigma` by `stage`.

        Consistency makes the applicable outputs pairwise comparable, so the
        longest one is unique; it is found by looking up the |sigma| + 1
        prefixes of sigma.  No applicable axiom means the empty output.
        """
        bits = _bits(sigma).bits
        table = self._per_snapshot(_stem_table, stage)
        best = EMPTY
        for n in range(len(bits) + 1):
            out = table.get(bits[:n])
            if out is not None and len(out) > len(best):
                best = out
        return best

    def preimage(self, tau: StrLike, stage: int) -> CylinderSet:
        """Clopen set of oracle prefixes whose output extends `tau` by `stage`.

        Sorted on their bits, the outputs extending tau are the contiguous
        run from tau up to tau + "2" ("2" sorts after both bits), found by
        two bisects; each snapshot answers each tau once.
        """
        key = _bits(tau).bits
        if not key:
            # Every oracle computes the empty output.
            return CylinderSet(True)
        outputs, stems, asked = self._per_snapshot(_output_index, stage)
        found = asked.get(key)
        if found is None:
            lo = bisect_left(outputs, key)
            found = asked[key] = CylinderSet.normalize(stems[lo:bisect_left(outputs, key + "2", lo)])
        return found

    def __repr__(self) -> str:
        return f"TuringFunctional({len(self._snapshots[-1])} axioms, horizon={self.horizon})"


def _check_depth(schedule: Enumerator, depth: int, what: str) -> None:
    """Refuse the first string, in event order, longer than `depth`."""
    deep = next((s for _, strings in schedule.events for s in strings if len(s) > depth), None)
    if deep is not None:
        raise RandlabError(f"{what} {deep} deeper than depth {depth}")


class Pi01Tree(StagedOpenSet):
    """A co-enumerated class: all of Cantor space minus staged cylinder removals.

    The tree is the staged open set of its removals: its events and
    snapshots are the removed strings, `open_at` the removed open set.
    Removing a string kills every extension.  `depth` bounds both removal
    lengths and the leaf level at which survivor counts are measured.
    """

    __slots__ = ("depth",)

    def __init__(self, depth: int, events: Iterable[Tuple[int, Iterable[StrLike]]] = (), horizon: Optional[int] = None) -> None:
        _check_int(depth, "tree depth")
        if depth < 1:
            raise RandlabError("tree depth must be positive")
        super().__init__(events, horizon)
        self.depth = depth
        _check_depth(self, depth, "removal")

    def removed_open(self, stage: int) -> CylinderSet:
        return self.open_at(stage)

    def viable(self, sigma: StrLike, stage: int) -> bool:
        """Exact check that [sigma] still meets the class at `stage`."""
        return not self.removed_open(stage).shift(BitString(sigma)).is_full()

    def class_measure(self, stage: int) -> Dyadic:
        """Exact measure of the stage-`stage` class (equivalently, of the
        surviving depth-level leaves)."""
        return Dyadic(1) - self.removed_open(stage).measure()

    def leftmost_intact(self, sigma: StrLike, length: int, stage: int) -> Optional[BitString]:
        return self.removed_open(stage).disjoint_extension(BitString(sigma), length)

    def rightmost_intact(self, sigma: StrLike, length: int, stage: int) -> Optional[BitString]:
        return self.removed_open(stage).disjoint_extension(BitString(sigma), length, rightmost=True)

    def restrict(self, extra: StagedOpenSet) -> "Pi01Tree":
        """The class cut down by the complement of a staged open set: the
        open set's cylinders become additional staged removals."""
        _check_depth(extra, self.depth, "restriction string")
        merged = by_stage((stage, s) for schedule in (self, extra)
                          for stage, strings in schedule.events for s in strings)
        return Pi01Tree(self.depth, merged, max(self.horizon, extra.horizon))

    def __repr__(self) -> str:
        return f"Pi01Tree(depth={self.depth}, {len(self.events)} removal events, horizon={self.horizon})"
