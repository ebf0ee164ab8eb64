"""The guess-with-a-random-cap construction against scripted adversaries.

One strategy per adversary enumeration.  A strategy repeatedly guesses that
no extension of the current working prefix will ever be enumerated by its
adversary; each guess is passive until a privately drawn cap is reached, at
which point the strategy commits: it announces an extension will appear and
freezes the whole construction until one does.  Passive guesses cost
nothing, a satisfied commitment appends the found extension to the working
prefix, and an unanswered one stalls the run to its stage budget.

Because a cap only matters at the strategy's own decision points, two runs
differing in one cap coincide up to the first diverging decision.  That
yields the sharp sweep picture: fixing all other caps, at most one value of
a strategy's cap ends in an unanswered commitment, every smaller value ends
answered, every larger one ends passively.  `sweep` turns this into the
algorithm: it runs the engine on boxes of cap vectors, one range per
strategy, and splits a box only where `guesses < cap` is undecided on it,
so it makes one run per behaviour and its leaf boxes tile the cap space.
The box split off resumes the run at the step that split it, so the walk
costs the split tree, not the leaves times the run length.  It folds the
leaves into what the reports read: the leaf boxes, the exact failure
probability as a dyadic rational, and each strategy's commitments and
answers on the oracle side, each value one trie built in one pass over
the boxes dated by then.  Neither the walk nor the failure sets grow with
the vectors, so `sweep` walks any cap space `FireworksConfig.build`
allows; only the reports that spell vectors out are guarded
(`scenario.SWEEP_GUARD`).

An engine step asks an adversary one thing: the least string it has
enumerated above a prefix (`Enumerator.least_extension`), a lookup in a
table built once per snapshot.  A scenario run walks each config once, and
its sweep, extract and trichotomy reports all read that walk
(`scenario.Context.swept`).
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import EMPTY, BitString
from .cylinders import EMPTY_SET, FULL_SET, CylinderSet, intervals_set
from .dyadic import Dyadic
from .errors import RandlabError
from .staged import Enumerator, ValuedOpenSet

# Caps are drawn, listed and written as integers; past 2^64 their decimal
# form outgrows what a report or an error message should hold.
CAP_BOUND_BITS = 64


class Outcome(Enum):
    PASSIVE_SUCCESS = "PassiveSuccess"
    ACTIVE_SUCCESS = "ActiveSuccess"
    ACTIVE_FAILURE = "ActiveFailure"
    UNRESOLVED = "Unresolved"


class Requirement(Enum):
    MET_INSIDE = "MetInside"
    MET_AVOIDED = "MetAvoided"
    UNMET = "Unmet"


def default_cap_bounds(count: int, k: int) -> Tuple[int, ...]:
    """Cap ranges 2^(e+k+1); their inverses sum to 2^-k (1 - 2^-count) < 2^-k."""
    return tuple(1 << (e + k + 1) for e in range(count))


class FireworksConfig(NamedTuple):
    adversaries: Tuple[Enumerator, ...]
    k: int
    cap_bounds: Tuple[int, ...]
    target_length: int
    stage_budget: int

    @staticmethod
    def build(
        adversaries: Sequence[Enumerator],
        k: int,
        target_length: int,
        stage_budget: int,
        cap_bounds: Optional[Sequence[int]] = None,
    ) -> "FireworksConfig":
        adversaries = tuple(adversaries)
        if k < 0:
            raise RandlabError(f"k {k} must be non-negative")
        if target_length < 1:
            raise RandlabError(f"target_length {target_length} must be positive")
        defaults = cap_bounds is None
        if defaults and adversaries and k + len(adversaries) > CAP_BOUND_BITS:
            # Refused before the bounds are built: a large k makes them huge.
            raise RandlabError(f"k {k} gives default cap bounds up to 2^{k + len(adversaries)}, "
                               f"over 2^{CAP_BOUND_BITS}")
        bounds = default_cap_bounds(len(adversaries), k) if defaults else tuple(cap_bounds)
        if len(bounds) != len(adversaries):
            raise RandlabError("one cap bound per adversary required")
        for n in bounds:
            if n < 2 or n & (n - 1):
                raise RandlabError(f"cap bound {n} must be a power of two, at least 2")
            if n > 1 << CAP_BOUND_BITS:
                raise RandlabError(f"cap bound 2^{n.bit_length() - 1} exceeds 2^{CAP_BOUND_BITS}")
        for w in adversaries:
            if w.horizon > stage_budget:
                raise RandlabError(
                    f"adversary horizon {w.horizon} exceeds stage budget {stage_budget}; "
                    "outcomes at the horizon would be unsound"
                )
        return FireworksConfig(adversaries, k, bounds, target_length, stage_budget)

    @property
    def block_lengths(self) -> Tuple[int, ...]:
        return tuple(n.bit_length() - 1 for n in self.cap_bounds)


class StrategyRecord(NamedTuple):
    index: int
    outcome: Outcome
    guesses_made: int
    final_guess: Optional[BitString]
    active_stage: Optional[int]
    answer_stage: Optional[int]
    failure_proven: bool


class FireworksRun(NamedTuple):
    x_prefix: BitString
    caps: Tuple[int, ...]
    records: Tuple[StrategyRecord, ...]
    stages_used: int
    halted_by: Optional[int]
    trace: Tuple[str, ...]

    @property
    def outcomes(self) -> Tuple[Outcome, ...]:
        return tuple(r.outcome for r in self.records)

    @property
    def failed(self) -> bool:
        return any(r.outcome is Outcome.ACTIVE_FAILURE for r in self.records)


def oracle_block_caps(oracle: BitString, cap_bounds: Sequence[int]) -> Tuple[int, ...]:
    """Read one cap per bound from consecutive oracle blocks.

    A bound of 2^l consumes l bits; the block value v yields cap v + 1, so
    caps are uniform on 1..2^l exactly when the oracle bits are fair.
    """
    caps = []
    pos = 0
    for n in cap_bounds:
        l = n.bit_length() - 1
        if pos + l > len(oracle):
            raise RandlabError(f"oracle of length {len(oracle)} too short for blocks")
        block = oracle[pos:pos + l]
        caps.append((int(block.bits, 2) if len(block) else 0) + 1)
        pos += l
    return tuple(caps)


def caps_from_seed(seed: int, cap_bounds: Sequence[int]) -> Tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randrange(n) + 1 for n in cap_bounds)


class _Strategy:
    __slots__ = ("index", "cap", "enum", "guesses", "guess_prefix", "active_stage",
                 "answer_stage", "wait_prefix")

    def __init__(self, index: int, cap: int, enum: Enumerator) -> None:
        self.index = index
        self.cap = cap
        self.enum = enum
        self.guesses = 0
        self.guess_prefix: Optional[BitString] = None
        self.active_stage: Optional[int] = None
        self.answer_stage: Optional[int] = None
        self.wait_prefix: Optional[BitString] = None

    def copy(self) -> "_Strategy":
        """The strategy as it stands, to be run on by another engine."""
        twin = _Strategy(self.index, self.cap, self.enum)
        twin.guesses, twin.guess_prefix, twin.wait_prefix = self.guesses, self.guess_prefix, self.wait_prefix
        twin.active_stage, twin.answer_stage = self.active_stage, self.answer_stage
        return twin

    def refuted(self, stage: int) -> bool:
        if self.guess_prefix is None:
            raise RandlabError(f"strategy {self.index} asked for refutation before guessing")
        return self.enum.least_extension(self.guess_prefix, stage) is not None

    def answer(self, stage: int) -> Optional[BitString]:
        if self.wait_prefix is None:
            raise RandlabError(f"strategy {self.index} asked for an answer before committing")
        return self.enum.least_extension(self.wait_prefix, stage)


class _Engine:
    """One run of the construction, from stage 0 or resumed from `state`.

    `run` keeps x, the stage and the round-robin counter in locals and
    writes them back where a cap is read, so `state` there is the engine as
    it stood at the start of that step."""

    __slots__ = ("cfg", "caps", "strategies", "trace", "x", "stage", "rr")

    def __init__(self, cfg: FireworksConfig, caps: Sequence, state: Optional[tuple] = None,
                 keep_trace: bool = False) -> None:
        self.cfg, self.caps = cfg, caps
        self.trace: Optional[List[str]] = [] if keep_trace else None
        if state is None:
            self.x, self.stage, self.rr = EMPTY, 0, 0
            self.strategies = [_Strategy(e, caps[e], w) for e, w in enumerate(cfg.adversaries)]
        else:
            # Each state is resumed once, so its strategies can be taken over.
            self.x, self.stage, self.rr, self.strategies = state
            for st, cap in zip(self.strategies, caps):
                st.cap = cap

    def state(self) -> tuple:
        return self.x, self.stage, self.rr, [st.copy() for st in self.strategies]

    def run(self) -> FireworksRun:
        cfg, strategies, trace = self.cfg, self.strategies, self.trace
        x, stage, rr = self.x, self.stage, self.rr
        waiting: Optional[_Strategy] = None
        while stage < cfg.stage_budget:
            if waiting is None:
                if len(x) >= cfg.target_length:
                    break
                if strategies:
                    st = strategies[rr % len(strategies)]
                    if st.answer_stage is None:
                        if st.guess_prefix is None:
                            st.guesses = 1
                            st.guess_prefix = x
                            if trace is not None:
                                trace.append(f"s={stage} e={st.index} passive guess 1 on {x}")
                        elif st.refuted(stage):
                            # The step's start, which a split of st.cap keeps.
                            self.x, self.stage, self.rr = x, stage, rr
                            if st.guesses < st.cap:
                                st.guesses += 1
                                st.guess_prefix = x
                                if trace is not None:
                                    trace.append(f"s={stage} e={st.index} passive guess {st.guesses} on {x}")
                            else:
                                st.active_stage = stage
                                st.wait_prefix = x
                                if trace is not None:
                                    trace.append(f"s={stage} e={st.index} commitment on {x}")
                                waiting = st
                    rr += 1
                if waiting is None:
                    x = x.append(0)
            # A commitment is first asked for its answer at the stage it is made.
            if waiting is not None:
                tau = waiting.answer(stage)
                if tau is None:
                    # Only at the adversary's next event can an answer come.
                    stage = waiting.enum.next_change(stage, cfg.stage_budget)
                    continue
                waiting.answer_stage = stage
                x = tau
                if trace is not None:
                    trace.append(f"s={stage} e={waiting.index} commitment answered by {tau}")
                waiting = None
            stage += 1

        records = []
        for st in strategies:
            proven = False
            if st.answer_stage is not None:
                outcome = Outcome.ACTIVE_SUCCESS
            elif st.wait_prefix is not None:
                outcome = Outcome.ACTIVE_FAILURE
                proven = st.answer(st.enum.horizon) is None
            elif st.guess_prefix is not None and not st.refuted(st.enum.horizon):
                outcome = Outcome.PASSIVE_SUCCESS
            else:
                outcome = Outcome.UNRESOLVED
            records.append(StrategyRecord(
                st.index, outcome, st.guesses,
                st.wait_prefix if st.wait_prefix is not None else st.guess_prefix,
                st.active_stage, st.answer_stage, proven,
            ))
        halted_by = None if waiting is None else waiting.index
        return FireworksRun(x, tuple(self.caps), tuple(records), stage, halted_by, tuple(trace or ()))


def run_fireworks(cfg: FireworksConfig, caps: Sequence[int], *, keep_trace: bool = False) -> FireworksRun:
    """Deterministic run of the construction under explicit caps."""
    if len(caps) != len(cfg.adversaries):
        raise RandlabError("one cap per adversary required")
    for cap, bound in zip(caps, cfg.cap_bounds):
        if not 1 <= cap <= bound:
            raise RandlabError(f"cap {cap} outside 1..{bound}")
    return _Engine(cfg, caps, keep_trace=keep_trace).run()


def check_requirement(w_final: Iterable[BitString], x: BitString, universe_depth: int) -> Requirement:
    """How the finished prefix fares against one adversary's final set.

    MetInside: some prefix of x was enumerated.  MetAvoided: some prefix of
    x has no enumerated extension among strings up to `universe_depth`.
    """
    if universe_depth < len(x):
        raise RandlabError("universe depth must cover the prefix")
    w = [t for t in w_final]
    for i in range(len(x) + 1):
        if x.prefix(i) in w:
            return Requirement.MET_INSIDE
    for i in range(len(x) + 1):
        sigma = x.prefix(i)
        if not any(t.extends(sigma) and len(t) <= universe_depth for t in w):
            return Requirement.MET_AVOIDED
    return Requirement.UNMET


class Leaf(NamedTuple):
    """A box of cap vectors, one range per strategy, that all make one run.

    `run` is the run of the box's least vector; the run of any other vector
    in the box differs from it only in the caps.
    """

    box: Tuple[range, ...]
    run: FireworksRun

    @property
    def volume(self) -> int:
        return math.prod(map(len, self.box))


class _Cap:
    """A strategy's cap while the walk runs the engine on a box: some value
    in lo..hi.

    The engine reads a cap only through `guesses < cap`, which Python asks
    of the cap as `cap > guesses`.  Undecided on lo..hi, it splits the box
    at `guesses`: this run keeps guesses+1..hi, and `pending` receives the
    whole box as it stands with this cap in lo..guesses, beside the state of
    `engine` at the start of this step, where that box's run resumes.
    """

    __slots__ = ("lo", "hi", "pending", "engine")

    def __init__(self, lo: int, hi: int, pending: list) -> None:
        self.lo, self.hi, self.pending = lo, hi, pending
        self.engine: Optional[_Engine] = None

    def __gt__(self, guesses: int) -> bool:
        if self.lo <= guesses < self.hi:
            box = tuple((c.lo, guesses) if c is self else (c.lo, c.hi) for c in self.engine.caps)
            self.pending.append((box, self.engine.state()))
            self.lo = guesses + 1
        return guesses < self.lo


def _leaves(cfg: FireworksConfig) -> List[Leaf]:
    """Run the engine once per leaf box; the leaves tile the cap space.

    A depth-first walk over an explicit stack of boxes, each a (lo, hi)
    pair per strategy and the engine state its run resumes from: a box split
    off a run shares every step before the split with it, so its run starts
    at the step the split decided the other way.  The stack holds one entry
    per behaviour, never one per vector, so it needs no guard.  Leaves come
    in order of least vector.
    """
    pending = [(tuple((1, n) for n in cfg.cap_bounds), None)]
    leaves = []
    while pending:
        bounds, state = pending.pop()
        caps = [_Cap(lo, hi, pending) for lo, hi in bounds]
        engine = _Engine(cfg, caps, state)
        for cap in caps:
            cap.engine = engine
        run = engine.run()
        box = tuple(range(c.lo, c.hi + 1) for c in caps)
        leaves.append(Leaf(box, run._replace(caps=tuple(r.start for r in box))))
    leaves.sort(key=lambda leaf: leaf.run.caps)
    return leaves


def _oracle_set(boxes: Sequence[Tuple[range, ...]], widths: Sequence[int]) -> CylinderSet:
    """The oracles of the vectors in some boxes, as one trie built in one pass.

    Block j of an oracle holds cap - 1 in widths[j] bits, so a box is one
    interval of values per block.  In block j, the ranges of the boxes that
    reach it cut the block's values into segments, and a segment's tail is
    the set that the boxes covering it make on the later blocks.  Going
    down, the covering sets met in each block are found once; coming back
    up, each one's trie is built once (`intervals_set`), from the last block
    to the first.
    """
    if not boxes:
        return EMPTY_SET
    everyone = tuple(range(len(boxes)))
    # Per block, each covering set (box indices) met there -> its segments,
    # (lo, hi, the covering set of the next block).
    levels: List[Dict[tuple, list]] = []
    met = [everyone]
    for j in range(len(widths)):
        segments: Dict[tuple, list] = {}
        for cover in met:
            spans = [(boxes[i][j].start - 1, boxes[i][j].stop - 1) for i in cover]
            cuts = sorted({v for span in spans for v in span})
            segs = segments[cover] = []
            for lo, end in zip(cuts, cuts[1:]):
                inside = tuple(i for i, (a, b) in zip(cover, spans) if a <= lo < b)
                if inside:
                    segs.append((lo, end - 1, inside))
        levels.append(segments)
        met = list(dict.fromkeys(inside for segs in segments.values() for _, _, inside in segs))
    made = dict.fromkeys(met, FULL_SET)
    for width, segments in zip(reversed(widths), reversed(levels)):
        tails = made
        made = {cover: intervals_set(width, [(lo, hi, tails[inside]) for lo, hi, inside in segs])
                for cover, segs in segments.items()}
    return made[everyone]


def _staged_union(dated: Sequence[Tuple[int, Tuple[range, ...]]], widths: Sequence[int],
                  horizon: int) -> ValuedOpenSet:
    """Valued at each stage `dated` names as the oracles of the boxes dated
    by then, each value built the first time a stage reads it."""
    stages = sorted({t for t, _ in dated})
    return ValuedOpenSet([(t, partial(_oracle_set, [box for s, box in dated if s <= t], widths))
                          for t in stages], horizon)


class FailureSets(NamedTuple):
    """Oracle-side view of one strategy: who commits, who gets answered.
    The residue measure is at most 1 / cap bound, and the union of residues
    has exactly the sweep's failure probability."""

    committed: ValuedOpenSet   # oracles driving the strategy into a commitment
    answered: ValuedOpenSet    # the subset whose commitment is answered

    def residue(self) -> CylinderSet:
        return self.committed.final() - self.answered.final()


class Sweep(NamedTuple):
    """What the reports read off one walk over the cap space.

    `leaves` tile the `total` vectors, in order of least vector;
    `probability` is the share of vectors whose run fails.  Each side of
    `failure_sets[e]` is valued at a stage as the union of the oracles of
    the boxes whose runs have strategy e commit, or answered, by then.
    """

    total: int
    leaves: Tuple[Leaf, ...]
    probability: Dyadic
    failure_sets: Tuple[FailureSets, ...]


def sweep(cfg: FireworksConfig) -> Sweep:
    """Walk the cap boxes once and fold the leaves into a `Sweep`.

    Lexicographic cap order is oracle order: the i-th vector is the one
    `oracle_block_caps` reads off i written in sum(block_lengths) bits.
    """
    total = math.prod(cfg.cap_bounds)
    bits = sum(cfg.block_lengths)
    if 1 << bits != total:
        raise RandlabError(f"cap space {total} is not a power of two")
    leaves = _leaves(cfg)
    # Per strategy, its (commit stage, box) and (answer stage, box) pairs.
    dated: List[Tuple[list, list]] = [([], []) for _ in cfg.adversaries]
    for leaf in leaves:
        for rec in leaf.run.records:
            for side, stage in zip(dated[rec.index], (rec.active_stage, rec.answer_stage)):
                if stage is not None:
                    side.append((stage, leaf.box))
    failing = sum(leaf.volume for leaf in leaves if leaf.run.failed)
    widths = cfg.block_lengths
    sets = tuple(FailureSets(*(_staged_union(side, widths, cfg.stage_budget) for side in sides))
                 for sides in dated)
    return Sweep(total, tuple(leaves), Dyadic(failing, bits), sets)
