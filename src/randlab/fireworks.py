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
algorithm: it replays the engine on boxes of cap vectors, one range per
strategy, and splits a box only where `guesses < cap` is undecided on it,
so it makes one run per behaviour and its leaf boxes tile the cap space.
It folds the leaves into what the reports read: the leaf boxes, the exact
failure probability as a dyadic rational, and each strategy's commitments
and answers on the oracle side as aligned dyadic blocks.  `SWEEP_GUARD` is
there only for what is materialised per vector (the failing vectors a
report lists, the oracle blocks a box spells out): the walk itself needs no
guard, though `sweep` still refuses cap spaces past it.  `sweep_runs`, one
run per cap vector, is the brute-force reference the walk is tested against.
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import EMPTY, BitString
from .cylinders import CylinderSet
from .dyadic import Dyadic
from .errors import GuardExceeded, RandlabError
from .staged import Enumerator, StagedOpenSet, by_stage

SWEEP_GUARD = 1 << 24


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
    """Cap ranges 2^(e+k+1); their inverse sum is below 2^-k."""
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
        bounds = default_cap_bounds(len(adversaries), k) if defaults else tuple(cap_bounds)
        if len(bounds) != len(adversaries):
            raise RandlabError("one cap bound per adversary required")
        for n in bounds:
            if n < 2 or n & (n - 1):
                raise RandlabError(f"cap bound {n} must be a power of two, at least 2")
        for w in adversaries:
            if w.horizon > stage_budget:
                raise RandlabError(
                    f"adversary horizon {w.horizon} exceeds stage budget {stage_budget}; "
                    "outcomes at the horizon would be unsound"
                )
        cfg = FireworksConfig(adversaries, k, bounds, target_length, stage_budget)
        if defaults:
            total = sum(Dyadic(1, 0).as_fraction() / n for n in bounds)
            if total > Dyadic.half_pow(k).as_fraction():
                raise RandlabError(f"default cap bounds {bounds} sum {total} over 2^-{k}")
        return cfg

    @property
    def block_lengths(self) -> Tuple[int, ...]:
        return tuple(n.bit_length() - 1 for n in self.cap_bounds)


class StrategyRecord(NamedTuple):
    index: int
    cap: int
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

    def refuted(self, stage: int) -> bool:
        if self.guess_prefix is None:
            raise RandlabError(f"strategy {self.index} asked for refutation before guessing")
        return any(t.extends(self.guess_prefix) for t in self.enum.at(stage))

    def answer(self, stage: int) -> Optional[BitString]:
        if self.wait_prefix is None:
            raise RandlabError(f"strategy {self.index} asked for an answer before committing")
        hits = [t for t in self.enum.at(stage) if t.extends(self.wait_prefix)]
        return min(hits, key=lambda t: (len(t), t.bits)) if hits else None


def run_fireworks(cfg: FireworksConfig, caps: Sequence[int], *, keep_trace: bool = False) -> FireworksRun:
    """Deterministic run of the construction under explicit caps."""
    if len(caps) != len(cfg.adversaries):
        raise RandlabError("one cap per adversary required")
    for cap, bound in zip(caps, cfg.cap_bounds):
        if not 1 <= cap <= bound:
            raise RandlabError(f"cap {cap} outside 1..{bound}")

    strategies = [_Strategy(e, caps[e], w) for e, w in enumerate(cfg.adversaries)]
    x = EMPTY
    trace: List[str] = []
    waiting: Optional[_Strategy] = None
    stage = 0
    rr = 0

    def note(msg: str) -> None:
        if keep_trace:
            trace.append(msg)

    while stage < cfg.stage_budget:
        if waiting is None:
            if len(x) >= cfg.target_length:
                break
            if strategies:
                st = strategies[rr % len(strategies)]
                rr += 1
                if st.answer_stage is None:
                    if st.guess_prefix is None:
                        st.guesses = 1
                        st.guess_prefix = x
                        note(f"s={stage} e={st.index} passive guess 1 on {x}")
                    elif st.refuted(stage):
                        if st.guesses < st.cap:
                            st.guesses += 1
                            st.guess_prefix = x
                            note(f"s={stage} e={st.index} passive guess {st.guesses} on {x}")
                        else:
                            st.active_stage = stage
                            st.wait_prefix = x
                            note(f"s={stage} e={st.index} commitment on {x}")
                            waiting = st
            if waiting is None:
                x = x.append(0)
        # A commitment is first asked for its answer at the stage it is made.
        if waiting is not None:
            tau = waiting.answer(stage)
            if tau is not None:
                waiting.answer_stage = stage
                x = tau
                note(f"s={stage} e={waiting.index} commitment answered by {tau}")
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
            st.index, st.cap, outcome, st.guesses,
            st.wait_prefix if st.wait_prefix is not None else st.guess_prefix,
            st.active_stage, st.answer_stage, proven,
        ))
    halted_by = None if waiting is None else waiting.index
    return FireworksRun(x, tuple(caps), tuple(records), stage, halted_by, tuple(trace))


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


def _cap_space(cfg: FireworksConfig) -> int:
    total = 1
    for n in cfg.cap_bounds:
        total *= n
        if total > SWEEP_GUARD:
            raise GuardExceeded(f"cap sweep over {total} vectors refused (limit {SWEEP_GUARD})")
    return total


def sweep_runs(cfg: FireworksConfig):
    """Yield a run per cap vector, in lexicographic cap order.

    The brute-force reference for `sweep`, which makes one run per box.
    """
    _cap_space(cfg)
    for caps in itertools.product(*(range(1, n + 1) for n in cfg.cap_bounds)):
        yield run_fireworks(cfg, caps)


def _with_caps(run: FireworksRun, caps: Tuple[int, ...]) -> FireworksRun:
    records = tuple(StrategyRecord(r.index, c, r.outcome, r.guesses_made, r.final_guess,
                                   r.active_stage, r.answer_stage, r.failure_proven)
                    for r, c in zip(run.records, caps))
    return FireworksRun(run.x_prefix, caps, records, run.stages_used, run.halted_by, run.trace)


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
    """A strategy's cap while the engine replays a box: some value in lo..hi.

    The engine reads a cap only through `guesses < cap`, which Python asks
    of the cap as `cap > guesses`.  Undecided on lo..hi, it splits the box
    at `guesses`: this replay keeps guesses+1..hi, and `pending` receives the
    whole box as it stands with this cap in lo..guesses.
    """

    __slots__ = ("lo", "hi", "box", "pending")

    def __init__(self, lo: int, hi: int, box: List["_Cap"], pending: list) -> None:
        self.lo, self.hi, self.box, self.pending = lo, hi, box, pending

    def __gt__(self, guesses: int) -> bool:
        if self.lo <= guesses < self.hi:
            self.pending.append(tuple((c.lo, guesses) if c is self else (c.lo, c.hi)
                                      for c in self.box))
            self.lo = guesses + 1
        return guesses < self.lo

    # The engine's range check; both sides are decided on every box.
    def __ge__(self, n: int) -> bool:
        return self._decided(self.lo >= n, self.hi < n, ">=", n)

    def __le__(self, n: int) -> bool:
        return self._decided(self.hi <= n, self.lo > n, "<=", n)

    def _decided(self, holds: bool, fails: bool, op: str, n: int) -> bool:
        if holds == fails:
            raise RandlabError(f"cap in {self.lo}..{self.hi} {op} {n} is undecided")
        return holds


def _leaves(cfg: FireworksConfig) -> List[Leaf]:
    """Replay the engine once per leaf box; the leaves tile the cap space.

    A depth-first walk over an explicit stack of boxes, each a (lo, hi)
    pair per strategy.  It holds one entry per behaviour, never one per
    vector, so it needs no guard.  Leaves come in order of least vector.
    """
    pending = [tuple((1, n) for n in cfg.cap_bounds)]
    leaves = []
    while pending:
        caps: List[_Cap] = []
        caps.extend(_Cap(lo, hi, caps, pending) for lo, hi in pending.pop())
        run = run_fireworks(cfg, caps)
        box = tuple(range(c.lo, c.hi + 1) for c in caps)
        leaves.append(Leaf(box, _with_caps(run, tuple(r.start for r in box))))
    leaves.sort(key=lambda leaf: leaf.run.caps)
    return leaves


def _aligned_blocks(lo: int, hi: int, width: int) -> List[str]:
    """lo..hi as the fewest aligned dyadic blocks of `width`-bit values,
    each given by its prefix; lo..hi must not be all of them."""
    out = []
    while lo <= hi:
        size = (lo & -lo).bit_length() - 1 if lo else width
        while lo + (1 << size) - 1 > hi:
            size -= 1
        out.append(format(lo >> size, f"0{width - size}b"))
        lo += 1 << size
    return out


def _box_oracles(box: Tuple[range, ...], cfg: FireworksConfig) -> List[BitString]:
    """The oracles of a box's vectors as cylinders.

    Block e holds cap - 1 in its block length, so the cap range of the last
    strategy not free over its whole range is a few aligned blocks; the
    blocks after it are free and the ones before it are spelt out.
    """
    last = max((e for e, (r, n) in enumerate(zip(box, cfg.cap_bounds)) if len(r) < n),
               default=-1)
    prefixes = [""]
    for e in range(last + 1):
        r, width = box[e], cfg.block_lengths[e]
        blocks = (_aligned_blocks(r.start - 1, r.stop - 2, width) if e == last
                  else [format(cap - 1, f"0{width}b") for cap in r])
        prefixes = [p + b for p in prefixes for b in blocks]
    return [BitString(p) for p in prefixes]


class FailureSets(NamedTuple):
    """Oracle-side view of one strategy: who commits, who gets answered."""

    committed: StagedOpenSet   # oracles driving the strategy into a commitment
    answered: StagedOpenSet    # the subset whose commitment is answered

    def residue(self) -> CylinderSet:
        return self.committed.final() - self.answered.final()


class Sweep(NamedTuple):
    """What the reports read off one walk over the cap space.

    `leaves` tile the `total` vectors, in order of least vector;
    `probability` is the share of vectors whose run fails.  `committed[e]`
    and `answered[e]` date the oracle cylinders whose runs have strategy e
    commit, or its commitment answered.
    """

    total: int
    leaves: Tuple[Leaf, ...]
    probability: Dyadic
    committed: Tuple[Tuple[Tuple[int, BitString], ...], ...]
    answered: Tuple[Tuple[Tuple[int, BitString], ...], ...]
    stage_budget: int

    def failure_sets(self) -> Tuple[FailureSets, ...]:
        """Commitment and answer cylinders per strategy, each a staged open
        set dating an oracle's cylinder by the stage its event became visible.
        The residue measure per strategy is at most 1 / cap_bound, and the
        union of residues has exactly the sweep's failure probability.
        """
        return tuple(
            FailureSets(StagedOpenSet.from_events(by_stage(c), self.stage_budget),
                        StagedOpenSet.from_events(by_stage(a), self.stage_budget))
            for c, a in zip(self.committed, self.answered))


def sweep(cfg: FireworksConfig) -> Sweep:
    """Walk the cap boxes once and fold the leaves into a `Sweep`.

    Lexicographic cap order is oracle order: the i-th vector is the one
    `oracle_block_caps` reads off i written in sum(block_lengths) bits.
    """
    total = _cap_space(cfg)
    bits = sum(cfg.block_lengths)
    if 1 << bits != total:
        raise RandlabError(f"cap space {total} is not a power of two")
    leaves = _leaves(cfg)
    committed: List[List[Tuple[int, BitString]]] = [[] for _ in cfg.adversaries]
    answered: List[List[Tuple[int, BitString]]] = [[] for _ in cfg.adversaries]
    for leaf in leaves:
        records = [rec for rec in leaf.run.records if rec.active_stage is not None]
        oracles = _box_oracles(leaf.box, cfg) if records else []
        for rec in records:
            committed[rec.index].extend((rec.active_stage, o) for o in oracles)
            if rec.answer_stage is not None:
                answered[rec.index].extend((rec.answer_stage, o) for o in oracles)
    failing = sum(leaf.volume for leaf in leaves if leaf.run.failed)
    return Sweep(total, tuple(leaves), Dyadic(failing, bits),
                 tuple(map(tuple, committed)), tuple(map(tuple, answered)),
                 cfg.stage_budget)
