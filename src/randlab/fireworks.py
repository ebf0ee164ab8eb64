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
answered, every larger one ends passively.  `sweep` runs every cap vector
once, through `sweep_runs`, and folds the runs into what the reports read:
the failing runs, the exact failure probability as a dyadic rational, and
each strategy's commitments and answers on the oracle side.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class FireworksConfig:
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


@dataclass(frozen=True)
class StrategyRecord:
    index: int
    cap: int
    outcome: Outcome
    guesses_made: int
    final_guess: Optional[BitString]
    active_stage: Optional[int]
    answer_stage: Optional[int]
    failure_proven: bool


@dataclass(frozen=True)
class FireworksRun:
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
    __slots__ = ("index", "cap", "enum", "guesses", "guess_prefix", "satisfied_at",
                 "active_stage", "answer_stage", "wait_prefix")

    def __init__(self, index: int, cap: int, enum: Enumerator) -> None:
        self.index = index
        self.cap = cap
        self.enum = enum
        self.guesses = 0
        self.guess_prefix: Optional[BitString] = None
        self.satisfied_at: Optional[int] = None
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
    halted_by: Optional[int] = None
    stage = 0
    rr = 0

    def note(msg: str) -> None:
        if keep_trace:
            trace.append(msg)

    while stage < cfg.stage_budget:
        if waiting is not None:
            tau = waiting.answer(stage)
            if tau is not None:
                waiting.answer_stage = stage
                waiting.satisfied_at = stage
                x = tau
                note(f"s={stage} e={waiting.index} commitment answered by {tau}")
                waiting = None
            stage += 1
            continue

        if len(x) >= cfg.target_length:
            break

        if not strategies:
            x = x.append(0)
            stage += 1
            continue

        st = strategies[rr % len(strategies)]
        rr += 1
        grew = False
        if st.satisfied_at is None:
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
                    tau = st.answer(stage)
                    if tau is not None:
                        st.answer_stage = stage
                        st.satisfied_at = stage
                        x = tau
                        grew = True
                        note(f"s={stage} e={st.index} commitment answered by {tau}")
                    else:
                        waiting = st
        if waiting is None and not grew and len(x) < cfg.target_length:
            x = x.append(0)
        stage += 1

    if waiting is not None:
        halted_by = waiting.index

    records = []
    for st in strategies:
        proven = False
        if st.satisfied_at is not None:
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
    """Yield a run per cap vector, in lexicographic cap order."""
    _cap_space(cfg)
    for caps in itertools.product(*(range(1, n + 1) for n in cfg.cap_bounds)):
        yield run_fireworks(cfg, caps)


@dataclass(frozen=True)
class FailureSets:
    """Oracle-side view of one strategy: who commits, who gets answered."""

    committed: StagedOpenSet   # oracles driving the strategy into a commitment
    answered: StagedOpenSet    # the subset whose commitment is answered

    def residue(self) -> CylinderSet:
        return self.committed.final() - self.answered.final()


@dataclass(frozen=True)
class Sweep:
    """What the reports read off one pass over every cap vector.

    `failures` are the failing runs in lexicographic cap order, `probability`
    their share of the `total` vectors.  `committed[e]` and `answered[e]` date
    each oracle whose run has strategy e commit, or its commitment answered.
    """

    total: int
    failures: Tuple[FireworksRun, ...]
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
    """Run every cap vector once and fold the runs into a `Sweep`.

    Lexicographic cap order is oracle order: the i-th vector is the one
    `oracle_block_caps` reads off i written in sum(block_lengths) bits.
    """
    total = _cap_space(cfg)
    bits = sum(cfg.block_lengths)
    if 1 << bits != total:
        raise RandlabError(f"cap space {total} is not a power of two")
    failures = []
    committed: List[List[Tuple[int, BitString]]] = [[] for _ in cfg.adversaries]
    answered: List[List[Tuple[int, BitString]]] = [[] for _ in cfg.adversaries]
    for i, run in enumerate(sweep_runs(cfg)):
        if run.failed:
            failures.append(run)
        oracle = BitString(format(i, f"0{bits}b") if bits else "")
        for rec in run.records:
            if rec.active_stage is not None:
                committed[rec.index].append((rec.active_stage, oracle))
                if rec.answer_stage is not None:
                    answered[rec.index].append((rec.answer_stage, oracle))
    return Sweep(total, tuple(failures), Dyadic(len(failures), bits),
                 tuple(map(tuple, committed)), tuple(map(tuple, answered)),
                 cfg.stage_budget)
