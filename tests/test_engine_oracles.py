"""Differential tests against verbatim copies of replaced code.

`reference_run_fireworks` is the fireworks engine as it was when it
answered a commitment in two places (from the waiting branch and at once),
kept a `satisfied_at` beside `answer_stage`, and waited for an answer one
stage at a time; its answers are `reference_least_extension`, a scan of the
adversary's enumerated set.
`reference_random_enumerator` and `reference_confined_open` are the two
draw loops `random_open_set` merged.  `f_approx`'s change points, spelt
out per stage by `oracles.per_stage`, must match `oracles.old_f_approx`,
the guarded-image selector as it was when it kept one value and one
chosen index per stage.  Each copy is the oracle its replacement must
match exactly.
"""

import random
from typing import List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ladders, old_f_approx, per_stage, random_adversaries, replayed_leaves, strings_up_to

from randlab.bitstring import EMPTY, BitString, from_nat
from randlab.errors import RandlabError
from randlab.fireworks import (FireworksConfig, FireworksRun, Outcome, StrategyRecord,
                               _leaves, run_fireworks)
from randlab.generators import random_bits, random_functional_pair, random_open_set
from randlab.minpair import f_approx
from randlab.staged import Enumerator, StagedOpenSet, TuringFunctional, by_stage


class _ReferenceStrategy:
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
        return reference_least_extension(self.enum, self.wait_prefix, stage)


def reference_least_extension(enum: Enumerator, sigma: BitString, stage: int) -> Optional[BitString]:
    """The scan `_Strategy.answer` made before `Enumerator.least_extension`."""
    hits = [t for t in enum.at(stage) if t.extends(sigma)]
    return min(hits, key=lambda t: (len(t), t.bits)) if hits else None


def reference_run_fireworks(cfg: FireworksConfig, caps: Sequence[int], *, keep_trace: bool = False) -> FireworksRun:
    """Deterministic run of the construction under explicit caps."""
    if len(caps) != len(cfg.adversaries):
        raise RandlabError("one cap per adversary required")
    for cap, bound in zip(caps, cfg.cap_bounds):
        if not 1 <= cap <= bound:
            raise RandlabError(f"cap {cap} outside 1..{bound}")

    strategies = [_ReferenceStrategy(e, caps[e], w) for e, w in enumerate(cfg.adversaries)]
    x = EMPTY
    trace: List[str] = []
    waiting: Optional[_ReferenceStrategy] = None
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
            st.index, outcome, st.guesses,
            st.wait_prefix if st.wait_prefix is not None else st.guess_prefix,
            st.active_stage, st.answer_stage, proven,
        ))
    return FireworksRun(x, tuple(caps), tuple(records), stage, halted_by, tuple(trace))


def reference_random_enumerator(rng: random.Random, horizon: int, count: int, max_len: int) -> Enumerator:
    pairs = [(rng.randrange(horizon + 1), random_bits(rng, 1 + rng.randrange(max_len)))
             for _ in range(count)]
    return Enumerator(by_stage(pairs), horizon)


def reference_confined_open(rng: random.Random, base: BitString, horizon: int,
                            count: int, suffix_max: int) -> StagedOpenSet:
    pairs = [(rng.randrange(horizon + 1), base + random_bits(rng, 1 + rng.randrange(suffix_max)))
             for _ in range(count)]
    return StagedOpenSet(by_stage(pairs), horizon)


@st.composite
def configs_and_caps(draw):
    """Up to three adversaries (empty ones too) with a cap vector in range."""
    pairs = draw(st.lists(st.tuples(ladders | random_adversaries, st.sampled_from((2, 4, 8))),
                          max_size=3))
    advs = [a for a, _ in pairs]
    bounds = [n for _, n in pairs]
    cfg = FireworksConfig.build(advs, k=1, target_length=draw(st.integers(1, 24)),
                                stage_budget=draw(st.integers(9, 40)), cap_bounds=bounds)
    return cfg, tuple(draw(st.integers(1, n)) for n in bounds)


@settings(max_examples=300, deadline=None)
@given(configs_and_caps())
def test_run_fireworks_matches_the_reference_engine(cfg_caps):
    cfg, caps = cfg_caps
    for keep_trace in (True, False):
        assert (run_fireworks(cfg, caps, keep_trace=keep_trace)
                == reference_run_fireworks(cfg, caps, keep_trace=keep_trace))


# Every string up to one bit past the longest the adversaries enumerate.
SIGMAS = strings_up_to(6)


@settings(max_examples=100, deadline=None)
@given(ladders | random_adversaries)
def test_least_extension_matches_the_scan(enum):
    # The adversaries' first events come at stage 1 or later, so stages -1
    # and 0 read the empty snapshot; the last two stages are past the horizon.
    assert enum.horizon >= 2
    for stage in range(-1, enum.horizon + 3):
        for sigma in SIGMAS:
            want = reference_least_extension(enum, sigma, stage)
            assert enum.least_extension(sigma, stage) == want, (sigma, stage)
            assert enum.least_extension(sigma.bits, stage) == want, (sigma, stage)
    assert enum.least_extension(EMPTY, -1) is None
    assert enum.least_extension("^", enum.horizon + 2) == min(enum.at(enum.horizon), default=None)


@settings(max_examples=60, deadline=None)
@given(configs_and_caps())
def test_box_walk_splits_alike_under_the_reference_engine(cfg_caps):
    # The walk reads caps only through the engine's `guesses < cap`, so the
    # same comparisons in the same order give the same leaf boxes: replaying
    # each box under the reference engine makes the resumed walk's leaves.
    cfg, _ = cfg_caps
    assert replayed_leaves(cfg, reference_run_fireworks) == _leaves(cfg)


def _same_draws(make_new, make_old, seed):
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    new, old = make_new(new_rng), make_old(old_rng)
    assert new.events == old.events
    assert new.horizon == old.horizon
    assert new_rng.random() == old_rng.random()


def test_random_open_set_draws_as_the_two_reference_loops():
    shapes = random.Random("open-set-shapes")
    for seed in range(200):
        horizon, count, max_len = shapes.randrange(10), shapes.randrange(9), 1 + shapes.randrange(6)
        _same_draws(lambda rng: random_open_set(rng, horizon, count, max_len),
                    lambda rng: reference_random_enumerator(rng, horizon, count, max_len),
                    seed)
        base = random_bits(shapes, shapes.randrange(4))
        _same_draws(lambda rng: random_open_set(rng, horizon, count, max_len, base),
                    lambda rng: reference_confined_open(rng, base, horizon, count, max_len),
                    seed)


def _same_as_per_stage(phi, psi, horizon, stems):
    for stem in stems:
        trace = f_approx(phi, psi, stem, horizon)
        family, values, chosen = old_f_approx(phi, psi, stem, horizon)
        assert trace.family == family
        assert per_stage(trace, horizon) == (values, chosen)
        assert trace.mind_changes() == sum(a != b for a, b in zip(values, values[1:]))
        # Change points only: strictly later stages, each a new index.
        assert all(a[0] < b[0] and a[1] != b[1] for a, b in zip(trace.changes, trace.changes[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=80))
def test_f_approx_change_points_match_the_per_stage_body(seed, horizon, axioms):
    phi, psi = random_functional_pair(random.Random(seed), 5, axioms, horizon)
    _same_as_per_stage(phi, psi, horizon, [from_nat(n) for n in range(4)])


def test_f_approx_counts_a_family_found_at_stage_zero_and_later_alike():
    # Found at stage 0: no change there; found at stage 3: the stem -> pair
    # move counts; a later switch counts in both.
    phi0 = TuringFunctional([(0, [("00", "0"), ("01", "11")])], horizon=6)
    phi3 = TuringFunctional([(3, [("00", "0"), ("01", "11")])], horizon=6)
    psi = TuringFunctional([(0, [("00", "0")]), (5, [("01", "0"), ("10", "0")])], horizon=6)
    for phi, found, changes in ((phi0, 0, 1), (phi3, 3, 2)):
        trace = f_approx(phi, psi, BitString("0"), 6)
        assert trace.family.found_stage == found
        assert trace.changes == ((found, 0), (5, 1))
        assert trace.mind_changes() == changes
        _same_as_per_stage(phi, psi, 6, [BitString("0")])
