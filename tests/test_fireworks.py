"""Engine-level checks, each against a hand-traced script.

The adversary schedules here are small enough to run on paper; every
expected outcome below was derived by walking the scheduler loop by hand
before being frozen into an assertion.
"""

import re
from fractions import Fraction

import pytest

from randlab.bitstring import BitString
from randlab.cylinders import CylinderSet
from randlab.dyadic import Dyadic
from randlab.errors import GuardExceeded, RandlabError
from randlab.fireworks import (FireworksConfig, Outcome, Requirement,
                               caps_from_seed, check_requirement,
                               default_cap_bounds, exact_failure_probability,
                               extract_failure_sets, oracle_block_caps,
                               run_fireworks, sweep_runs)
from randlab.staged import Enumerator

SILENT = Enumerator([], horizon=0)


def ladder(stages=4):
    # Rung j refutes the guess standing at stage j but conflicts with the
    # all-zero working prefix, so only the next rung can answer it.
    return Enumerator([(j, ["0" * (j - 1) + "1"]) for j in range(1, stages + 1)],
                      horizon=stages + 1)


def test_default_cap_bounds():
    assert default_cap_bounds(3, 2) == (8, 16, 32)
    assert default_cap_bounds(1, 0) == (2,)
    # Inverse sum stays under 2^-k, which build() asserts for defaults.
    FireworksConfig.build([SILENT, SILENT, SILENT], k=2,
                          target_length=8, stage_budget=8)


def test_silent_adversary_always_passive():
    cfg = FireworksConfig.build([SILENT], k=1, target_length=6, stage_budget=12)
    for cap in range(1, cfg.cap_bounds[0] + 1):
        run = run_fireworks(cfg, (cap,))
        assert run.outcomes == (Outcome.PASSIVE_SUCCESS,)
        assert run.x_prefix == BitString("0" * 6)
    assert exact_failure_probability(cfg) == Dyadic(0)


def test_one_shot_commitment_fails_only_at_cap_one():
    # Single enumeration "1" at stage 1: cap 1 commits on x=0 and is never
    # answered; higher caps reguess on 0 and sail through untouched.
    w = Enumerator([(1, ["1"])], horizon=1)
    cfg = FireworksConfig.build([w], k=1, target_length=3, stage_budget=6)
    assert cfg.cap_bounds == (4,)

    run1 = run_fireworks(cfg, (1,))
    rec = run1.records[0]
    assert rec.outcome is Outcome.ACTIVE_FAILURE
    assert rec.failure_proven
    assert rec.active_stage == 1
    assert rec.final_guess == BitString("0")
    assert run1.halted_by == 0
    assert run1.failed

    for cap in (2, 3, 4):
        run = run_fireworks(cfg, (cap,))
        assert run.outcomes == (Outcome.PASSIVE_SUCCESS,)
        assert run.records[0].guesses_made == 2
        assert not run.failed

    assert exact_failure_probability(cfg) == Dyadic(1, 2)


def test_one_shot_failure_sets():
    w = Enumerator([(1, ["1"])], horizon=1)
    cfg = FireworksConfig.build([w], k=1, target_length=3, stage_budget=6)
    (fs,) = extract_failure_sets(cfg)
    # Only the cap-1 oracle block 00 commits, and nothing answers it.
    assert fs.committed.final() == CylinderSet.cylinder("00")
    assert fs.answered.final().is_empty()
    assert fs.residue().measure() == Dyadic(1, 2)


def test_ladder_axis_is_sharp():
    cfg = FireworksConfig.build([ladder()], k=1, target_length=64, stage_budget=40)
    expected = [Outcome.ACTIVE_SUCCESS, Outcome.ACTIVE_SUCCESS,
                Outcome.ACTIVE_SUCCESS, Outcome.ACTIVE_FAILURE]
    for cap, want in zip((1, 2, 3, 4), expected):
        run = run_fireworks(cfg, (cap,))
        assert run.outcomes == (want,), f"cap {cap}"
    # Each answered commitment adopts the refuting rung of the next stage.
    assert run_fireworks(cfg, (1,)).x_prefix.prefix(2) == BitString("01")
    assert run_fireworks(cfg, (2,)).x_prefix.prefix(3) == BitString("001")
    assert exact_failure_probability(cfg) == Dyadic(1, 2)


def test_ladder_residue_is_the_failing_block():
    cfg = FireworksConfig.build([ladder()], k=1, target_length=64, stage_budget=40)
    (fs,) = extract_failure_sets(cfg)
    # All four caps commit; only cap 4 (oracle block 11) goes unanswered.
    assert fs.committed.final().is_full()
    assert fs.residue() == CylinderSet.cylinder("11")
    assert fs.residue().measure() == exact_failure_probability(cfg)


AXIS = re.compile(r"^(ActiveSuccess )*(ActiveFailure )?(PassiveSuccess )*$")


def axis_ok(outcomes):
    return AXIS.match("".join(o.value + " " for o in outcomes)) is not None


def test_duet_trichotomy_and_silent_immunity():
    cfg = FireworksConfig.build([ladder(), SILENT], k=1, target_length=64,
                                stage_budget=40, cap_bounds=(4, 4))
    table = {run.caps: run.outcomes for run in sweep_runs(cfg)}
    assert len(table) == 16
    for fixed in range(1, 5):
        assert axis_ok([table[(c, fixed)][0] for c in range(1, 5)])
        assert axis_ok([table[(fixed, c)][1] for c in range(1, 5)])
    for outcomes in table.values():
        assert outcomes[1] is Outcome.PASSIVE_SUCCESS
    failing = sum(1 for o in table.values() if Outcome.ACTIVE_FAILURE in o)
    assert exact_failure_probability(cfg) == Dyadic(failing, 4)


def test_extract_union_matches_sweep_probability():
    cfg = FireworksConfig.build([ladder(), SILENT], k=1, target_length=64,
                                stage_budget=40, cap_bounds=(4, 4))
    sets = extract_failure_sets(cfg)
    union = CylinderSet.normalize([])
    for e, fs in enumerate(sets):
        residue = fs.residue()
        assert residue.measure() <= Fraction(1, cfg.cap_bounds[e])
        union = union | residue
    assert union.measure() == exact_failure_probability(cfg)


def test_oracle_block_caps():
    assert oracle_block_caps(BitString("0110"), (4, 4)) == (2, 3)
    assert oracle_block_caps(BitString("01101"), (4, 8)) == (2, 6)
    assert oracle_block_caps(BitString("00"), (2, 2)) == (1, 1)
    with pytest.raises(RandlabError):
        oracle_block_caps(BitString("0"), (4,))


def test_caps_from_seed_deterministic_and_in_range():
    bounds = (8, 16, 32)
    caps = caps_from_seed(117, bounds)
    assert caps == caps_from_seed(117, bounds)
    for cap, bound in zip(caps, bounds):
        assert 1 <= cap <= bound


def test_config_validation():
    with pytest.raises(RandlabError):
        FireworksConfig.build([SILENT], k=0, target_length=4, stage_budget=8,
                              cap_bounds=(3,))
    with pytest.raises(RandlabError):
        FireworksConfig.build([SILENT], k=0, target_length=4, stage_budget=8,
                              cap_bounds=(4, 4))
    late = Enumerator([(9, ["1"])], horizon=9)
    with pytest.raises(RandlabError):
        FireworksConfig.build([late], k=0, target_length=4, stage_budget=8)
    cfg = FireworksConfig.build([SILENT], k=0, target_length=4, stage_budget=8)
    with pytest.raises(RandlabError):
        run_fireworks(cfg, (5,))
    with pytest.raises(RandlabError):
        run_fireworks(cfg, (1, 1))


def test_sweep_guard():
    cfg = FireworksConfig.build([SILENT, SILENT], k=0, target_length=4,
                                stage_budget=8, cap_bounds=(1 << 13, 1 << 13))
    with pytest.raises(GuardExceeded):
        exact_failure_probability(cfg)


def test_check_requirement():
    w = [BitString("01"), BitString("001")]
    assert check_requirement(w, BitString("0110"), 6) is Requirement.MET_INSIDE
    assert check_requirement(w, BitString("11"), 6) is Requirement.MET_AVOIDED
    assert check_requirement(w, BitString("0"), 3) is Requirement.UNMET
    with pytest.raises(RandlabError):
        check_requirement(w, BitString("0101"), 3)


def test_strategy_queries_before_their_prefix_raise():
    # These were asserts, which `python -O` strips.
    from randlab.fireworks import _Strategy
    st = _Strategy(0, 1, SILENT)
    with pytest.raises(RandlabError, match="before guessing"):
        st.refuted(0)
    with pytest.raises(RandlabError, match="before committing"):
        st.answer(0)
