"""Engine-level checks, each against a hand-traced script.

The adversary schedules here are small enough to run on paper; every
expected outcome below was derived by walking the scheduler loop by hand
before being frozen into an assertion.
"""

import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab.fireworks
import randlab.scenario
from randlab.bitstring import BitString
from randlab.cylinders import CylinderSet
from randlab.dyadic import Dyadic
from randlab.errors import GuardExceeded, RandlabError
from randlab.fireworks import (FailureSets, FireworksConfig, Outcome,
                               Requirement, _aligned_blocks, _cap_space, _Cap,
                               _leaves, caps_from_seed, check_requirement,
                               default_cap_bounds, oracle_block_caps,
                               run_fireworks, sweep, sweep_runs)
from randlab.scenario import (ObjectTable, SCENARIO_DIR, load_scenario,
                              run_scenario)
from randlab.staged import Enumerator, StagedOpenSet, by_stage

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
    assert sweep(cfg).probability == Dyadic(0)


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

    assert sweep(cfg).probability == Dyadic(1, 2)


def test_one_shot_failure_sets():
    w = Enumerator([(1, ["1"])], horizon=1)
    cfg = FireworksConfig.build([w], k=1, target_length=3, stage_budget=6)
    (fs,) = sweep(cfg).failure_sets()
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
    assert sweep(cfg).probability == Dyadic(1, 2)


def test_ladder_residue_is_the_failing_block():
    cfg = FireworksConfig.build([ladder()], k=1, target_length=64, stage_budget=40)
    (fs,) = sweep(cfg).failure_sets()
    # All four caps commit; only cap 4 (oracle block 11) goes unanswered.
    assert fs.committed.final().is_full()
    assert fs.residue() == CylinderSet.cylinder("11")
    assert fs.residue().measure() == sweep(cfg).probability


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
    assert sweep(cfg).probability == Dyadic(failing, 4)


def test_extract_union_matches_sweep_probability():
    cfg = FireworksConfig.build([ladder(), SILENT], k=1, target_length=64,
                                stage_budget=40, cap_bounds=(4, 4))
    sets = sweep(cfg).failure_sets()
    union = CylinderSet.normalize([])
    for e, fs in enumerate(sets):
        residue = fs.residue()
        assert residue.measure() <= Fraction(1, cfg.cap_bounds[e])
        union = union | residue
    assert union.measure() == sweep(cfg).probability


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
        sweep(cfg).probability


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


# The two whole-sweep functions `sweep` replaced, kept verbatim as oracles:
# each enumerates the cap vectors on its own.

def exact_failure_probability(cfg):
    total = _cap_space(cfg)
    failures = sum(1 for run in sweep_runs(cfg) if run.failed)
    exp = total.bit_length() - 1
    if 1 << exp != total:
        raise RandlabError(f"cap space {total} is not a power of two")
    return Dyadic(failures, exp)


def extract_failure_sets(cfg):
    _cap_space(cfg)
    lengths = cfg.block_lengths
    total_bits = sum(lengths)
    committed = [[] for _ in cfg.adversaries]
    answered = [[] for _ in cfg.adversaries]
    for v in range(1 << total_bits):
        oracle = BitString(format(v, f"0{total_bits}b") if total_bits else "")
        caps = oracle_block_caps(oracle, cfg.cap_bounds)
        run = run_fireworks(cfg, caps)
        for rec in run.records:
            if rec.active_stage is not None:
                committed[rec.index].append((rec.active_stage, oracle))
                if rec.answer_stage is not None:
                    answered[rec.index].append((rec.answer_stage, oracle))
    out = []
    for e in range(len(cfg.adversaries)):
        u = StagedOpenSet.from_events(by_stage(committed[e]), cfg.stage_budget)
        v = StagedOpenSet.from_events(by_stage(answered[e]), cfg.stage_budget)
        out.append(FailureSets(u, v))
    return tuple(out)


def assert_sweep_matches_references(cfg):
    sw = sweep(cfg)
    runs = list(sweep_runs(cfg))
    assert sw.total == len(runs)
    assert sw.probability == exact_failure_probability(cfg)
    assert randlab.scenario._failing_vectors(sw) == [
        (r.caps, [o.value for o in r.outcomes], r.x_prefix) for r in runs if r.failed]
    bits = sum(cfg.block_lengths)
    for i, run in enumerate(runs):
        oracle = BitString(format(i, f"0{bits}b") if bits else "")
        assert oracle_block_caps(oracle, cfg.cap_bounds) == run.caps
    got, want = sw.failure_sets(), extract_failure_sets(cfg)
    assert len(got) == len(want) == len(cfg.adversaries)
    for g, w in zip(got, want):
        for side in ("committed", "answered"):
            a, b = getattr(g, side), getattr(w, side)
            assert a.horizon == b.horizon
            for stage in range(-1, cfg.stage_budget + 2):
                assert a.open_at(stage) == b.open_at(stage), (side, stage)
            assert a.final() == b.final()


def bundled_fireworks_configs():
    configs = {}
    for name in ("fireworks_small", "fireworks_duet", "fireworks_bank"):
        scen = load_scenario(SCENARIO_DIR / f"{name}.json")
        table = ObjectTable(scen.objects)
        for exp in scen.experiments:
            p = exp.params
            configs[(name, tuple(p["adversaries"]))] = FireworksConfig.build(
                [table.get("enumerators", a, name) for a in p["adversaries"]], p["k"],
                p["target_length"], p["stage_budget"], p["cap_bounds"])
    return list(configs.values())


@pytest.mark.parametrize("cfg", bundled_fireworks_configs(),
                         ids=["small", "duet", "bank"])
def test_sweep_matches_the_per_vector_references_on_bundled_configs(cfg):
    assert_sweep_matches_references(cfg)


ladders = st.integers(1, 5).map(ladder)
random_adversaries = st.dictionaries(
    st.integers(1, 8),
    st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=1, max_size=3),
    max_size=4,
).map(lambda events: Enumerator(sorted(events.items()), horizon=9))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ladders | random_adversaries, st.sampled_from((2, 4, 8))),
                min_size=1, max_size=3),
       st.integers(1, 24))
def test_sweep_matches_the_per_vector_references_on_generated_adversaries(pairs, target):
    advs, bounds = zip(*pairs)
    cfg = FireworksConfig.build(advs, k=1, target_length=target, stage_budget=40,
                                cap_bounds=bounds)
    assert_sweep_matches_references(cfg)


def test_bundled_scenarios_make_one_engine_run_per_box_and_report(tmp_path, monkeypatch):
    # Counts of runs do not depend on machine speed: sweep, extract and the
    # trichotomy each run every leaf box once, a probe runs one.  The bank
    # has 12 leaves, the duet 3 and the small ladder 4 (one per cap).
    calls = []
    original = randlab.fireworks.run_fireworks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(randlab.fireworks, "run_fireworks", counted)
    monkeypatch.setattr(randlab.scenario, "run_fireworks", counted)
    counts = {}
    for name in ("fireworks_bank", "fireworks_duet", "fireworks_small"):
        calls.clear()
        result = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"), tmp_path / name)
        assert result.ok
        counts[name] = len(calls)
    assert counts == {"fireworks_bank": 25, "fireworks_duet": 6, "fireworks_small": 13}


def test_negative_k_is_refused():
    with pytest.raises(RandlabError, match="k -1 must be non-negative"):
        FireworksConfig.build([SILENT], k=-1, target_length=4, stage_budget=8)


def test_non_positive_target_length_is_refused():
    for target in (0, -4):
        with pytest.raises(RandlabError, match=f"target_length {target} must be positive"):
            FireworksConfig.build([SILENT], k=1, target_length=target, stage_budget=8)


def assert_leaves_tile_the_sweep(cfg):
    leaves = _leaves(cfg)
    owner = {}
    for leaf in leaves:
        for caps in itertools.product(*leaf.box):
            assert caps not in owner, "leaf boxes overlap"
            owner[caps] = leaf
    total = _cap_space(cfg)
    assert sum(leaf.volume for leaf in leaves) == total == len(owner)
    for run in sweep_runs(cfg):
        leaf = owner[run.caps]
        assert run == leaf.run._replace(caps=run.caps, records=tuple(
            r._replace(cap=c) for r, c in zip(leaf.run.records, run.caps)))


@pytest.mark.parametrize("cfg", bundled_fireworks_configs(),
                         ids=["small", "duet", "bank"])
def test_leaves_tile_the_cap_space_on_bundled_configs(cfg):
    assert_leaves_tile_the_sweep(cfg)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ladders | random_adversaries, st.sampled_from((2, 4, 8))),
                min_size=1, max_size=3),
       st.integers(1, 24))
def test_leaves_tile_the_cap_space_on_generated_adversaries(pairs, target):
    advs, bounds = zip(*pairs)
    cfg = FireworksConfig.build(advs, k=1, target_length=target, stage_budget=40,
                                cap_bounds=bounds)
    assert_leaves_tile_the_sweep(cfg)


def bank_config(bound):
    scen = load_scenario(SCENARIO_DIR / "fireworks_bank.json")
    table = ObjectTable(scen.objects)
    advs = [table.get("enumerators", a, "bank") for a in ("creeper", "forker", "spotter")]
    return FireworksConfig.build(advs, 2, 64, 40, (bound,) * 3)


def test_box_walk_scales_with_behaviours_not_vectors(monkeypatch):
    calls = []
    original = randlab.fireworks.run_fireworks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(randlab.fireworks, "run_fireworks", counted)
    leaves = _leaves(bank_config(64))
    assert sum(leaf.volume for leaf in leaves if leaf.run.failed) == 12097  # of 2^18
    assert len(calls) == len(leaves) <= 16

    # 2^60 vectors: far past SWEEP_GUARD, which only bounds `sweep`.
    start = time.perf_counter()
    leaves = _leaves(bank_config(1 << 20))
    assert time.perf_counter() - start < 1.0
    assert len(leaves) == 12
    assert sum(leaf.volume for leaf in leaves) == 1 << 60
    for a, b in itertools.combinations(leaves, 2):
        assert any(ra.stop <= rb.start or rb.stop <= ra.start
                   for ra, rb in zip(a.box, b.box)), "leaf boxes overlap"


def test_undecided_range_check_raises():
    cap = _Cap(2, 5, [], [])
    assert cap >= 1 and cap <= 8 and not cap >= 6 and not cap <= 1
    with pytest.raises(RandlabError, match=r"cap in 2..5 >= 3 is undecided"):
        cap >= 3
    with pytest.raises(RandlabError, match=r"cap in 2..5 <= 4 is undecided"):
        cap <= 4


def test_aligned_blocks_cover_exactly_the_range():
    for width in range(1, 6):
        for lo in range(1 << width):
            for hi in range(lo, 1 << width):
                if (lo, hi) == (0, (1 << width) - 1):
                    continue
                blocks = _aligned_blocks(lo, hi, width)
                covered = [v for v in range(1 << width)
                           for b in blocks if format(v, f"0{width}b").startswith(b)]
                assert covered == list(range(lo, hi + 1)), (width, lo, hi)
                assert len(blocks) <= 2 * width
