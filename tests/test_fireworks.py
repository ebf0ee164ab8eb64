"""Engine-level checks, each against a hand-traced script.

The adversary schedules here are small enough to run on paper; every
expected outcome below was derived by walking the scheduler loop by hand
before being frozen into an assertion.
"""

import bisect
import functools
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (ReplayedCap, axis_ok, cap_axes, counting, extract_ok, folded_failure_sets,
                     ladder, ladders, random_adversaries, replayed_leaves, sweep_runs)

import randlab.scenario
from randlab.bitstring import BitString
from randlab.cylinders import CylinderSet
from randlab.dyadic import Dyadic
from randlab.errors import GuardExceeded, RandlabError
from randlab.fireworks import (FailureSets, FireworksConfig, Outcome,
                               Requirement, _Engine, _leaves,
                               _oracle_set, caps_from_seed, check_requirement,
                               default_cap_bounds, oracle_block_caps,
                               run_fireworks, sweep)
from randlab import cylinders, staged
from randlab.reports import render_field
from randlab.scenario import (Context, Experiment, ObjectTable, SCENARIO_DIR, Scenario,
                              _cap_space, load_scenario, run_scenario)
from randlab.staged import Enumerator, StagedOpenSet, by_stage

SILENT = Enumerator([], horizon=0)


def test_default_cap_bounds():
    assert default_cap_bounds(3, 2) == (8, 16, 32)
    assert default_cap_bounds(1, 0) == (2,)
    cfg = FireworksConfig.build([SILENT, SILENT, SILENT], k=2, target_length=8, stage_budget=8)
    assert cfg.cap_bounds == (8, 16, 32)


@given(st.integers(0, 40), st.integers(0, 40))
def test_default_cap_bounds_inverse_sum_stays_under_2_to_the_minus_k(count, k):
    # sum over e < m of 2^-(e+k+1) = 2^-k (1 - 2^-m) < 2^-k, so `build` needs
    # no check of the sum for its defaults.
    total = sum(Fraction(1, n) for n in default_cap_bounds(count, k))
    assert total == Fraction(1, 2 ** k) * (1 - Fraction(1, 2 ** count))
    assert total < Fraction(1, 2 ** k)


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
    (fs,) = sweep(cfg).failure_sets
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
    (fs,) = sweep(cfg).failure_sets
    # All four caps commit; only cap 4 (oracle block 11) goes unanswered.
    assert fs.committed.final().is_full()
    assert fs.residue() == CylinderSet.cylinder("11")
    assert fs.residue().measure() == sweep(cfg).probability


def test_duet_trichotomy_and_silent_immunity():
    cfg = FireworksConfig.build([ladder(), SILENT], k=1, target_length=64,
                                stage_budget=40, cap_bounds=(4, 4))
    table = {run.caps: run.outcomes for run in sweep_runs(cfg)}
    assert len(table) == 16
    for e, vectors in cap_axes((4, 4)):
        assert axis_ok([table[caps][e] for caps in vectors]), vectors
    for outcomes in table.values():
        assert outcomes[1] is Outcome.PASSIVE_SUCCESS
    failing = sum(1 for o in table.values() if Outcome.ACTIVE_FAILURE in o)
    assert sweep(cfg).probability == Dyadic(failing, 4)


def test_extract_union_matches_sweep_probability():
    cfg = FireworksConfig.build([ladder(), SILENT], k=1, target_length=64,
                                stage_budget=40, cap_bounds=(4, 4))
    assert extract_ok(cfg)


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


def test_cap_bounds_above_2_to_the_64_are_refused():
    FireworksConfig.build([SILENT], k=0, target_length=4, stage_budget=8,
                          cap_bounds=(1 << 64,))
    with pytest.raises(RandlabError, match=r"^cap bound 2\^65 exceeds 2\^64$"):
        FireworksConfig.build([SILENT], k=0, target_length=4, stage_budget=8,
                              cap_bounds=(1 << 65,))
    # Default bounds run 2^(k+1) .. 2^(k+count): the largest names k.
    assert FireworksConfig.build([SILENT, SILENT], k=62, target_length=4,
                                 stage_budget=8).cap_bounds[-1] == 1 << 64
    with pytest.raises(RandlabError, match=r"^k 63 gives default cap bounds up to 2\^65, over 2\^64$"):
        FireworksConfig.build([SILENT, SILENT], k=63, target_length=4, stage_budget=8)
    with pytest.raises(RandlabError, match=r"^k 100000 gives default cap bounds up to 2\^100001"):
        FireworksConfig.build([SILENT], k=100000, target_length=4, stage_budget=8)


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
        u = StagedOpenSet(by_stage(committed[e]), cfg.stage_budget)
        v = StagedOpenSet(by_stage(answered[e]), cfg.stage_budget)
        out.append(FailureSets(u, v))
    return tuple(out)


def assert_sweep_matches_references(cfg):
    sw = sweep(cfg)
    runs = list(sweep_runs(cfg))
    assert sw.total == len(runs)
    assert sw.probability == exact_failure_probability(cfg)
    # The rows as the report renders them, cell by cell, against each
    # failing vector's own run.
    assert [tuple(map(render_field, row)) for row in randlab.scenario._failing_vectors(sw)] == [
        (render_field(r.caps), render_field([o.value for o in r.outcomes]), render_field(r.x_prefix))
        for r in runs if r.failed]
    bits = sum(cfg.block_lengths)
    for i, run in enumerate(runs):
        oracle = BitString(format(i, f"0{bits}b") if bits else "")
        assert oracle_block_caps(oracle, cfg.cap_bounds) == run.caps
    assert_same_failure_sets(sw.failure_sets, extract_failure_sets(cfg), cfg)


def assert_same_failure_sets(got, want, cfg):
    """Every stage value of both sides of every strategy's `FailureSets`."""
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


# One to three generated adversaries, each with cap bound 2, 4 or 8.
generated_configs = st.builds(
    lambda pairs, target: FireworksConfig.build([a for a, _ in pairs], k=1, target_length=target,
                                                stage_budget=40, cap_bounds=[n for _, n in pairs]),
    st.lists(st.tuples(ladders | random_adversaries, st.sampled_from((2, 4, 8))), min_size=1, max_size=3),
    st.integers(1, 24))


@settings(max_examples=40, deadline=None)
@given(generated_configs)
def test_sweep_matches_the_per_vector_references_on_generated_adversaries(cfg):
    assert_sweep_matches_references(cfg)


def test_bundled_scenarios_make_one_engine_run_per_box_and_report(tmp_path, monkeypatch):
    # Counts of runs do not depend on machine speed: a scenario run walks
    # each config once, running every leaf box once (started or resumed),
    # and that one walk feeds its sweep, extract and trichotomy reports; a
    # probe runs one more.  The bank has 12 leaves, the duet 3 and the small
    # ladder 4 (one per cap).
    calls = counting(monkeypatch, "run", _Engine)
    counts = {}
    for name in ("fireworks_bank", "fireworks_duet", "fireworks_small"):
        calls.clear()
        result = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"), tmp_path / name)
        assert result.ok
        counts[name] = len(calls)
    assert counts == {"fireworks_bank": 13, "fireworks_duet": 3, "fireworks_small": 5}


def test_bundled_scenarios_build_each_least_extension_table_once(tmp_path, monkeypatch):
    # An engine step reads its adversary through `least_extension`, never
    # through `at`, and a snapshot's table is built the first time a step
    # asks it: every later run and report of the scenario reads it again.
    asked, built = [], []
    per_snapshot, least_above = staged._Schedule._per_snapshot, staged._least_above

    def counted_per_snapshot(self, build, stage):
        # The snapshot a stage reads: the one after its last event.
        asked.append((self, bisect.bisect_right(self._stages, stage)))
        return per_snapshot(self, build, stage)

    def counted_least_above(snapshot):
        built.append(asked[-1])
        return least_above(snapshot)

    def no_at(self, stage):
        raise AssertionError(f"Enumerator.at({stage}) called")

    monkeypatch.setattr(staged._Schedule, "_per_snapshot", counted_per_snapshot)
    monkeypatch.setattr(staged, "_least_above", counted_least_above)
    monkeypatch.setattr(Enumerator, "at", no_at)
    for name in ("fireworks_bank", "fireworks_duet", "fireworks_small"):
        built.clear()
        assert run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"), tmp_path / name).ok
        assert built, name
        assert len(built) == len(set(built)), name


MEMO_OBJECTS = {"enumerators": {"a": {"events": [[1, ["1"]], [2, ["01"]]], "horizon": 3},
                                "b": {"events": [[1, ["1"]]], "horizon": 3}}}


def memo_scenario(*configs):
    """A sweep, trichotomy and extract report on each config, interleaved."""
    kinds = ("fireworks_sweep", "fireworks_trichotomy", "fireworks_extract")
    exps = tuple(Experiment(f"{kind}_{i}", kind, dict(cfg, k=1, target_length=8, stage_budget=12))
                 for kind in kinds for i, cfg in enumerate(configs))
    return Scenario("memo", MEMO_OBJECTS, exps)


def test_a_scenario_run_walks_each_config_once(tmp_path, monkeypatch):
    walked = counting(monkeypatch, "sweep", randlab.scenario)
    ab = {"adversaries": ["a", "b"], "cap_bounds": [4, 2]}
    # Read twice, a config is one key: its enumerators are the run's objects.
    assert run_scenario(memo_scenario(ab, {"adversaries": ["a"], "cap_bounds": [4]}, ab),
                        tmp_path / "one").ok
    assert [len(cfg.adversaries) for cfg, in walked] == [2, 1]
    # Configs that differ only in their cap bounds are two walks.
    walked.clear()
    assert run_scenario(memo_scenario({"adversaries": ["a"], "cap_bounds": [4]},
                                      {"adversaries": ["a"], "cap_bounds": [8]}),
                        tmp_path / "two").ok
    assert [cfg.cap_bounds for cfg, in walked] == [(4,), (8,)]


def test_two_runs_share_no_walk(tmp_path, monkeypatch):
    # Each `run_scenario` has its own Context; two of them walk one config
    # (one object, the same enumerators) once each.
    walked = counting(monkeypatch, "sweep", randlab.scenario)
    first, second = (Context(Scenario("memo", MEMO_OBJECTS, ()), tmp_path) for _ in range(2))
    a = first.objects.get("enumerators", "a", "test")
    cfg = FireworksConfig.build([a], k=1, target_length=8, stage_budget=12, cap_bounds=(4,))
    for ctx in (first, first, second, second):
        ctx.swept(cfg)
    assert walked == [(cfg,), (cfg,)]


def test_a_walk_the_guard_refuses_is_not_kept(tmp_path, monkeypatch):
    walked = counting(monkeypatch, "sweep", randlab.scenario)
    ctx = Context(Scenario("guard", MEMO_OBJECTS, ()), tmp_path)
    a = ctx.objects.get("enumerators", "a", "test")
    cfg = FireworksConfig.build([a, a], k=1, target_length=8, stage_budget=12,
                                cap_bounds=(1 << 13, 1 << 12))
    for _ in range(2):
        with pytest.raises(GuardExceeded, match="cap sweep over 33554432 vectors refused"):
            ctx.swept(cfg)
    assert walked == []


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
        assert run == leaf.run._replace(caps=run.caps)


def assert_walk_matches_the_replayed_walk(cfg):
    # A resumed leaf run is the run that replaying its box from stage 0
    # makes, and each failure set's value is the union of its boxes' tries.
    leaves = _leaves(cfg)
    assert leaves == replayed_leaves(cfg)
    assert_same_failure_sets(sweep(cfg).failure_sets, folded_failure_sets(cfg, leaves), cfg)


@pytest.mark.parametrize("cfg", bundled_fireworks_configs(),
                         ids=["small", "duet", "bank"])
def test_walk_matches_the_replayed_walk_on_bundled_configs(cfg):
    assert_walk_matches_the_replayed_walk(cfg)


@settings(max_examples=60, deadline=None)
@given(generated_configs)
def test_walk_matches_the_replayed_walk_on_generated_adversaries(cfg):
    assert_walk_matches_the_replayed_walk(cfg)


@pytest.mark.parametrize("cfg", bundled_fireworks_configs(),
                         ids=["small", "duet", "bank"])
def test_leaves_tile_the_cap_space_on_bundled_configs(cfg):
    assert_leaves_tile_the_sweep(cfg)


@settings(max_examples=40, deadline=None)
@given(generated_configs)
def test_leaves_tile_the_cap_space_on_generated_adversaries(cfg):
    assert_leaves_tile_the_sweep(cfg)


def bank_config(bound):
    scen = load_scenario(SCENARIO_DIR / "fireworks_bank.json")
    table = ObjectTable(scen.objects)
    advs = [table.get("enumerators", a, "bank") for a in ("creeper", "forker", "spotter")]
    return FireworksConfig.build(advs, 2, 64, 40, (bound,) * 3)


def test_box_walk_scales_with_behaviours_not_vectors(monkeypatch):
    calls = counting(monkeypatch, "run", _Engine)  # leaf runs, started or resumed
    leaves = _leaves(bank_config(64))
    assert sum(leaf.volume for leaf in leaves if leaf.run.failed) == 12097  # of 2^18
    assert len(calls) == len(leaves) <= 16

    # 2^60 vectors: far past SWEEP_GUARD, which bounds only the reports.
    start = time.perf_counter()
    leaves = _leaves(bank_config(1 << 20))
    assert time.perf_counter() - start < 1.0
    assert len(leaves) == 12
    assert sum(leaf.volume for leaf in leaves) == 1 << 60
    for a, b in itertools.combinations(leaves, 2):
        assert any(ra.stop <= rb.start or rb.stop <= ra.start
                   for ra, rb in zip(a.box, b.box)), "leaf boxes overlap"


def test_sweep_walks_a_cap_space_past_the_guard():
    # 2^60 vectors, 2^36 times SWEEP_GUARD: the guard is the reports', and
    # `sweep` walks the 12 leaves and builds the failure sets exactly.
    cfg = bank_config(1 << 20)
    start = time.perf_counter()
    sw = sweep(cfg)
    residues = [fs.residue() for fs in sw.failure_sets]
    union = functools.reduce(CylinderSet.__or__, residues)
    assert union.measure() == sw.probability == Dyadic(3298531737601, 60)
    assert time.perf_counter() - start < 1.0
    assert (len(sw.leaves), sw.total) == (12, 1 << 60)
    assert [r.measure() for r in residues] == [Dyadic(1048575, 40), Dyadic(1099509530625, 60),
                                               Dyadic(1, 20)]
    assert all(r.measure() <= Dyadic(1, 20) for r in residues)


def test_sweep_work_follows_the_split_tree(monkeypatch):
    # Counts that do not depend on machine speed.  A split box's run resumes
    # at the step the split decided, so the walk makes 143 lookups, not the
    # 179 of replaying every leaf from stage 0; a failure set's value is
    # built in one pass over its boxes, so `sweep` and the residues pair
    # 174 / 264 / 354 nodes, not the 772 / 1,164 / 1,556 of a union per box.
    configs = {n: bank_config(n) for n in (16, 64, 256)}
    lookups = counting(monkeypatch, "least_extension", Enumerator)
    pairs = counting(monkeypatch, "_pair", cylinders)
    sweep(configs[16])
    assert len(lookups) <= 143
    for n, most in ((16, 200), (64, 320), (256, 460)):
        pairs.clear()
        sw = sweep(configs[n])
        for fs in sw.failure_sets:
            fs.residue()
        assert len(sw.leaves) == 12
        assert len(pairs) <= most, n


def test_failure_sets_spell_out_no_oracle(monkeypatch):
    # A box's oracles are one trie of intervals, so at any cap bound `sweep`
    # and the residue measures construct only the bit strings of the walk.
    built = []
    init = BitString.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(BitString, "__init__", counted)
    for l in (4, 6, 8):
        n = 1 << l
        walked, cfg = bank_config(n), bank_config(n)
        del built[:]
        _leaves(walked)
        walk = len(built)
        del built[:]
        measures = [fs.residue().measure() for fs in sweep(cfg).failure_sets]
        assert len(built) == walk, n
        assert measures == [Dyadic(n - 1, 2 * l), Dyadic((n - 1) ** 2, 3 * l), Dyadic(1, l)]


def test_undecided_range_check_raises():
    cap = ReplayedCap(2, 5, [], [])
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


def _aligned_blocks(lo, hi, width):
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


def box_oracles(box, cfg):
    """The oracles of a box's vectors as `sweep` made them before it built
    one trie per box: the narrow blocks before the last spelt out value by
    value, the last one as aligned blocks (`_aligned_blocks`), the ones
    after it free."""
    last = max((e for e, (r, n) in enumerate(zip(box, cfg.cap_bounds)) if len(r) < n),
               default=-1)
    prefixes = [""]
    for e in range(last + 1):
        r, width = box[e], cfg.block_lengths[e]
        blocks = (_aligned_blocks(r.start - 1, r.stop - 2, width) if e == last
                  else [format(cap - 1, f"0{width}b") for cap in r])
        prefixes = [p + b for p in prefixes for b in blocks]
    return [BitString(p) for p in prefixes]


@st.composite
def boxes(draw):
    """A config of up to four cap bounds and a box of cap ranges within them."""
    bounds = draw(st.lists(st.sampled_from((2, 4, 8, 16)), min_size=1, max_size=4))
    cfg = FireworksConfig.build([SILENT] * len(bounds), k=1, target_length=4, stage_budget=8,
                                cap_bounds=bounds)
    box = []
    for n in bounds:
        lo = draw(st.integers(1, n))
        box.append(range(lo, draw(st.integers(lo, n)) + 1))
    return tuple(box), cfg


@settings(max_examples=300, deadline=None)
@given(boxes())
def test_box_set_is_the_spelt_out_box_oracles(box_cfg):
    box, cfg = box_cfg
    assert _oracle_set((box,), cfg.block_lengths) == CylinderSet.normalize(box_oracles(box, cfg))
