"""Single-step and layered coding, replayed the way a decoder would.

The crossbar tree (remove [00] and [10] at stage 0) is small enough that
every walk below is written out by hand next to its assertion.
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import counting, kg_tree_ok, kucera_depth_reference, reparsing_kg_decode_prefix

from randlab import cylinders
from randlab.bitstring import EMPTY, BitString, self_delimit
from randlab.cylinders import CylinderSet, EMPTY_SET, uniform_suffix_set
from randlab.coding import (OpenFamily, W2RScheme, _density_witness, encode_bits,
                            extend_into_open, g_lsc, gamma_decode, kg_decode,
                            kg_decode_prefix,
                            kg_encode, kucera_depth, shifted_core,
                            stabilization_stage, w2r_encode)
from randlab.errors import DensityError, DepthExhausted, SchemeError
from randlab.generators import build_working_w2r, nested_family, random_bits, random_pi01_tree
from randlab.staged import Pi01Tree, StagedOpenSet, by_stage


def crossbar(depth=6):
    return Pi01Tree(depth, [(0, ["00", "10"])], horizon=2)


def test_kucera_depth_crossbar():
    t = crossbar()
    # Length 1 has no intact node (each has a removal strictly below);
    # length 2 branches into the two survivors 01 and 11.
    assert kucera_depth(EMPTY, t, 0) == 2
    assert kucera_depth(BitString("01"), t, 0) == 3
    bare = Pi01Tree(4)
    assert kucera_depth(EMPTY, bare, 0) == 1
    cramped = Pi01Tree(2, [(0, ["00", "10"])])
    with pytest.raises(DepthExhausted):
        kucera_depth(BitString("01"), cramped, 0)


bit_strings = st.text(alphabet="01", max_size=7).map(BitString)


@settings(max_examples=300, deadline=None)
@given(depth=st.integers(1, 10),
       removals=st.lists(st.tuples(st.integers(0, 4), st.text(alphabet="01", min_size=1,
                                                               max_size=10)), max_size=8),
       sigma=bit_strings, stage=st.integers(-1, 5))
def test_kucera_depth_matches_the_per_length_loop(depth, removals, sigma, stage):
    tree = Pi01Tree(depth, by_stage((s, r[:depth]) for s, r in removals), horizon=4)
    want = kucera_depth_reference(sigma, tree, stage)
    if want is None:
        with pytest.raises(DepthExhausted):
            kucera_depth(sigma, tree, stage)
    else:
        assert kucera_depth(sigma, tree, stage) == want


def test_encode_bits_walks_extremes():
    t = crossbar()
    assert encode_bits(BitString("0"), EMPTY, t, 0) == BitString("01")
    assert encode_bits(BitString("1"), EMPTY, t, 0) == BitString("11")
    assert encode_bits(BitString("10"), EMPTY, t, 0) == BitString("110")


def test_kg_codeword_by_hand():
    # self_delimit("1") = 101; the walk takes 11, then 110, then 1101.
    t = crossbar()
    assert kg_encode(BitString("1"), EMPTY, t) == BitString("1101")
    assert kg_decode(BitString("1101"), EMPTY, t) == BitString("1")


def test_kg_round_trip_all_short_payloads():
    t = crossbar(depth=24)
    seen = []
    for k in range(16):
        payload = BitString(format(k, "04b"))
        code = kg_decode_prefix(kg_encode(payload, EMPTY, t), EMPTY, t)
        assert code is not None and code[0] == payload
        seen.append(kg_encode(payload, EMPTY, t))
    # The codeword set is an antichain: the codec is prefix-free and the
    # walk sends incomparable bit streams to incomparable stems.
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            assert not a.comparable(b)


def test_kg_decode_rejects_nonwords():
    t = crossbar()
    word = kg_encode(BitString("1"), EMPTY, t)
    assert kg_decode(word + BitString("0"), EMPTY, t) is None
    assert kg_decode(word.prefix(len(word) - 1), EMPTY, t) is None
    assert kg_decode(BitString("10"), EMPTY, t) is None  # off-survivor step
    assert kg_decode_prefix(BitString("0"), BitString("1"), t) is None


def test_kg_round_trip_seeded_trees():
    for i in range(12):
        rng = random.Random(f"kg:{i}")
        tree = random_pi01_tree(rng, depth=24, horizon=8)
        assert kg_tree_ok(tree, [BitString("^"), BitString("0"), BitString("101")], EMPTY, tree.horizon)


# The walks as they were before the walk read each step off the fork of the
# removed set below its stem: every step asks the per-length loop and both
# extreme extensions afresh, from the root.  They are the oracles for the
# walks, and share no fork with them.

def encode_bits_reference(bits, sigma, tree, stage):
    cur = BitString(sigma)
    for b in bits:
        length = kucera_depth_reference(cur, tree, stage)
        if length is None:
            raise DepthExhausted(f"no branching level above {cur} within depth {tree.depth}")
        cur = (tree.rightmost_intact if b else tree.leftmost_intact)(cur, length, stage)
    return cur


def kg_decode_prefix_reference(x, sigma, tree, stage):
    cur = BitString(sigma)
    if not x.extends(cur):
        return None
    count, seen_zero, payload = 0, False, []
    while not (seen_zero and len(payload) == count):
        length = kucera_depth_reference(cur, tree, stage)
        if length is None or length > len(x):
            return None
        step = x.prefix(length)
        if step == tree.leftmost_intact(cur, length, stage):
            bit = 0
        elif step == tree.rightmost_intact(cur, length, stage):
            bit = 1
        else:
            return None
        if seen_zero:
            payload.append(bit)
        elif bit:
            count += 1
        else:
            seen_zero = True
        cur = step
    return BitString(payload), cur


def walk_outcome(walk, *args):
    try:
        return walk(*args)
    except DepthExhausted as err:
        return "DepthExhausted", str(err)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.sampled_from([9, 12, 24]),
       calls=st.lists(st.tuples(st.text(alphabet="01", max_size=6).map(BitString),
                                st.text(alphabet="01", max_size=3).map(BitString),
                                st.integers(-1, 9), st.integers(0, 3)),
                      min_size=1, max_size=12))
def test_kg_walks_match_the_unmemoized_walks(seed, depth, calls):
    # One tree serves every call, so later walks read forks that earlier
    # walks left on the trie's nodes, across stages; shallow trees run out
    # of depth (DepthExhausted from encode_bits, None from the decoder), and
    # mangled or truncated words stray off the survivors.
    rng = random.Random(seed)
    removal_len = min(8, depth - 1)
    kept = [(rng.randrange(9), BitString(format(rng.getrandbits(n), f"0{n}b")))
            for n in (1 + rng.randrange(removal_len) for _ in range(rng.randrange(8)))]
    tree = Pi01Tree(depth, by_stage(kept), horizon=8)
    for payload, sigma, stage, mangle in calls:
        bits = self_delimit(payload)
        got = walk_outcome(encode_bits, bits, sigma, tree, stage)
        assert got == walk_outcome(encode_bits_reference, bits, sigma, tree, stage)
        x = got if isinstance(got, BitString) else sigma + payload
        if mangle == 1:
            x = x.prefix(len(x) - 1) if len(x) else x
        elif mangle == 2:
            x = x + BitString("01")
        elif mangle == 3 and len(x):
            x = x.prefix(len(x) - 1).append(1 - x[len(x) - 1])
        for probe in (stage, stage + 1):
            assert (kg_decode_prefix(x, sigma, tree, probe)
                    == kg_decode_prefix_reference(x, sigma, tree, probe))


def kg_inputs(rng, tree, stage):
    """(kind, sigma, x): a codeword with a tail, truncated, or with one bit
    past sigma flipped; or the walk up to where the tree runs out of depth."""
    sigma, bits = random_bits(rng, rng.randrange(3)), self_delimit(random_bits(rng, rng.randrange(8)))
    word = sigma
    for k in range(1, len(bits) + 1):
        try:
            word = encode_bits(bits.prefix(k), sigma, tree, stage)
        except DepthExhausted:
            return [("exhausted", sigma, word + random_bits(rng, 8))]
    i = rng.randrange(len(sigma), len(word))
    return [("codeword", sigma, word + random_bits(rng, rng.randrange(4))),
            ("truncated", sigma, word.prefix(rng.randrange(len(sigma), len(word)))),
            ("stray", sigma, word.prefix(i).append(1 - word[i]) + word[i + 1:])]


def test_kg_decode_prefix_matches_the_reparsing_body():
    # On seeded trees; each kind of None comes up: too short, off the
    # survivors, and out of depth, also past the codec block's first 0.
    nones = Counter()
    for seed in range(40):
        rng = random.Random(f"kg-decode:{seed}")
        tree = random_pi01_tree(rng, depth=rng.choice((9, 12, 24)), horizon=8)
        for stage in (rng.randrange(-1, 10) for _ in range(4)):
            for kind, sigma, x in kg_inputs(rng, tree, stage):
                got = kg_decode_prefix(x, sigma, tree, stage)
                assert got == reparsing_kg_decode_prefix(x, sigma, tree, stage), (seed, kind, x)
                nones[kind] += got is None
    assert nones["codeword"] == 0 and all(nones[k] for k in ("truncated", "stray", "exhausted"))


def test_kg_decode_prefix_parses_its_block_once(monkeypatch):
    # A work-count gate: the codec block is parsed when it closes, not after
    # every bit, and a walk that never closes it parses nothing.
    tree = crossbar(depth=80)
    payload = BitString("1011" * 6)
    word = kg_encode(payload, EMPTY, tree)
    calls = counting(monkeypatch, "read_self_delimited")
    assert kg_decode_prefix(word, EMPTY, tree) == (payload, word)
    assert kg_decode_prefix(word.prefix(len(word) - 1), EMPTY, tree) is None
    assert calls == [(self_delimit(payload),)]


def test_kg_walks_hit_every_outcome():
    # The differential test above reaches each kind of result.
    tree = Pi01Tree(3, [(0, ["00"])], horizon=1)
    with pytest.raises(DepthExhausted, match="above 111 within depth 3"):
        encode_bits(BitString("111"), EMPTY, tree, 0)
    assert kg_decode_prefix(BitString("111"), EMPTY, tree, 0) is None


def test_kg_sweep_computes_each_fork_once(monkeypatch):
    # A work-count gate on one kg_sweep instance: 31 payloads encoded and
    # decoded over one tree walk the same codec stems again and again, and
    # each node the walks reach keeps its fork.
    forks = counting(monkeypatch, "_fork", cylinders)
    tree = random_pi01_tree(random.Random("0:0"), depth=24, horizon=8)
    for n in range(5):
        for payload in BitString.all_strings(n):
            word = kg_encode(payload, EMPTY, tree)
            assert kg_decode(word, EMPTY, tree, tree.horizon) == payload
    assert forks and len(forks) == len(set(forks))


def test_a_kg_walk_descends_only_its_new_bits(monkeypatch):
    # A work-count gate: the walk shifts the removed set below its stem by
    # each step, so over one encode and one decode the trie is descended
    # along each codeword bit about once, not from the root at every step.
    tree = crossbar(depth=200)
    payload = BitString("0110" * 16)
    descents = counting(monkeypatch, "_descend", cylinders)
    word = kg_encode(payload, EMPTY, tree)
    encoded = sum(len(bits) for _, bits in descents)
    descents.clear()
    assert kg_decode(word, EMPTY, tree) == payload
    decoded = sum(len(bits) for _, bits in descents)
    assert len(word) == 130
    assert encoded <= 2 * len(word) and decoded <= 2 * len(word), (encoded, decoded)


def test_stage_replay_garbles_honestly():
    # A removal landing at stage 1 moves the branching level, so a stage-0
    # codeword no longer tracks the stage-1 survivors.
    t = Pi01Tree(4, [(1, ["01"])], horizon=1)
    word = kg_encode(BitString("0"), EMPTY, t, stage=0)
    assert kg_decode(word, EMPTY, t, stage=0) == BitString("0")
    assert kg_decode(word, EMPTY, t, stage=1) is None


def test_open_family_nesting_enforced():
    big = StagedOpenSet([(0, ["0"])], horizon=2)
    small = StagedOpenSet([(1, ["00"])], horizon=2)
    OpenFamily((big, small))
    with pytest.raises(SchemeError):
        OpenFamily((small, big))
    with pytest.raises(SchemeError):
        OpenFamily(())


def open_family_reference(levels):
    """The nesting check `OpenFamily` made before it read only change
    stages: every stage up to the largest horizon.  The error it would
    raise, or None."""
    horizon = max(l.horizon for l in levels)
    for k in range(len(levels) - 1):
        for s in range(horizon + 1):
            if not levels[k + 1].open_at(s).is_subset(levels[k].open_at(s)):
                return f"family levels {k},{k + 1} not nested at stage {s}"
    return None


def _family_outcome(levels):
    try:
        OpenFamily(tuple(levels))
    except SchemeError as e:
        return str(e)
    return None


@st.composite
def staged_levels(draw):
    """One to three staged open sets with horizons up to 12, over short strings."""
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        stages = draw(st.lists(st.integers(0, 12), max_size=4, unique=True))
        events = [(stage, draw(st.lists(st.text(alphabet="01", max_size=2), max_size=3)))
                  for stage in sorted(stages)]
        horizon = draw(st.integers(max(stages, default=0), 12))
        levels.append(StagedOpenSet(events, horizon))
    return levels


@settings(max_examples=150, deadline=None)
@given(staged_levels())
def test_open_family_refuses_what_the_per_stage_loop_refuses(levels):
    assert _family_outcome(levels) == open_family_reference(levels)


@pytest.mark.parametrize("seed", range(20))
def test_nested_families_pass_both_checks(seed):
    levels = nested_family(random.Random(seed), 3, seed % 13).levels
    assert _family_outcome(levels) is None and open_family_reference(levels) is None


def test_open_family_at_horizon_2_to_the_70_reads_only_change_stages():
    start = time.perf_counter()
    nested_family(random.Random(1), 3, 2 ** 70)
    assert time.perf_counter() - start < 1
    outer = StagedOpenSet([(0, ["0"])], horizon=2 ** 70)
    inner = StagedOpenSet([(3, ["1"])], horizon=2 ** 70)
    with pytest.raises(SchemeError, match=r"^family levels 0,1 not nested at stage 3$"):
        OpenFamily((outer, inner))


def test_g_lsc_approximates_from_below():
    # Level 0 swallows the whole cylinder above 0 only at stage 2, pushing
    # the least admissible index from 0 up to 1.
    l0 = StagedOpenSet([(2, ["0"])], horizon=4)
    l1 = StagedOpenSet([], horizon=4)
    fam = OpenFamily((l0, l1))
    tree = Pi01Tree(6, horizon=4)
    values = [g_lsc(fam, BitString("0"), tree, s) for s in range(5)]
    assert values == [0, 0, 1, 1, 1]
    for a, b in zip(values, values[1:]):
        assert a <= b
    # With every level full above sigma, no index qualifies.
    full = OpenFamily((StagedOpenSet([(0, ["^"])], horizon=1),))
    assert g_lsc(full, BitString("0"), Pi01Tree(4, horizon=1), 1) is None


def test_w2r_encode_layers_and_classes():
    payloads = [BitString("101"), BitString("01")]
    scheme, enc = build_working_w2r(5, payloads)
    assert [l.family_index for l in enc.layers] == list(scheme.star_indices)
    assert [l.payload for l in enc.layers] == payloads
    assert len(enc.classes) == 3
    assert enc.classes[-1].viable(enc.codeword, scheme.horizon)
    # Each layer's index trajectory is its (stage, index) change points: the
    # first at stage 0, the stages rising, each index differing from the last.
    assert [l.g_trajectory for l in enc.layers] == [((0, 0), (1, 1), (2, 2)), ((0, 0), (6, 2))]
    for layer in enc.layers:
        stages = [t for t, _ in layer.g_trajectory]
        indices = [g for _, g in layer.g_trajectory]
        assert stages[0] == 0 and stages == sorted(set(stages))
        assert all(a != b for a, b in zip(indices, indices[1:]))
        assert layer.g_trajectory[-1][1] == layer.g_value
    with pytest.raises(SchemeError):
        w2r_encode(payloads + [BitString("1")], scheme)


def test_stabilization_confines_errors():
    payloads = [BitString("101"), BitString("01")]
    scheme, enc = build_working_w2r(5, payloads)
    stab = stabilization_stage(enc)
    assert stab == max(layer.g_trajectory[-1][0] for layer in enc.layers) == 6
    for layer in enc.layers:
        # The index in force at stab is the limit, and it moves no more later.
        assert [g for t, g in layer.g_trajectory if t <= stab][-1] == layer.g_value
        assert all(t <= stab for t, _ in layer.g_trajectory)
    stream = BitString("10101")
    res = gamma_decode(enc.codeword, max(scheme.horizon, stab) + len(stream), scheme)
    assert res.output_prefix() == stream
    for i in range(stab, len(stream)):
        bit, _ = res.positions[i]
        assert bit == stream[i]


def test_gamma_positions_written_once_and_stage_limited():
    payloads = [BitString("11")]
    scheme, enc = build_working_w2r(7, payloads)
    res = gamma_decode(enc.codeword, 10, scheme)
    for i, (bit, t) in res.positions.items():
        assert i <= t  # a stage-t replay may claim positions up to t only
    assert res.output_prefix() == BitString("11")
    assert len(res.output_prefix()) == 2


def test_shifted_core_exact():
    for i in range(10):
        rng = random.Random(f"core:{i}")
        gens = [BitString(format(rng.randrange(8), "03b"))
                for _ in range(rng.randrange(1, 4))]
        u = CylinderSet.normalize(gens)
        for n in range(4):
            core = shifted_core(u, n)
            for tail in BitString.all_strings(5):
                expect = all(u.contains_prefix_of(head + tail)
                             for head in BitString.all_strings(n))
                assert core.contains_prefix_of(tail) == expect


def test_extend_into_open_steers_every_head():
    u = uniform_suffix_set("11", 6)
    _, enc = build_working_w2r(5, [BitString("10")])
    payload, n, zeta = extend_into_open(enc, u)
    assert payload == BitString("0" * (n - 2)) + zeta
    assert n >= 2
    for head in BitString.all_strings(n):
        assert u.contains_prefix_of(head + zeta)


def test_extend_into_open_rejects_sparse_sets():
    # With no coded prefix the head length is zero and a bare cylinder is
    # reachable; one prior payload forces heads the cylinder cannot absorb.
    scheme, coded = build_working_w2r(5, [BitString("10")])
    payload, n, zeta = extend_into_open(w2r_encode([], scheme), CylinderSet.cylinder("11"))
    assert (payload, n, zeta) == (BitString("11"), 0, BitString("11"))
    with pytest.raises(DensityError) as err:
        extend_into_open(coded, CylinderSet.cylinder("11"))
    assert "head" in str(err.value)
    with pytest.raises(DensityError):
        extend_into_open(coded, EMPTY_SET)


def density_witness_reference(u, depth):
    # Every head in length-lex order, shortest first.
    for length in range(depth + 1):
        for head in BitString.all_strings(length):
            if u.shift(head).is_empty():
                return head
    return None


def test_density_witness_is_a_shortest_head():
    u = CylinderSet.normalize(["01110"])
    assert _density_witness(u, 6) == BitString("1")
    assert _density_witness(u, 0) is None
    assert _density_witness(EMPTY_SET, 0) == EMPTY


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(st.text(alphabet="01", max_size=6), max_size=5),
       depth=st.integers(0, 7))
def test_density_witness_matches_breadth_first_search(gens, depth):
    u = CylinderSet.normalize(gens)
    assert _density_witness(u, depth) == density_witness_reference(u, depth)


def test_density_witness_deep_head_without_recursion():
    # Everything but [0^5000]: the only empty copy sits 5000 bits down.
    u = CylinderSet.cylinder("0" * 5000).complement()
    assert _density_witness(u, 5000) == BitString("0" * 5000)
    assert _density_witness(u, 4999) is None


def test_scheme_star_index_validation():
    tree = Pi01Tree(6, horizon=1)
    fam = OpenFamily((StagedOpenSet([], 1),))
    with pytest.raises(SchemeError):
        W2RScheme(tree, (fam,), (1,), horizon=1)
    scheme = W2RScheme(tree, (fam,), (0,), horizon=1)
    with pytest.raises(SchemeError):
        scheme.family(3)
