"""The staged decoder and the layered encoder against their slow references.

`gamma_decode` walks each path of (family, index) choices once and replays
once per change stage of the scheme, keeping one record per run of stages
that replay alike; `reference_gamma` replays every stage from scratch, the
way it once did.  `w2r_encode` keeps each layer's index trajectory as
change points; `reference_extend` is the per-stage index search it
replaced.  Both references are the oracles here.  `hitting_run` extends
one running encoding by a layer per open; `hitting_reference` re-encodes
every payload from scratch before each open instead.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import counting, criterion_7_run

from randlab import generators
from randlab.bitstring import EMPTY, BitString, decode_pair, encode_pair, self_delimit
from randlab.coding import (GammaResult, LayerRecord, OpenFamily, SubProcedureRecord,
                            W2REncoding, W2RScheme, encode_bits, extend_into_open, g_lsc,
                            gamma_decode, kg_decode_prefix, stabilization_stage,
                            w2r_encode)
from randlab.cylinders import CylinderSet, uniform_suffix_set
from randlab.errors import DensityError, GuardExceeded, RandlabError, SchemeError
from randlab.generators import (build_working_w2r, hitting_run, nested_family, random_bits,
                                random_pi01_tree)
from randlab.scenario import _per_stage
from randlab.staged import Pi01Tree, StagedOpenSet

SCHEMES = 300


def reference_replay(x, t, scheme, paths=None):
    """One stage-t replay from scratch: parse layers greedily with stage-t
    index searches.  Adds every path of (family, index) choices it walks
    to `paths` when given."""
    tree = scheme.base
    cur = EMPTY
    path = ()
    parsed = []
    merged = []
    while True:
        if paths is not None:
            paths.add(path)
        step = kg_decode_prefix(x, cur, tree, scheme.horizon)
        if step is None:
            break
        pair_code, codeword = step
        pair = decode_pair(pair_code)
        if pair is None:
            break
        e, payload = pair
        if not 0 <= e < len(scheme.families):
            break
        g = g_lsc(scheme.family(e), codeword, tree, t)
        if g is None:
            break
        parsed.append((e, payload))
        merged.extend(payload)
        tree = tree.restrict(scheme.family(e).levels[g])
        cur = codeword
        path += ((e, g),)
    return SubProcedureRecord(t, tuple(parsed), cur, BitString(merged))


def reference_gamma(x, t_max, scheme, paths=None):
    positions = {}
    subs = []
    for t in range(t_max + 1):
        rec = reference_replay(x, t, scheme, paths)
        subs.append(rec)
        zeta = rec.merged
        if len(zeta):
            for i in range(0, min(t, len(zeta) - 1) + 1):
                if i not in positions:
                    positions[i] = (zeta[i], t)
    return GammaResult(positions, tuple(subs))


def reference_extend(enc, payload, scheme):
    """The per-stage body w2r_extend replaced: each index search runs at
    every stage up to the settle stage, and the trajectory keeps them all."""
    n = len(enc.layers)
    if n >= len(scheme.star_indices):
        raise SchemeError("more payloads than configured star indices")
    e = scheme.star_indices[n]
    tree = enc.classes[-1]
    cur = encode_bits(self_delimit(encode_pair(e, payload)), enc.codeword, tree, scheme.horizon)
    family = scheme.family(e)
    trajectory = []
    for t in range(scheme.settle_stage() + 1):
        g = g_lsc(family, cur, tree, t)
        if g is None:
            raise SchemeError(f"index search for family {e} diverges above {cur} at stage {t}")
        trajectory.append(g)
    tree = tree.restrict(family.levels[g])
    if not tree.viable(cur, scheme.horizon):
        raise SchemeError(f"class emptied above {cur} after layer {n}")
    return W2REncoding(cur, enc.layers + (LayerRecord(e, payload, cur, g, tuple(trajectory)),),
                       enc.classes + (tree,))


def reference_encode(payloads, scheme):
    enc = W2REncoding(EMPTY, (), (scheme.base,))
    for payload in payloads:
        enc = reference_extend(enc, payload, scheme)
    return enc


def g_lsc_reference(family, sigma, tree, stage):
    # The cylinder-difference form g_lsc replaced.
    blocked = tree.removed_open(stage)
    cyl = CylinderSet.cylinder(sigma)
    for k, level in enumerate(family.levels):
        if not (cyl - blocked - level.open_at(stage)).is_empty():
            return k
    return None


def random_scheme(rng, horizon):
    """Base, families and walk stage with horizons drawn apart, so the
    settle stage falls above, at and below the walk stage."""
    base = random_pi01_tree(rng, depth=rng.choice([16, 24, 32]), horizon=rng.randrange(10))
    families = tuple(nested_family(rng, 1 + rng.randrange(3), rng.randrange(10))
                     for _ in range(1 + rng.randrange(3)))
    stars = tuple(rng.randrange(len(families)) for _ in range(3))
    return W2RScheme(base, families, stars, horizon)


def outcome(decode, *args):
    try:
        return decode(*args)
    except RandlabError as err:
        return type(err)


def run_of(subs, t):
    """The record of the run of stages that contains stage t."""
    return [rec for rec in subs if rec.t <= t][-1]


def assert_same_result(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert got.positions == want.positions
    # One record per run of stages that replay alike, dated by its first stage,
    # and each per-stage record reads as the record of its run.
    firsts = [b for i, b in enumerate(want.subs) if i == 0 or b[1:] != want.subs[i - 1][1:]]
    assert got.subs == tuple(firsts)
    for b in want.subs:
        assert run_of(got.subs, b.t)[1:] == b[1:]


def assert_same_encoding(got, want, scheme):
    """`want` from the per-stage reference: the same encoding, each layer's
    change points spelling its per-stage trajectory."""
    if isinstance(want, type):
        assert got is want
        return
    assert got.codeword == want.codeword
    assert [tuple(c.events) for c in got.classes] == [tuple(c.events) for c in want.classes]
    for a, b in zip(got.layers, want.layers, strict=True):
        assert a._replace(g_trajectory=None) == b._replace(g_trajectory=None)
        assert tuple(_per_stage(a.g_trajectory, scheme.settle_stage())) == b.g_trajectory


def test_gamma_decode_matches_per_stage_replays():
    kinds = {"codeword": 0, "truncated": 0, "random": 0}
    below = above = 0
    for i in range(SCHEMES):
        rng = random.Random(f"gamma:{i}")
        scheme = random_scheme(rng, i % 10)
        settle = scheme.settle_stage()
        _, xs = sample_inputs(rng, scheme)
        for kind, x in zip(("random", "codeword", "truncated"), xs):
            t_max = rng.randrange(settle) if settle and rng.randrange(2) else settle + 1 + rng.randrange(12)
            below += t_max < settle
            above += t_max > settle
            kinds[kind] += 1
            assert_same_result(outcome(gamma_decode, x, t_max, scheme),
                               outcome(reference_gamma, x, t_max, scheme))
    # Every kind of input and both sides of the settle stage were exercised.
    assert min(kinds.values()) >= 100 and below >= 50 and above >= 200, (kinds, below, above)


def sample_inputs(rng, scheme):
    """Payloads, and inputs to decode: a random string, plus the codeword and a
    prefix of it when the scheme accepts the payloads."""
    payloads = [random_bits(rng, rng.randrange(4)) for _ in range(1 + rng.randrange(3))]
    xs = [random_bits(rng, rng.randrange(48))]
    try:
        word = w2r_encode(payloads, scheme).codeword
    except RandlabError:
        return payloads, xs
    return payloads, xs + [word, word.prefix(rng.randrange(len(word) + 1))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 12), st.integers(0, 12))
def test_change_points_match_the_per_stage_references(seed, horizon, extra):
    rng = random.Random(seed)
    scheme = random_scheme(rng, horizon)
    payloads, xs = sample_inputs(rng, scheme)
    got = outcome(w2r_encode, payloads, scheme)
    want = outcome(reference_encode, payloads, scheme)
    assert_same_encoding(got, want, scheme)
    t_max = scheme.settle_stage() + extra - 6  # on both sides of the settle stage
    for x in xs:
        assert_same_result(outcome(gamma_decode, x, t_max, scheme),
                           outcome(reference_gamma, x, t_max, scheme))


def test_encoders_fail_at_the_same_stage():
    # The first stage whose index search finds no level is a change stage,
    # since the search reads alike between two of them.
    failed = 0
    for i in range(SCHEMES):
        rng = random.Random(f"gamma:{i}")
        scheme = random_scheme(rng, i % 10)
        payloads, _ = sample_inputs(rng, scheme)
        try:
            reference_encode(payloads, scheme)
        except RandlabError as err:
            with pytest.raises(type(err)) as ours:
                w2r_encode(payloads, scheme)
            assert str(ours.value) == str(err)
            failed += "diverges" in str(err)
    assert failed >= 100, failed


def same_events(scheme, horizon):
    """`scheme` with its base, its family levels and its walk stage moved to
    `horizon`, every event kept."""
    families = tuple(OpenFamily(tuple(StagedOpenSet(level.events, horizon) for level in f.levels))
                     for f in scheme.families)
    return W2RScheme(Pi01Tree(scheme.base.depth, scheme.base.events, horizon), families,
                     scheme.star_indices, horizon)


@pytest.mark.parametrize("seed", range(4))
def test_work_does_not_grow_with_the_horizon(seed, monkeypatch):
    payloads = [BitString("101"), BitString("01")]
    small, _ = build_working_w2r(seed, payloads)
    large = same_events(small, 2 ** 40)
    assert large.change_stages() == small.change_stages()
    searches = counting(monkeypatch, "g_lsc")
    replays = counting(monkeypatch, "_replay")
    counts = []
    for scheme in (small, large):
        searches.clear()
        enc = w2r_encode(payloads, scheme)
        encode_searches = len(searches)
        replays.clear()
        res = gamma_decode(enc.codeword, scheme.settle_stage() + 5, scheme)
        assert res.output_prefix() == BitString("10101")
        counts.append((encode_searches, len(replays), enc.layers))
    assert counts[0] == counts[1]
    assert 0 < counts[0][1] <= len(small.change_stages())


@pytest.mark.parametrize("seed, horizon", [(s, h) for s in range(3) for h in (2, 8, 12)])
def test_one_stage_budget_serves_both_runners(seed, horizon):
    # The runners decode up to settle_stage + |stream|.  For generated schemes
    # that is the `w2r` runner's old budget, and it claims every position the
    # `w2r_hitting` runner's old budget claimed: those of the true codeword.
    payloads = [BitString("101"), BitString("01")]
    stream = BitString("10101")
    scheme, enc = build_working_w2r(seed, payloads, horizon=horizon)
    budget = scheme.settle_stage() + len(stream)
    assert budget == max(scheme.horizon, stabilization_stage(enc)) + len(stream)
    got = gamma_decode(enc.codeword, budget, scheme)
    hitting = gamma_decode(enc.codeword, max(scheme.horizon, len(stream)) + horizon, scheme)
    assert got.positions == hitting.positions
    assert got.output_prefix() == stream


def test_g_lsc_matches_the_cylinder_difference():
    for i in range(SCHEMES):
        rng = random.Random(f"glsc:{i}")
        scheme = random_scheme(rng, i % 10)
        tree = scheme.base
        for e, family in enumerate(scheme.families):
            if rng.randrange(2):
                tree = tree.restrict(family.levels[rng.randrange(len(family))])
            sigma = random_bits(rng, rng.randrange(tree.depth + 4))
            for stage in range(11):
                assert g_lsc(family, sigma, tree, stage) == g_lsc_reference(family, sigma, tree, stage)


def hitting_reference(schemes, opens):
    """The re-encoding loop hitting_run replaced: every open encodes all
    payloads chosen so far from scratch before it is steered.  Returns the
    attempt that accepted, then what hitting_run returns."""
    for attempt, scheme in enumerate(schemes):
        payloads = []
        steps = []
        try:
            for u in opens:
                payload, n, zeta = extend_into_open(w2r_encode(payloads, scheme), u)
                payloads.append(payload)
                steps.append((n, zeta))
            enc = w2r_encode(payloads, scheme)
        except (SchemeError, GuardExceeded):
            continue
        return attempt, (scheme, payloads, steps, enc)
    raise RandlabError("no scheme accepted")


def compare_hitting(seed, opens, monkeypatch):
    """Run hitting_run and the reference over the same scheme objects;
    returns the accepting attempt, or the error class both raised."""
    args = (seed, len(opens), 64, 1 + seed % 8)
    ours, theirs = itertools.tee(generators._schemes(*args))
    monkeypatch.setattr(generators, "_schemes", lambda *_: ours)
    got = outcome(hitting_run, seed, opens, *args[2:])
    want = outcome(hitting_reference, theirs, opens)
    if isinstance(want, type):
        assert got is want
        return want
    attempt, (scheme, payloads, steps, enc) = want
    assert got[0] is scheme
    assert got[1:3] == (payloads, steps)
    assert (got[3].codeword, got[3].layers) == (enc.codeword, enc.layers)
    assert [class_key(c) for c in got[3].classes] == [class_key(c) for c in enc.classes]
    return attempt


def class_key(tree):
    return tree.depth, tree.horizon, tree.events


def spaced_opens(seed):
    rng = random.Random(f"hit:{seed}")
    return [uniform_suffix_set(random_bits(rng, 1 + rng.randrange(2)), 4 + 4 * k + rng.randrange(3))
            for k in range(3)]


@pytest.mark.parametrize("seed", range(12))
def test_hitting_run_matches_re_encoding(seed, monkeypatch):
    compare_hitting(seed, spaced_opens(seed), monkeypatch)


def test_hitting_run_retried_scheme_matches_re_encoding(monkeypatch):
    # Seed 4's first two schemes refuse the steered payloads.
    assert compare_hitting(4, spaced_opens(4), monkeypatch) == 2


def test_hitting_run_density_error_matches_re_encoding(monkeypatch):
    # A bare cylinder cannot absorb every head once a payload is coded.
    opens = [uniform_suffix_set("1", 6), CylinderSet.cylinder("11")]
    assert compare_hitting(0, opens, monkeypatch) is DensityError


# kg_decode_prefix calls of one gamma_decode on the acceptance criterion 7
# configuration; the per-stage replays of reference_gamma make 142.
CRITERION_7_WALKS = 7


def test_gamma_decode_walks_each_index_path_once(monkeypatch):
    _, scheme, x, t_max = criterion_7_run()
    paths = set()
    want = reference_gamma(x, t_max, scheme, paths)
    calls = counting(monkeypatch, "kg_decode_prefix")
    got = gamma_decode(x, t_max, scheme)
    assert_same_result(got, want)
    assert len(calls) == len(paths) == CRITERION_7_WALKS


def test_gamma_decode_walks_do_not_grow_past_the_settle_stage(monkeypatch):
    _, scheme, x, t_max = criterion_7_run()
    assert t_max > scheme.settle_stage()
    calls = counting(monkeypatch, "kg_decode_prefix")
    short = gamma_decode(x, t_max, scheme)
    walks = len(calls)
    calls.clear()
    long = gamma_decode(x, 2 * t_max, scheme)
    assert len(calls) == walks
    assert long.positions == short.positions
    assert long.subs == short.subs


def test_true_codewords_decode_from_the_settle_stage_on():
    # The encoder fixes each layer's index where the decoder's index search
    # settles, which may lie past the walk stage: from the settle stage on,
    # every replay parses exactly the coded layers and the output reads the
    # payload stream.
    accepted = late = 0
    for i in range(SCHEMES):
        rng = random.Random(f"gamma:{i}")
        scheme = random_scheme(rng, i % 10)
        settle = scheme.settle_stage()
        payloads = [random_bits(rng, rng.randrange(4)) for _ in range(1 + rng.randrange(3))]
        try:
            enc = w2r_encode(payloads, scheme)
        except RandlabError:
            continue
        accepted += 1
        late += settle > scheme.horizon
        layers = tuple(zip(scheme.star_indices, payloads))
        stream = BitString("".join(p.bits for p in payloads))
        result = gamma_decode(enc.codeword, settle + len(stream) + scheme.horizon, scheme)
        run = result.subs.index(run_of(result.subs, settle))
        assert all(rec.layers == layers and rec.merged == stream for rec in result.subs[run:]), i
        assert result.output_prefix() == stream, i
    assert accepted >= 100 and late >= 50, (accepted, late)
