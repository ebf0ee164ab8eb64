"""The staged decoder and the layered encoder against their slow references.

`gamma_decode` walks each path of (family, index) choices once and copies
the settle-stage record past the settle stage; `reference_replay` is the
per-stage replay it replaced, kept here as the oracle.  `hitting_run`
extends one running encoding by a layer per open; `hitting_reference`
re-encodes every payload from scratch before each open instead.
"""

import itertools
import random

import pytest

from randlab import coding, generators
from randlab.bitstring import EMPTY, BitString, decode_pair
from randlab.coding import (GammaResult, SubProcedureRecord, W2RScheme,
                            extend_into_open, g_lsc, gamma_decode, kg_decode_prefix,
                            w2r_encode)
from randlab.cylinders import CylinderSet, uniform_suffix_set
from randlab.errors import DensityError, GuardExceeded, RandlabError, SchemeError
from randlab.generators import (hitting_run, nested_family, random_bits,
                                random_pi01_tree)

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


def assert_same_result(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert got.positions == want.positions
    assert len(got.subs) == len(want.subs)
    for a, b in zip(got.subs, want.subs):
        assert (a.t, a.layers, a.consumed, a.merged) == (b.t, b.layers, b.consumed, b.merged)


def test_gamma_decode_matches_per_stage_replays():
    kinds = {"codeword": 0, "truncated": 0, "random": 0}
    below = above = 0
    for i in range(SCHEMES):
        rng = random.Random(f"gamma:{i}")
        scheme = random_scheme(rng, i % 10)
        settle = scheme.settle_stage()
        payloads = [random_bits(rng, rng.randrange(4)) for _ in range(1 + rng.randrange(3))]
        xs = [("random", random_bits(rng, rng.randrange(48)))]
        try:
            word = w2r_encode(payloads, scheme).codeword
        except RandlabError:
            word = None
        if word is not None:
            xs += [("codeword", word), ("truncated", word.prefix(rng.randrange(len(word) + 1)))]
        for kind, x in xs:
            t_max = rng.randrange(settle) if settle and rng.randrange(2) else settle + 1 + rng.randrange(12)
            below += t_max < settle
            above += t_max > settle
            kinds[kind] += 1
            assert_same_result(outcome(gamma_decode, x, t_max, scheme),
                               outcome(reference_gamma, x, t_max, scheme))
    # Every kind of input and both sides of the settle stage were exercised.
    assert min(kinds.values()) >= 100 and below >= 50 and above >= 200, (kinds, below, above)


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


def criterion_7_run():
    opens = [uniform_suffix_set(pattern, position)
             for position, pattern in [(8, "11"), (12, "01"), (16, "10"), (20, "1")]]
    scheme, payloads, _, enc = hitting_run(9, opens, depth=220)
    stream_len = sum(len(p) for p in payloads)
    return scheme, enc.codeword, max(scheme.horizon, stream_len) + scheme.horizon


def counting_walks(monkeypatch):
    calls = []
    real = coding.kg_decode_prefix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coding, "kg_decode_prefix", counted)
    return calls


# kg_decode_prefix calls of one gamma_decode on the acceptance criterion 7
# configuration; the per-stage replays of reference_gamma make 142.
CRITERION_7_WALKS = 7


def test_gamma_decode_walks_each_index_path_once(monkeypatch):
    scheme, x, t_max = criterion_7_run()
    paths = set()
    want = reference_gamma(x, t_max, scheme, paths)
    calls = counting_walks(monkeypatch)
    got = gamma_decode(x, t_max, scheme)
    assert_same_result(got, want)
    assert len(calls) == len(paths) == CRITERION_7_WALKS


def test_gamma_decode_walks_do_not_grow_past_the_settle_stage(monkeypatch):
    scheme, x, t_max = criterion_7_run()
    assert t_max > scheme.settle_stage()
    calls = counting_walks(monkeypatch)
    short = gamma_decode(x, t_max, scheme)
    walks = len(calls)
    calls.clear()
    long = gamma_decode(x, 2 * t_max, scheme)
    assert len(calls) == walks
    assert long.positions == short.positions
    assert long.subs[:t_max + 1] == short.subs


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
        assert all(rec.layers == layers and rec.merged == stream for rec in result.subs[settle:]), i
        assert result.output_prefix() == stream, i
    assert accepted >= 100 and late >= 50, (accepted, late)
