"""Coding into positive-measure classes, one branching level per bit.

The single-step scheme walks a co-enumerated tree: at each step it finds the
least level where at least two fully intact extensions of the current stem
remain, then takes the leftmost for a 0 and the rightmost for a 1.  That
step is the fork of the removed set below the stem, which the trie node
keeps (`CylinderSet.fork`); the walk holds that set as its cursor and
shifts it by each step, so a step descends only its own bits.  Raw bits
are wrapped in a self-delimiting codec first, which makes the codeword set
prefix-free over each (stem, class) pair and lets a replay decoder know when
to stop.  Decoding replays the same walk; replaying against an earlier stage
of the class sees different survivors and honestly garbles or rejects.

The layered scheme iterates the single step while shrinking the class:
after coding one (index, payload) pair it intersects the class with a
member of a monotone family of clopen complements, chosen by a least-index
search that is only approximable from below.  An encoding grows one layer
at a time, so a caller steering each next payload extends the encoding it
already has.  The staged decoder replays the parse per approximation
stage t and lets later stages fill in only the positions earlier stages
never claimed; positions at or beyond the point where every relevant index
search has stabilized then decode correctly, so errors are confined below
that point.  Only the index searches read t, and they move only at the
scheme's change stages: each layer keeps its index trajectory as (stage,
index) change points, and the decoder replays once per change stage over
one shared walk per path of (family, index) choices.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import (EMPTY, BitString, decode_pair, encode_pair, read_self_delimited,
                        self_delimit)
from .cylinders import CylinderSet
from .errors import DensityError, DepthExhausted, SchemeError
from .staged import Pi01Tree, StagedOpenSet, _check_int


def _step(below: CylinderSet, done: int, tree: Pi01Tree) -> Optional[Tuple[BitString, BitString]]:
    """The walk's step above a stem `done` bits long with the removed set
    `below` it: the set's fork, None where the tree's depth runs out first."""
    fork = below.fork()
    return fork if fork is not None and done + len(fork[0]) <= tree.depth else None


def encode_bits(bits: BitString, sigma: BitString, tree: Pi01Tree, stage: int) -> BitString:
    """Walk the raw bits into the tree, one branching level per bit; the
    codeword is joined once from the steps."""
    parts = [BitString(sigma).bits]
    done = len(parts[0])
    below = tree.removed_open(stage).shift(sigma)
    for b in bits:
        step = _step(below, done, tree)
        if step is None:
            stem = BitString("".join(parts))
            raise DepthExhausted(f"no branching level above {stem} within depth {tree.depth}")
        side = step[b]
        parts.append(side.bits)
        done += len(side)
        below = below.shift(side)
    return BitString("".join(parts))


def kucera_depth(sigma: BitString, tree: Pi01Tree, stage: int) -> int:
    """Least length with two or more fully intact extensions of `sigma`: the
    length of a one-step walk above it."""
    return len(encode_bits(BitString("0"), sigma, tree, stage))


def kg_encode(payload: BitString, sigma: BitString, tree: Pi01Tree, stage: Optional[int] = None) -> BitString:
    """Codeword for a payload above `sigma`: codec-wrapped, then walked in."""
    s = tree.horizon if stage is None else stage
    return encode_bits(self_delimit(payload), sigma, tree, s)


def kg_decode_prefix(x: BitString, sigma: BitString, tree: Pi01Tree, stage: Optional[int] = None) -> Optional[Tuple[BitString, BitString]]:
    """Replay the walk along `x` from `sigma` until one codec block closes.

    Returns (payload, codeword) where the codeword is the prefix of `x`
    consumed; None when `x` strays off the leftmost/rightmost survivors, is
    too short, or the tree runs out of branching.
    """
    sigma = BitString(sigma)
    if not x.extends(sigma):
        return None
    bits, done = x.bits, len(sigma)
    below = tree.removed_open(tree.horizon if stage is None else stage).shift(sigma)
    # The codec block read so far: n ones, a 0, then n bits.  It closes at
    # 2n + 1 bits, n being the index of its first 0; it is parsed once, then.
    block: List[str] = []
    n: Optional[int] = None
    while n is None or len(block) <= 2 * n:
        step = _step(below, done, tree)
        if step is None:
            return None
        bit = 0 if bits.startswith(step[0].bits, done) else 1 if bits.startswith(step[1].bits, done) else None
        if bit is None:  # off both sides, or past the end of `x`
            return None
        if n is None and not bit:
            n = len(block)
        block.append("01"[bit])
        done += len(step[bit])
        below = below.shift(step[bit])
    return read_self_delimited(BitString("".join(block)))[0], x.prefix(done)


def kg_decode(codeword: BitString, sigma: BitString, tree: Pi01Tree, stage: Optional[int] = None) -> Optional[BitString]:
    """Exact inverse on the codeword set; None for anything else."""
    parsed = kg_decode_prefix(codeword, sigma, tree, stage)
    if parsed is None:
        return None
    payload, consumed = parsed
    return payload if consumed == codeword else None


class _OpenFamilyFields(NamedTuple):
    levels: Tuple[StagedOpenSet, ...]


class OpenFamily(_OpenFamilyFields):
    """A descending chain of staged open sets U_0 >= U_1 >= ... (stagewise)."""

    __slots__ = ()
    # _replace builds its copy with _make; through the constructor, the checks
    # run again (so too in W2RScheme, DemuthTest and DiffUnionTest).
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        if not self.levels:
            raise SchemeError("a family needs at least one level")
        for k, (outer, inner) in enumerate(zip(self.levels, self.levels[1:])):
            # The outer level only grows, so an inner string lies in it at
            # every later stage once it does at the stage it is enumerated,
            # and the first stage the levels fail to nest is such a stage.
            for s, strings in inner.events:
                covers = outer.open_at(s).contains_prefix_of
                if not all(map(covers, strings)):
                    raise SchemeError(f"family levels {k},{k + 1} not nested at stage {s}")

    def __len__(self) -> int:
        return len(self.levels)


def g_lsc(family: OpenFamily, sigma: BitString, tree: Pi01Tree, stage: int) -> Optional[int]:
    """Least k whose complement still meets the class above `sigma` at `stage`.

    Approximates its limit from below as the stage grows (sets only grow,
    so the search condition only decays).  None means no level qualifies.
    [sigma] meets the complement of two opens exactly when the two, seen
    from sigma, do not cover everything.
    """
    blocked = tree.removed_open(stage).shift(sigma)
    for k, level in enumerate(family.levels):
        if not (blocked | level.open_at(stage).shift(sigma)).is_full():
            return k
    return None


class _W2RSchemeFields(NamedTuple):
    base: Pi01Tree
    families: Tuple[OpenFamily, ...]
    star_indices: Tuple[int, ...]
    horizon: int


class W2RScheme(_W2RSchemeFields):
    """Base class plus clopen-complement families for the layered coding."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    # The tuple's __new__ sets the fields; the checks run in the class's own
    # __init__, so each scheme built is one call of it (perfbench counts them).
    def __init__(self, *args: object, **kwargs: object) -> None:
        _check_int(self.horizon, "horizon")
        for e in self.star_indices:
            if not 0 <= e < len(self.families):
                raise SchemeError(f"star index {e} has no family")

    def family(self, e: int) -> OpenFamily:
        if not 0 <= e < len(self.families):
            raise SchemeError(f"no family with index {e}")
        return self.families[e]

    def _schedules(self) -> List[StagedOpenSet]:
        return [self.base] + [level for family in self.families for level in family.levels]

    def settle_stage(self) -> int:
        """Least stage at which the base and every family level sit at their
        final snapshots, and so does every class restricted by them."""
        return max(schedule.horizon for schedule in self._schedules())

    def change_stages(self) -> List[int]:
        """Stage 0 and every event stage of the base and the family levels,
        ascending: from one to the next, every class restricted by them, and
        so every index search over such a class, reads alike."""
        settle = self.settle_stage()
        return sorted({t for schedule in self._schedules() for t in schedule.change_stages(settle)})


class LayerRecord(NamedTuple):
    family_index: int
    payload: BitString
    codeword: BitString
    g_value: int
    # (stage, index) where the index search moves, the first at stage 0.
    g_trajectory: Tuple[Tuple[int, int], ...]


class W2REncoding(NamedTuple):
    codeword: BitString
    layers: Tuple[LayerRecord, ...]
    classes: Tuple[Pi01Tree, ...]  # classes[i] holds after i layers


def w2r_extend(enc: W2REncoding, payload: BitString, scheme: W2RScheme) -> W2REncoding:
    """Code one more payload above `enc`, along the next star index."""
    n = len(enc.layers)
    if n >= len(scheme.star_indices):
        raise SchemeError("more payloads than configured star indices")
    e = scheme.star_indices[n]
    payload = BitString(payload)
    tree = enc.classes[-1]
    cur = encode_bits(self_delimit(encode_pair(e, payload)), enc.codeword, tree, scheme.horizon)
    family = scheme.family(e)
    # The decoder's index searches move until the settle stage, not the walk's,
    # and only at the scheme's change stages.
    trajectory: List[Tuple[int, int]] = []
    for t in scheme.change_stages():
        g = g_lsc(family, cur, tree, t)
        if g is None:
            raise SchemeError(f"index search for family {e} diverges above {cur} at stage {t}")
        if not trajectory or trajectory[-1][1] != g:
            trajectory.append((t, g))
    tree = tree.restrict(family.levels[g])
    if not tree.viable(cur, scheme.horizon):
        raise SchemeError(f"class emptied above {cur} after layer {n}")
    return W2REncoding(cur, enc.layers + (LayerRecord(e, payload, cur, g, tuple(trajectory)),),
                       enc.classes + (tree,))


def w2r_encode(payloads: Sequence[BitString], scheme: W2RScheme) -> W2REncoding:
    """Layer the payloads into the base class along the star indices."""
    if len(payloads) > len(scheme.star_indices):
        raise SchemeError("more payloads than configured star indices")
    enc = W2REncoding(EMPTY, (), (scheme.base,))
    for payload in payloads:
        enc = w2r_extend(enc, payload, scheme)
    return enc


def stabilization_stage(enc: W2REncoding) -> int:
    """Least stage from which every layer's index search sits at its limit:
    the last change point of any layer."""
    return max((layer.g_trajectory[-1][0] for layer in enc.layers), default=0)


class SubProcedureRecord(NamedTuple):
    t: int  # the first stage of the run of stages that replay alike
    layers: Tuple[Tuple[int, BitString], ...]  # decoded (index, payload) pairs
    consumed: BitString
    merged: BitString  # concatenated payloads


class GammaResult(NamedTuple):
    positions: Dict[int, Tuple[int, int]]  # position -> (bit, defining t)
    subs: Tuple[SubProcedureRecord, ...]  # one per run of stages that replay alike

    def output_prefix(self) -> BitString:
        """Defined positions read off as a string, stopping at the first hole."""
        bits = []
        i = 0
        while i in self.positions:
            bits.append(self.positions[i][0])
            i += 1
        return BitString(bits)


# A parsed layer: (family index, payload, codeword), or None where the parse stops.
_Step = Optional[Tuple[int, BitString, BitString]]
# A path of (family, index) choices -> (class after them, the next parsed layer).
_Walks = Dict[Tuple[Tuple[int, int], ...], Tuple[Pi01Tree, _Step]]


def _parse_step(x: BitString, cur: BitString, tree: Pi01Tree, scheme: W2RScheme) -> _Step:
    """One layer of `x` above `cur`, walked at the scheme's horizon."""
    step = kg_decode_prefix(x, cur, tree, scheme.horizon)
    if step is None:
        return None
    pair_code, codeword = step
    pair = decode_pair(pair_code)
    if pair is None:
        return None
    e, payload = pair
    if not 0 <= e < len(scheme.families):
        return None
    return e, payload, codeword


def _replay(x: BitString, t: int, scheme: W2RScheme, walks: _Walks) -> SubProcedureRecord:
    """The stage-t parse: layers greedily, each index search at stage t.

    Each path's class and parsed layer come from `walks`, built the first
    time a stage takes that path, so a replay runs only its index searches.
    """
    path: Tuple[Tuple[int, int], ...] = ()
    tree, step = walks[path]
    cur = EMPTY
    parsed: List[Tuple[int, BitString]] = []
    merged: List[int] = []
    while step is not None:
        e, payload, codeword = step
        g = g_lsc(scheme.families[e], codeword, tree, t)
        if g is None:
            break
        parsed.append((e, payload))
        merged.extend(payload)
        cur = codeword
        path += ((e, g),)
        if path not in walks:
            child = tree.restrict(scheme.families[e].levels[g])
            walks[path] = (child, _parse_step(x, codeword, child, scheme))
        tree, step = walks[path]
    return SubProcedureRecord(t, tuple(parsed), cur, BitString(merged))


def gamma_decode(x: BitString, t_max: int, scheme: W2RScheme) -> GammaResult:
    """Stage-limited decoding of `x`: earlier stages claim positions first.

    The stage-t replay may parse with wrong (too early) index values and
    write wrong bits, but it may only write positions up to t; once every
    index search a true parse depends on has stabilized below t, later
    positions are written by correct replays only.

    Only the index searches read t, and they read alike from one change
    stage of the scheme to the next: one replay per change stage up to
    `t_max`, one record per run of stages that replay alike, and one walk
    per path of (family, index) choices.  Positions claimed so far form a
    prefix, so stages a..b-1 replaying the merged payloads zeta claim each
    position i past it up to min(b-1, |zeta|-1), at stage max(i, a).
    """
    walks: _Walks = {(): (scheme.base, _parse_step(x, EMPTY, scheme.base, scheme))}
    positions: Dict[int, Tuple[int, int]] = {}
    subs: List[SubProcedureRecord] = []
    starts = [t for t in scheme.change_stages() if t <= t_max]
    for a, b in zip(starts, starts[1:] + [t_max + 1]):
        rec = _replay(x, a, scheme, walks)
        if not subs or subs[-1][1:] != rec[1:]:
            subs.append(rec)
        zeta = rec.merged
        for i in range(len(positions), min(b - 1, len(zeta) - 1) + 1):
            positions[i] = (zeta[i], max(i, a))
    return GammaResult(positions, tuple(subs))


def shifted_core(u: CylinderSet, n: int) -> CylinderSet:
    """Intersection of all 2^n shifted copies of `u`, folded in n doublings.

    The result is exactly the set of tails Z such that every length-n head
    eta puts eta.Z inside u.
    """
    core = u
    for _ in range(n):
        core = core.shift("0") & core.shift("1")
    return core


def _density_witness(u: CylinderSet, depth: int) -> Optional[BitString]:
    """The length-lex least head, of length at most `depth`, whose shifted
    copy of `u` is empty; None when there is none.  Such a head is a
    generator of the complement, and the least one is its least generator."""
    head = u.complement().least_generator()
    return head if head is not None and len(head) <= depth else None


def extend_into_open(enc: W2REncoding, u: CylinderSet) -> Tuple[BitString, int, BitString]:
    """Choose the payload that extends `enc` so decoded outputs land in `u`.

    Returns (next_payload, n, steering_string): n bounds both the coded
    payload length of `enc` and its stabilization stage, and the steering
    string lands inside `u` no matter which length-n head precedes it.  The
    next payload pads with zeros up to position n and then spells the
    steering string.
    """
    done = sum(len(layer.payload) for layer in enc.layers)
    n = max(stabilization_stage(enc), done)
    core = shifted_core(u, n)
    if core.is_empty():
        witness = _density_witness(u, n)
        if witness is not None:
            raise DensityError(f"open set misses every extension of head {witness}")
        raise DensityError(f"shifted copies of the open set share nothing at head length {n}")
    zeta = core.least_generator()
    return BitString("0" * (n - done)) + zeta, n, zeta
