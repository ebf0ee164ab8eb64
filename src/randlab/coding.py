"""Coding into positive-measure classes, one branching level per bit.

The single-step scheme walks a co-enumerated tree: at each step it finds the
least level where at least two fully intact extensions of the current stem
remain, then takes the leftmost for a 0 and the rightmost for a 1.  Raw bits
are wrapped in a self-delimiting codec first, which makes the codeword set
prefix-free over each (stem, class) pair and lets a replay decoder know when
to stop.  Decoding replays the same walk; replaying against an earlier stage
of the class sees different survivors and honestly garbles or rejects.

The layered scheme iterates the single step while shrinking the class:
after coding one (index, payload) pair it intersects the class with a
member of a monotone family of clopen complements, chosen by a least-index
search that is only approximable from below.  An encoding grows one layer
at a time, so a caller steering each next payload extends the encoding it
already has.  The staged decoder replays the parse once per approximation
stage t and lets later stages fill in only the positions earlier stages
never claimed; positions at or beyond the point where every relevant index
search has stabilized then decode correctly, so errors are confined below
that point.  Only the index searches read t: the replays share one walk
per path of (family, index) choices, and from the scheme's settle stage on
every schedule sits at its final snapshot, so later replays repeat it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import EMPTY, BitString, decode_pair, encode_pair, self_delimit
from .cylinders import CylinderSet
from .errors import DensityError, DepthExhausted, SchemeError
from .staged import Pi01Tree, StagedOpenSet, _check_int


def _exhausted(sigma: BitString, tree: Pi01Tree) -> DepthExhausted:
    return DepthExhausted(f"no branching level above {sigma} within depth {tree.depth}")


def kucera_depth(sigma: BitString, tree: Pi01Tree, stage: int) -> int:
    """Least length with two or more fully intact extensions of `sigma`."""
    sigma = BitString(sigma)
    span = tree.removed_open(stage).branching_span(sigma)
    if span is not None and len(sigma) + span <= tree.depth:
        return len(sigma) + span
    raise _exhausted(sigma, tree)


def _extreme(cur: BitString, tree: Pi01Tree, stage: int, rightmost: int) -> Tuple[int, BitString]:
    """The walk step above `cur` toward one side: the branching length and
    the leftmost (rightmost when `rightmost` is 1) intact extension there.

    The tree's step table for the stage keeps, per stem, the length, or None
    where the depth runs out, and each side once a walk has taken it, so
    every later walk through `cur` reads them.
    """
    table = tree.step_table(stage)
    key = cur.bits
    if key not in table:
        try:
            length = kucera_depth(cur, tree, stage)
        except DepthExhausted:
            table[key] = None
            raise
        table[key] = [length, None, None]
    step = table[key]
    if step is None:
        raise _exhausted(cur, tree)
    end = step[1 + rightmost]
    if end is None:
        extend = tree.rightmost_intact if rightmost else tree.leftmost_intact
        end = step[1 + rightmost] = extend(cur, step[0], stage)
    return step[0], end


def encode_bits(bits: BitString, sigma: BitString, tree: Pi01Tree, stage: int) -> BitString:
    """Walk the raw bits into the tree, one branching level per bit."""
    cur = BitString(sigma)
    for b in bits:
        _, cur = _extreme(cur, tree, stage, b)
    return cur


def kg_encode(payload: BitString, sigma: BitString, tree: Pi01Tree, stage: Optional[int] = None) -> BitString:
    """Codeword for a payload above `sigma`: codec-wrapped, then walked in."""
    s = tree.horizon if stage is None else stage
    return encode_bits(self_delimit(payload), sigma, tree, s)


class _CodecReader:
    """Incremental state of the unary-length codec."""

    __slots__ = ("count", "seen_zero", "payload")

    def __init__(self) -> None:
        self.count = 0
        self.seen_zero = False
        self.payload: List[int] = []

    def push(self, bit: int) -> None:
        if not self.seen_zero:
            if bit:
                self.count += 1
            else:
                self.seen_zero = True
        else:
            self.payload.append(bit)

    def complete(self) -> bool:
        return self.seen_zero and len(self.payload) == self.count

    def value(self) -> BitString:
        return BitString(self.payload)


def kg_decode_prefix(x: BitString, sigma: BitString, tree: Pi01Tree, stage: Optional[int] = None) -> Optional[Tuple[BitString, BitString]]:
    """Replay the walk along `x` from `sigma` until one codec block closes.

    Returns (payload, codeword) where the codeword is the prefix of `x`
    consumed; None when `x` strays off the leftmost/rightmost survivors, is
    too short, or the tree runs out of branching.
    """
    s = tree.horizon if stage is None else stage
    cur = BitString(sigma)
    if not x.extends(cur):
        return None
    reader = _CodecReader()
    while not reader.complete():
        try:
            length, left = _extreme(cur, tree, s, 0)
        except DepthExhausted:
            return None
        if length > len(x):
            return None
        step = x.prefix(length)
        if step == left:
            reader.push(0)
        elif step == _extreme(cur, tree, s, 1)[1]:
            reader.push(1)
        else:
            return None
        cur = step
    return reader.value(), cur


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
        horizon = max(l.horizon for l in self.levels)
        for k in range(len(self.levels) - 1):
            for s in range(horizon + 1):
                if not self.levels[k + 1].open_at(s).is_subset(self.levels[k].open_at(s)):
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

    def settle_stage(self) -> int:
        """Least stage at which the base and every family level sit at their
        final snapshots, and so does every class restricted by them."""
        return max([self.base.horizon] + [level.horizon for family in self.families
                                          for level in family.levels])


class LayerRecord(NamedTuple):
    family_index: int
    payload: BitString
    codeword: BitString
    g_value: int
    g_trajectory: Tuple[int, ...]


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
    # The decoder's index searches move until the settle stage, not the walk's.
    trajectory = tuple(
        _finite_or_fail(g_lsc(family, cur, tree, t), e, cur, t)
        for t in range(scheme.settle_stage() + 1)
    )
    g = trajectory[-1]
    tree = tree.restrict(family.levels[g])
    if not tree.viable(cur, scheme.horizon):
        raise SchemeError(f"class emptied above {cur} after layer {n}")
    return W2REncoding(cur, enc.layers + (LayerRecord(e, payload, cur, g, trajectory),),
                       enc.classes + (tree,))


def w2r_encode(payloads: Sequence[BitString], scheme: W2RScheme) -> W2REncoding:
    """Layer the payloads into the base class along the star indices."""
    if len(payloads) > len(scheme.star_indices):
        raise SchemeError("more payloads than configured star indices")
    enc = W2REncoding(EMPTY, (), (scheme.base,))
    for payload in payloads:
        enc = w2r_extend(enc, payload, scheme)
    return enc


def _finite_or_fail(value: Optional[int], e: int, sigma: BitString, stage: int) -> int:
    if value is None:
        raise SchemeError(f"index search for family {e} diverges above {sigma} at stage {stage}")
    return value


def stabilization_stage(enc: W2REncoding) -> int:
    """Least stage from which every layer's index search sits at its limit."""
    stable = 0
    for layer in enc.layers:
        final = layer.g_value
        t = len(layer.g_trajectory) - 1
        while t > 0 and layer.g_trajectory[t - 1] == final:
            t -= 1
        stable = max(stable, t)
    return stable


class SubProcedureRecord(NamedTuple):
    t: int
    layers: Tuple[Tuple[int, BitString], ...]  # decoded (index, payload) pairs
    consumed: BitString
    merged: BitString  # concatenated payloads


class GammaResult(NamedTuple):
    positions: Dict[int, Tuple[int, int]]  # position -> (bit, defining t)
    subs: Tuple[SubProcedureRecord, ...]

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

    The replays share their work: every path of (family, index) choices is
    walked and its class restricted once, and a replay runs only the index
    searches.  Past the scheme's settle stage the index searches no longer
    move, so each later replay is the settle-stage record at its own t.
    Positions claimed so far always form a prefix, so each stage writes only
    beyond it.
    """
    settle = scheme.settle_stage()
    walks: _Walks = {(): (scheme.base, _parse_step(x, EMPTY, scheme.base, scheme))}
    positions: Dict[int, Tuple[int, int]] = {}
    subs: List[SubProcedureRecord] = []
    for t in range(t_max + 1):
        rec = subs[settle]._replace(t=t) if t > settle else _replay(x, t, scheme, walks)
        subs.append(rec)
        zeta = rec.merged
        for i in range(len(positions), min(t, len(zeta) - 1) + 1):
            positions[i] = (zeta[i], t)
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
