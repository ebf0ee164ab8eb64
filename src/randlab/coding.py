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
search that is only approximable from below.  The staged decoder runs one
replay per approximation stage t and lets later stages fill in only the
positions earlier stages never claimed; positions at or beyond the point
where every relevant index search has stabilized then decode correctly, so
errors are confined below that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bitstring import (EMPTY, BitString, decode_pair, encode_pair,
                        read_self_delimited, self_delimit)
from .cylinders import EMPTY_SET, FULL_SET, CylinderSet
from .errors import DensityError, DepthExhausted, SchemeError
from .staged import Pi01Tree, StagedOpenSet


def kucera_depth(sigma: BitString, tree: Pi01Tree, stage: int) -> int:
    """Least length with two or more fully intact extensions of `sigma`."""
    sigma = BitString(sigma)
    span = tree.removed_open(stage).branching_span(sigma)
    if span is not None and len(sigma) + span <= tree.depth:
        return len(sigma) + span
    raise DepthExhausted(f"no branching level above {sigma} within depth {tree.depth}")


def encode_bits(bits: BitString, sigma: BitString, tree: Pi01Tree, stage: int) -> BitString:
    """Walk the raw bits into the tree, one branching level per bit."""
    cur = BitString(sigma)
    for b in bits:
        length = kucera_depth(cur, tree, stage)
        if b:
            cur = tree.rightmost_intact(cur, length, stage)
        else:
            cur = tree.leftmost_intact(cur, length, stage)
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
            length = kucera_depth(cur, tree, s)
        except DepthExhausted:
            return None
        if length > len(x):
            return None
        left = tree.leftmost_intact(cur, length, s)
        right = tree.rightmost_intact(cur, length, s)
        step = x.prefix(length)
        if step == left:
            reader.push(0)
        elif step == right:
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


@dataclass(frozen=True)
class OpenFamily:
    """A descending chain of staged open sets U_0 >= U_1 >= ... (stagewise)."""

    levels: Tuple[StagedOpenSet, ...]

    def __post_init__(self) -> None:
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
    """
    blocked = tree.removed_open(stage)
    cyl = CylinderSet.cylinder(sigma)
    for k, level in enumerate(family.levels):
        if not (cyl - blocked - level.open_at(stage)).is_empty():
            return k
    return None


@dataclass(frozen=True)
class W2RScheme:
    """Base class plus clopen-complement families for the layered coding."""

    base: Pi01Tree
    families: Tuple[OpenFamily, ...]
    star_indices: Tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        for e in self.star_indices:
            if not 0 <= e < len(self.families):
                raise SchemeError(f"star index {e} has no family")

    def family(self, e: int) -> OpenFamily:
        if not 0 <= e < len(self.families):
            raise SchemeError(f"no family with index {e}")
        return self.families[e]


@dataclass(frozen=True)
class LayerRecord:
    family_index: int
    payload: BitString
    codeword: BitString
    g_value: int
    g_trajectory: Tuple[int, ...]


@dataclass(frozen=True)
class W2REncoding:
    codeword: BitString
    layers: Tuple[LayerRecord, ...]
    classes: Tuple[Pi01Tree, ...]  # classes[i] holds after i layers


def w2r_encode(payloads: Sequence[BitString], scheme: W2RScheme) -> W2REncoding:
    """Layer the payloads into the base class along the star indices."""
    if len(payloads) > len(scheme.star_indices):
        raise SchemeError("more payloads than configured star indices")
    tree = scheme.base
    cur = EMPTY
    layers: List[LayerRecord] = []
    classes: List[Pi01Tree] = [tree]
    for n, payload in enumerate(payloads):
        e = scheme.star_indices[n]
        pair = encode_pair(e, BitString(payload))
        cur = encode_bits(self_delimit(pair), cur, tree, scheme.horizon)
        family = scheme.family(e)
        trajectory = tuple(
            _finite_or_fail(g_lsc(family, cur, tree, t), e, cur, t)
            for t in range(scheme.horizon + 1)
        )
        g = trajectory[-1]
        tree = tree.restrict(family.levels[g])
        if not tree.viable(cur, scheme.horizon):
            raise SchemeError(f"class emptied above {cur} after layer {n}")
        layers.append(LayerRecord(e, BitString(payload), cur, g, trajectory))
        classes.append(tree)
    return W2REncoding(cur, tuple(layers), tuple(classes))


def _finite_or_fail(value: Optional[int], e: int, sigma: BitString, stage: int) -> int:
    if value is None:
        raise SchemeError(f"index search for family {e} diverges above {sigma} at stage {stage}")
    return value


def stabilization_stage(payloads: Sequence[BitString], scheme: W2RScheme) -> int:
    """Least stage from which every layer's index search sits at its limit."""
    enc = w2r_encode(payloads, scheme)
    stable = 0
    for layer in enc.layers:
        final = layer.g_value
        t = len(layer.g_trajectory) - 1
        while t > 0 and layer.g_trajectory[t - 1] == final:
            t -= 1
        stable = max(stable, t)
    return stable


@dataclass(frozen=True)
class SubProcedureRecord:
    t: int
    layers: Tuple[Tuple[int, BitString], ...]  # decoded (index, payload) pairs
    consumed: BitString
    merged: BitString  # concatenated payloads


@dataclass(frozen=True)
class GammaResult:
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

    def defined_upto(self) -> int:
        return len(self.output_prefix())


def _sub_procedure(x: BitString, t: int, scheme: W2RScheme) -> SubProcedureRecord:
    """One staged replay: parse layers greedily with stage-t index searches."""
    tree = scheme.base
    cur = EMPTY
    parsed: List[Tuple[int, BitString]] = []
    merged: List[int] = []
    while True:
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
    return SubProcedureRecord(t, tuple(parsed), cur, BitString(merged))


def gamma_decode(x: BitString, t_max: int, scheme: W2RScheme) -> GammaResult:
    """Stage-limited decoding of `x`: earlier stages claim positions first.

    The stage-t replay may parse with wrong (too early) index values and
    write wrong bits, but it may only write positions up to t; once every
    index search a true parse depends on has stabilized below t, later
    positions are written by correct replays only.
    """
    positions: Dict[int, Tuple[int, int]] = {}
    subs = []
    for t in range(t_max + 1):
        rec = _sub_procedure(x, t, scheme)
        subs.append(rec)
        zeta = rec.merged
        if len(zeta):
            for i in range(0, min(t, len(zeta) - 1) + 1):
                if i not in positions:
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
    """A shortest head (up to `depth`) whose shifted copy of `u` is empty."""
    memo: Dict[CylinderSet, Optional[str]] = {}

    def search(v: CylinderSet, budget: int) -> Optional[str]:
        if v.is_empty():
            return ""
        if budget == 0:
            return None
        if v in memo:
            return memo[v]
        memo[v] = None
        for b in "01":
            tail = search(v.shift(b), budget - 1)
            if tail is not None:
                memo[v] = b + tail
                break
        return memo[v]

    found = search(u, depth)
    return None if found is None else BitString(found)


def extend_into_open(payloads: Sequence[BitString], u: CylinderSet, scheme: W2RScheme) -> Tuple[BitString, int, BitString]:
    """Choose the next payload so decoded outputs are steered into `u`.

    Returns (next_payload, n, steering_string): n bounds both the already
    coded length and the stabilization stage, and the steering string lands
    inside `u` no matter which length-n head precedes it.  The next payload
    pads with zeros up to position n and then spells the steering string.
    """
    done = sum(len(BitString(p)) for p in payloads)
    n = max(stabilization_stage(payloads, scheme), done)
    core = shifted_core(u, n)
    if core.is_empty():
        witness = _density_witness(u, n)
        if witness is not None:
            raise DensityError(f"open set misses every extension of head {witness}")
        raise DensityError(f"shifted copies of the open set share nothing at head length {n}")
    zeta = core.least_generator()
    return BitString("0" * (n - done)) + zeta, n, zeta
