"""Seeded builders for exact test material.

Random inputs here are random in shape only; every invariant the rest of
the package relies on (functional consistency, stagewise nesting, measure
confinement) holds by construction, not by filtering after the fact.
Pass a `random.Random` so callers control reproducibility.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

from .bitstring import EMPTY, BitString, _valid
from .cylinders import CylinderSet
from .demuth import DemuthTest, DiffPair, DiffUnionTest, VersionedOpenSet
from .dyadic import Dyadic
from .errors import GuardExceeded, RandlabError, SchemeError
from .staged import Pi01Tree, StagedOpenSet, TuringFunctional, by_stage
from .coding import (OpenFamily, W2REncoding, W2RScheme, extend_into_open, w2r_encode,
                     w2r_extend)

# Fixed shapes of the seeded material; the goldens were made with these values.
_GROWTH_MAX = 2              # output bits a functional's label gains per level
_REMOVAL_LEN_MAX = 8         # tree removals are 1 to this many bits long
_REMOVAL_TRIES = 24          # removals drawn per tree
_MAX_REMOVED = Dyadic(1, 1)  # cap on a tree's removed measure: its class keeps the rest
_KEEP_ONE_IN = 2             # thinning keeps about one string in this many
_DELAY_MAX = 2               # and delays each kept one by at most this many stages
_FAMILY_TOP = 6              # strings drawn for the top level of a nested family
_FAMILY_TOP_MAX_LEN = 6      # and their greatest length
_FAMILY_COUNT = 3            # nested families per W2R scheme
_FAMILY_LEVELS = 3           # and levels per family
_ATTEMPTS = 64               # seeded schemes tried before a W2R run gives up


def random_bits(rng: random.Random, length: int) -> BitString:
    return _valid("".join("1" if rng.getrandbits(1) else "0" for _ in range(length)))


def random_cylinder_set(rng: random.Random, count: int, max_len: int) -> CylinderSet:
    strings = [random_bits(rng, 1 + rng.randrange(max_len)) for _ in range(count)]
    return CylinderSet.normalize(strings)


def random_open_set(rng: random.Random, horizon: int, count: int, max_len: int,
                    base: BitString = EMPTY) -> StagedOpenSet:
    """`count` strings at stages 0..horizon, each `base` plus 1..max_len bits."""
    pairs = [(rng.randrange(horizon + 1), random_bits(rng, 1 + rng.randrange(max_len)))
             for _ in range(count)]
    if base:
        pairs = [(stage, base + tail) for stage, tail in pairs]
    return StagedOpenSet(by_stage(pairs), horizon)


def random_functional(rng: random.Random, depth: int, axiom_count: int,
                      horizon: int) -> TuringFunctional:
    """Grow outputs down a labeled tree, then date a sample of nodes.

    Along any branch the label only extends, so any two axioms with
    comparable stems automatically have comparable outputs.  That is the
    whole consistency requirement, met without rejection sampling.  Nodes
    and labels grow as plain bit text; the functional turns only the drawn
    axioms into bit strings.
    """
    labels: Dict[str, str] = {"": ""}
    nodes = [""]
    frontier = [""]
    for _ in range(depth):
        nxt: List[str] = []
        for node in frontier:
            for bit in "01":
                child = node + bit
                grown = labels[node]
                for _ in range(rng.randrange(_GROWTH_MAX + 1)):
                    grown += "1" if rng.getrandbits(1) else "0"
                labels[child] = grown
                nodes.append(child)
                nxt.append(child)
        frontier = nxt
    candidates = [n for n in nodes if labels[n]]
    if not candidates:
        return TuringFunctional([], horizon)
    pairs = []
    for _ in range(axiom_count):
        stem = candidates[rng.randrange(len(candidates))]
        pairs.append((rng.randrange(horizon + 1), (stem, labels[stem])))
    return TuringFunctional(by_stage(pairs), horizon)


def random_pi01_tree(rng: random.Random, depth: int = 24, horizon: int = 8) -> Pi01Tree:
    """Depth-bounded class with short removals and a floor on its measure.

    Removals are 1 to `_REMOVAL_LEN_MAX` bits long, and the depth guard
    keeps them shorter than the tree, so viable stems of any greater length
    sit in untouched cylinders; the rejection loop keeps the removed measure
    at most `_MAX_REMOVED`, so the class keeps half the space.  The removed
    set is a bitmask with one bit per string of length `_REMOVAL_LEN_MAX`: a
    removal of length l sets the 2^(_REMOVAL_LEN_MAX - l) consecutive bits
    of its extensions, and the removed measure is the mask's popcount over
    2^_REMOVAL_LEN_MAX.
    """
    if _REMOVAL_LEN_MAX >= depth:
        raise RandlabError("removals must be shorter than the tree depth")
    if horizon < 0:
        raise RandlabError(f"horizon {horizon} must be non-negative")
    # popcount / 2^_REMOVAL_LEN_MAX <= num / 2^exp, in integers.
    cap = _MAX_REMOVED.num << _REMOVAL_LEN_MAX
    removed = 0
    kept: List[Tuple[int, BitString]] = []
    for _ in range(_REMOVAL_TRIES):
        s = random_bits(rng, 1 + rng.randrange(_REMOVAL_LEN_MAX))
        width = _REMOVAL_LEN_MAX - len(s)
        grown = removed | ((1 << (1 << width)) - 1) << (int(s.bits, 2) << width)
        if grown.bit_count() << _MAX_REMOVED.exp > cap:
            continue
        removed = grown
        kept.append((rng.randrange(horizon + 1), s))
    return Pi01Tree(depth, by_stage(kept), horizon)


def _increasing_stages(rng: random.Random, count: int, horizon: int) -> List[int]:
    stages: List[int] = []
    s = rng.randrange(2)
    for _ in range(count):
        if s > horizon:
            break
        stages.append(s)
        s += 1 + rng.randrange(2)
    return stages


def random_demuth_test(rng: random.Random, levels: int, version_bound: int,
                       horizon: int) -> DemuthTest:
    """Test whose level n lives inside a fixed cylinder of length n.

    Confinement makes the measure bound 2^-n hold for every version, not
    just the final one, so verification exercises only the counting side.
    """
    built: List[VersionedOpenSet] = []
    for n in range(levels):
        base = random_bits(rng, n)
        want = 1 + rng.randrange(min(version_bound, 3))
        stages = _increasing_stages(rng, want, horizon)
        versions = [(stage, random_open_set(rng, horizon, 2 + rng.randrange(3), 3, base))
                    for stage in stages]
        if not versions:
            versions = [(0, StagedOpenSet([], horizon))]
        built.append(VersionedOpenSet(versions))
    return DemuthTest(tuple(built), tuple(version_bound for _ in range(levels)), horizon)


def thinned_delayed(rng: random.Random, source: StagedOpenSet, horizon: int) -> StagedOpenSet:
    """Subset of `source` at every stage: drop strings, push stages later."""
    pairs: List[Tuple[int, BitString]] = []
    for stage, strings in source.events:
        for s in strings:
            if rng.randrange(_KEEP_ONE_IN) == 0:
                pairs.append((min(horizon, stage + rng.randrange(_DELAY_MAX + 1)), s))
    return StagedOpenSet(by_stage(pairs), horizon)


def random_diffunion_test(rng: random.Random, levels: int, pair_bound: int,
                          horizon: int) -> DiffUnionTest:
    built: List[Tuple[DiffPair, ...]] = []
    for n in range(levels):
        base = random_bits(rng, n)
        want = 1 + rng.randrange(min(pair_bound, 3))
        pairs = []
        for _ in range(want):
            u = random_open_set(rng, horizon, 2 + rng.randrange(3), 3, base)
            v = thinned_delayed(rng, u, horizon)
            pairs.append(DiffPair(u, v))
        built.append(tuple(pairs))
    return DiffUnionTest(tuple(built), tuple(pair_bound for _ in range(levels)), horizon)


def nested_family(rng: random.Random, levels: int, horizon: int) -> OpenFamily:
    """Descending chain built by thinning and delaying the level above."""
    top = random_open_set(rng, horizon, _FAMILY_TOP, _FAMILY_TOP_MAX_LEN)
    chain = [top]
    for _ in range(levels - 1):
        chain.append(thinned_delayed(rng, chain[-1], horizon))
    return OpenFamily(tuple(chain))


def _schemes(seed: int, stars: int, depth: int, horizon: int) -> Iterator[W2RScheme]:
    """One scheme per attempt, each reseeded from (seed, attempt)."""
    for attempt in range(_ATTEMPTS):
        rng = random.Random(f"{seed}:{attempt}")
        base = random_pi01_tree(rng, depth=depth, horizon=horizon)
        families = tuple(nested_family(rng, _FAMILY_LEVELS, horizon)
                         for _ in range(_FAMILY_COUNT))
        yield W2RScheme(base, families, tuple(rng.randrange(_FAMILY_COUNT) for _ in range(stars)),
                        horizon)


def build_working_w2r(seed: int, payloads: Sequence[BitString],
                      depth: int = 24, horizon: int = 8) -> Tuple[W2RScheme, W2REncoding]:
    """Deterministic retry until a scheme accepts the given payloads.

    Each attempt reseeds from (seed, attempt), so the first working scheme
    is a pure function of the arguments.  Returns it with the payloads'
    encoding.
    """
    for scheme in _schemes(seed, len(payloads), depth, horizon):
        try:
            enc = w2r_encode(payloads, scheme)
        except RandlabError:
            continue
        return scheme, enc
    raise RandlabError(f"no working scheme within {_ATTEMPTS} attempts")


def random_functional_pair(rng: random.Random, depth: int = 5,
                           axiom_count: int = 40, horizon: int = 8
                           ) -> Tuple[TuringFunctional, TuringFunctional]:
    phi = random_functional(rng, depth, axiom_count, horizon)
    psi = random_functional(rng, depth, axiom_count, horizon)
    return phi, psi


def hitting_run(seed: int, opens: Sequence[CylinderSet], depth: int = 220, horizon: int = 8):
    """Steer one payload into each open set over a retried scheme.

    Retries swallow only scheme-shape failures (viability, guards); a
    DensityError propagates, because a non-dense open set is the caller's
    problem and no reseeding can fix it.  Returns the scheme, payload list,
    per-step (n, steering_string) records, and the final encoding.  Each
    open's payload is layered onto the running encoding before the next
    open is steered from it.
    """
    for scheme in _schemes(seed, len(opens), depth, horizon):
        enc = w2r_encode((), scheme)
        steps: List[Tuple[int, BitString]] = []
        try:
            for u in opens:
                payload, n, zeta = extend_into_open(enc, u)
                enc = w2r_extend(enc, payload, scheme)
                steps.append((n, zeta))
        except (SchemeError, GuardExceeded):
            continue
        return scheme, [layer.payload for layer in enc.layers], steps, enc
    raise RandlabError(f"no scheme accepted the steered payloads within {_ATTEMPTS} attempts")
