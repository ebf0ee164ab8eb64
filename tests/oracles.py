"""Test oracles and helpers that more than one test module reads or that
were stated twice, each once, beside the other bodies copied with them.

A copied body names the commit it was taken from.  Test modules import from
here, never from one another.  pytest does not rewrite asserts here, and
`python -O` strips them, so these bodies raise instead."""

import itertools
import random
import re
from fractions import Fraction
from functools import partial, reduce
from typing import Iterable, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from randlab import coding
from randlab.bitstring import EMPTY, BitString, from_nat, read_self_delimited, to_nat
from randlab.coding import kg_decode, kg_encode
from randlab.cylinders import EMPTY_SET, FULL_SET, CylinderSet, intervals_set, uniform_suffix_set
from randlab.demuth import DemuthTest, verify_demuth
from randlab.dyadic import Dyadic
from randlab.errors import RandlabError
from randlab.fireworks import FailureSets, FireworksConfig, Leaf, run_fireworks, sweep
from randlab.generators import _MAX_REMOVED, _REMOVAL_LEN_MAX, _REMOVAL_TRIES, hitting_run
from randlab.minpair import FApprox, PairFamily, induced_demuth_level
from randlab.scenario import _cap_space
from randlab.staged import Enumerator, Pi01Tree, ValuedOpenSet, by_stage, first_seen


def as_fraction(d: Dyadic) -> Fraction:
    """The `Fraction` a dyadic stands for: the oracle of `Dyadic`'s arithmetic."""
    return Fraction(d.num, 1 << d.exp)


# Schedules for hypothesis: (events, horizon) pairs over bit strings or
# over consistent axioms (tests/test_staged.py since ac5efa5).

bit_strings = st.text(alphabet="01", max_size=5)


@st.composite
def schedules(draw, items):
    """(events, horizon) with strictly increasing stages, empty and repeated
    items allowed, and the horizon at or past the last event."""
    stages = sorted(draw(st.sets(st.integers(min_value=0, max_value=12), max_size=5)))
    events = [(s, draw(st.lists(items, max_size=4))) for s in stages]
    horizon = (stages[-1] if stages else 0) + draw(st.integers(min_value=0, max_value=3))
    return events, horizon


def _flip(s):
    return "".join("1" if c == "0" else "0" for c in s)


# tau a prefix of sigma's complement: comparable stems get comparable outputs.
axioms = st.tuples(bit_strings, st.integers(min_value=0, max_value=5)).map(
    lambda p: (p[0], _flip(p[0])[:p[1]]))


# Fireworks adversaries for hypothesis (tests/test_fireworks.py since 57e4e8e).

def ladder(stages=4):
    # Rung j refutes the guess standing at stage j but conflicts with the
    # all-zero working prefix, so only the next rung can answer it.
    return Enumerator([(j, ["0" * (j - 1) + "1"]) for j in range(1, stages + 1)],
                      horizon=stages + 1)


ladders = st.integers(1, 5).map(ladder)
random_adversaries = st.dictionaries(
    st.integers(1, 8),
    st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=1, max_size=3),
    max_size=4,
).map(lambda events: Enumerator(sorted(events.items()), horizon=9))


# The paper's claims on one instance, as tests and scenario verdicts both
# check them (tests/test_verdicts.py since 2769956).

# Along one cap axis (tests/test_fireworks.py) a strategy succeeds
# actively, fails actively at most once, then succeeds passively.
AXIS = re.compile(r"^(ActiveSuccess )*(ActiveFailure )?(PassiveSuccess )*$")


def axis_ok(outcomes):
    return AXIS.match("".join(o.value + " " for o in outcomes)) is not None


def cap_axes(bounds):
    """(e, the cap vectors along axis e) for each axis e and each fixing of
    the other caps within `bounds`."""
    ranges = [range(1, n + 1) for n in bounds]
    for e, axis in enumerate(ranges):
        for fixed in itertools.product(*ranges[:e], *ranges[e + 1:]):
            yield e, [fixed[:e] + (cap,) + fixed[e:] for cap in axis]


def extract_ok(cfg):
    """Each strategy's residue has measure at most 1/(its cap bound), and
    the residues' union has the failure probability as its measure."""
    sw = sweep(cfg)
    union = EMPTY_SET
    ok = True
    for e, fs in enumerate(sw.failure_sets):
        residue = fs.residue()
        union = union | residue
        ok = ok and residue.measure() <= Dyadic(1, cfg.cap_bounds[e].bit_length() - 1)
    return ok and union.measure() == sw.probability


def kg_tree_ok(tree, payloads, stem, horizon):
    """Each payload's KG codeword decodes back to it and stays in the class."""
    ok = True
    for p in payloads:
        code = kg_encode(p, stem, tree)
        ok = ok and kg_decode(code, stem, tree, horizon) == p and tree.viable(code, horizon)
    return ok


def minpair_ok(phi, psi, nat_max, horizon):
    """Level n of the induced Demuth test changes its mind, and its version,
    at most 2^n times, and the levels 0..nat_max form a Demuth test."""
    ok = True
    levels = []
    for n in range(nat_max + 1):
        vos, trace = induced_demuth_level(phi, psi, from_nat(n), horizon)
        bound = 1 << n
        ok = ok and trace.mind_changes() <= bound and vos.version_count() <= bound
        levels.append(vos)
    assembled = DemuthTest(tuple(levels), tuple(1 << n for n in range(nat_max + 1)), horizon)
    return ok and verify_demuth(assembled).ok


# Shared inputs and a call counter (tests/test_gamma_decode.py, 01c8b5d, 7f70a3c).

def strings_up_to(length):
    return [s for n in range(length + 1) for s in BitString.all_strings(n)]


def criterion_7_run():
    """Acceptance criterion 7's steered run: (opens, scheme, codeword, budget)."""
    opens = [uniform_suffix_set(pattern, position)
             for position, pattern in [(8, "11"), (12, "01"), (16, "10"), (20, "1")]]
    scheme, payloads, _, enc = hitting_run(9, opens, depth=220)
    stream_len = sum(len(p) for p in payloads)
    return opens, scheme, enc.codeword, max(scheme.horizon, stream_len) + scheme.horizon


def counting(monkeypatch, name, *modules):
    """The positional arguments of every call of `name`, looked up in each of
    `modules` (`coding` when none is given), from here on."""
    calls = []
    for module in modules or (coding,):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, **kwargs:
                            calls.append(args) or real(*args, **kwargs))
    return calls


# The stage queries of src/randlab/staged.py and demuth.py at ea774f5,
# before the cumulative schedule: each one replays the normalised events
# from stage 0.  A staged open set at a stage is
# `CylinderSet.normalize(old_at(events, stage))`, the stage clamped to
# -1..horizon.

def old_at(events, stage):
    acc = set()
    for s, strings in events:
        if s > stage:
            break
        acc.update(strings)
    return frozenset(acc)


def old_axioms_at(events, stage):
    acc = []
    for s, pairs in events:
        if s > stage:
            break
        acc.extend(pairs)
    return tuple(sorted(set(acc)))


def old_apply(events, sigma, stage):
    sigma = BitString(sigma)
    best = EMPTY
    for ax_s, ax_t in old_axioms_at(events, stage):
        if ax_s.is_prefix_of(sigma) and len(ax_t) > len(best):
            best = ax_t
    return best


def old_preimage(events, tau, stage):
    tau = BitString(tau)
    if len(tau) == 0:
        return CylinderSet(True)
    return CylinderSet.normalize([ax_s for ax_s, ax_t in old_axioms_at(events, stage) if ax_t.extends(tau)])


def old_restrict_events(events, extra_events):
    merged = {}
    for stage, strings in events:
        merged.setdefault(stage, set()).update(strings)
    for stage, strings in extra_events:
        merged.setdefault(stage, set()).update(strings)
    return sorted((stage, sorted(strs)) for stage, strs in merged.items())


def old_live_at(versions, stage):
    live = None
    for s, v in versions:
        if s > stage:
            break
        live = v
    return live


# The "fresh since the last stage" loops that `first_seen` replaced, at
# ea774f5: diffunion_to_demuth and induced_demuth_level ran the same loop
# over generator snapshots, output_tree its own over prefix closures.

def old_fresh(snapshots):
    events = []
    seen = set()
    for s, strings in snapshots:
        fresh = [g for g in strings if g not in seen]
        seen.update(strings)
        if fresh:
            events.append((s, fresh))
    return events


def old_fresh_output_tree(snapshots):
    events = {}
    seen = set()
    for s, closure in snapshots:
        fresh = set(closure) - seen
        if fresh:
            events[s] = fresh
            seen |= set(closure)
    return sorted((s, sorted(v)) for s, v in events.items())


# The minpair path of src/randlab/minpair.py at 464b36d, before the
# event-wise queries: pools rebuilt and preimages read at every stage, a
# recursive antichain, and `apply` replayed from the events.

def old_max_antichain(strings):
    present = set(strings)
    nodes = set(present)
    for s in present:
        for i in range(len(s)):
            nodes.add(s.prefix(i))

    def grow(node):
        child_total = sum(grow(c) for c in (node.append(0), node.append(1)) if c in nodes)
        return max(1 if node in present else 0, child_total)

    return grow(BitString()) if nodes else 0


def old_candidate_pool(phi, stem, stage):
    pool = []
    for ax_s, _ in phi.axioms_at(stage):
        if ax_s.extends(stem) and ax_s != stem:
            out = old_apply(phi.events, ax_s, stage)
            if len(out):
                pool.append((ax_s, out))
    return sorted(set(pool))


def old_choose(pool, want):
    """The greedy pick of `want` pairs with incomparable outputs from
    `pool`, completability checked by a fresh antichain over the unscanned
    rest for every candidate; None when the pool has no such antichain."""
    if old_max_antichain([out for _, out in pool]) < want:
        return None
    chosen, used_outputs = [], []
    for i, (cand_s, cand_t) in enumerate(pool):
        if any(cand_t.comparable(u) for u in used_outputs):
            continue
        rest = [out for _, out in pool[i + 1:]
                if not any(out.comparable(u) for u in used_outputs + [cand_t])]
        if 1 + len(used_outputs) + old_max_antichain(rest) >= want:
            chosen.append((cand_s, cand_t))
            used_outputs.append(cand_t)
            if len(chosen) == want:
                break
    return chosen


def old_find_family(phi, stem, stage):
    n = to_nat(stem)
    for s in range(stage + 1):
        chosen = old_choose(old_candidate_pool(phi, stem, s), 1 << n)
        if chosen is not None:
            return PairFamily(stem, n, tuple(chosen), s)
    return None


def old_f_approx(phi, psi, stem, horizon):
    """(family, value per stage, chosen index per stage) for stages 0..horizon."""
    cap = Dyadic.half_pow(to_nat(stem))
    family = old_find_family(phi, stem, horizon)
    values, chosen = [], []
    idx = 0
    for s in range(horizon + 1):
        if family is None or s < family.found_stage:
            values.append(stem)
            chosen.append(None)
            continue
        while idx < family.size():
            if psi.preimage(family.pairs[idx][1], s).measure() <= cap:
                break
            idx += 1
        values.append(family.pairs[idx][0])
        chosen.append(idx)
    return family, tuple(values), tuple(chosen)


def per_stage(trace: FApprox, horizon: int):
    """(value per stage, chosen index per stage) of a change-point trace,
    stages 0..horizon, as `old_f_approx` gives them (tests since 105e220)."""
    values, chosen = [], []
    points = list(trace.changes)
    value, index = trace.stem, None
    for stage in range(horizon + 1):
        if points and points[0][0] == stage:
            index = points.pop(0)[1]
            value = trace.family.pairs[index][0]
        values.append(value)
        chosen.append(index)
    if points:
        raise AssertionError(f"change points past the horizon {horizon}: {points}")
    return tuple(values), tuple(chosen)


def old_version_events(psi, trace, horizon):
    out = []
    if trace.family is not None:
        chosen = per_stage(trace, horizon)[1]
        switches = first_seen((s, [j]) for s, j in enumerate(chosen) if j is not None)
        for start, (j,) in switches:
            tau_j = trace.family.pairs[j][1]
            events = first_seen((s, psi.preimage(tau_j, s).strings) for s in range(horizon + 1))
            out.append((start, Enumerator(events, horizon).events))
    return out


def old_output_tree(phi, stem, horizon):
    def closure(s):
        outs = {old_apply(phi.events, stem, s)}
        for ax_s, _ in phi.axioms_at(s):
            if ax_s.comparable(stem):
                longer = ax_s if ax_s.extends(stem) else stem
                outs.add(old_apply(phi.events, longer, s))
        return {out.prefix(i) for out in outs for i in range(len(out) + 1)}

    return Enumerator(first_seen((s, closure(s)) for s in range(horizon + 1)), horizon)


# The branching length as a per-length loop over the extreme intact
# extensions, before `kucera_depth` walked the removed trie once
# (tests/test_coding.py since 4204744): None where the depth runs out.

def kucera_depth_reference(sigma: BitString, tree: Pi01Tree, stage: int) -> Optional[int]:
    for length in range(len(sigma) + 1, tree.depth + 1):
        left = tree.leftmost_intact(sigma, length, stage)
        if left is None:
            continue
        right = tree.rightmost_intact(sigma, length, stage)
        if right != left:
            return length
    return None


# The KG decoder of src/randlab/coding.py at 4204744: it re-parsed the
# codec block from bit 0 after every bit, and `append` copied the block.
# Each step asks the per-length loop and the extreme extensions afresh.

def reparsing_kg_decode_prefix(x: BitString, sigma: BitString, tree: Pi01Tree,
                               stage: Optional[int] = None) -> Optional[Tuple[BitString, BitString]]:
    s = tree.horizon if stage is None else stage
    cur = BitString(sigma)
    if not x.extends(cur):
        return None
    block = EMPTY  # the codec block read so far
    while (parsed := read_self_delimited(block)) is None:
        length = kucera_depth_reference(cur, tree, s)
        if length is None or length > len(x):
            return None
        step = x.prefix(length)
        if step == tree.leftmost_intact(cur, length, s):
            block = block.append(0)
        elif step == tree.rightmost_intact(cur, length, s):
            block = block.append(1)
        else:
            return None
        cur = step
    return parsed[0], cur


# The cap-box walk and failure sets of src/randlab/fireworks.py at 8d711aa:
# the engine replayed each leaf box from stage 0, and each value of a
# failure set folded one trie per box with `|`.

class ReplayedCap:
    """A strategy's cap while the engine replays a box: some value in lo..hi.

    The engine reads a cap only through `guesses < cap`, which Python asks
    of the cap as `cap > guesses`.  Undecided on lo..hi, it splits the box
    at `guesses`: this replay keeps guesses+1..hi, and `pending` receives the
    whole box as it stands with this cap in lo..guesses.
    """

    __slots__ = ("lo", "hi", "box", "pending")

    def __init__(self, lo: int, hi: int, box: List["ReplayedCap"], pending: list) -> None:
        self.lo, self.hi, self.box, self.pending = lo, hi, box, pending

    def __gt__(self, guesses: int) -> bool:
        if self.lo <= guesses < self.hi:
            self.pending.append(tuple((c.lo, guesses) if c is self else (c.lo, c.hi)
                                      for c in self.box))
            self.lo = guesses + 1
        return guesses < self.lo

    # The engine's range check; both sides are decided on every box.
    def __ge__(self, n: int) -> bool:
        return self._decided(self.lo >= n, self.hi < n, ">=", n)

    def __le__(self, n: int) -> bool:
        return self._decided(self.hi <= n, self.lo > n, "<=", n)

    def _decided(self, holds: bool, fails: bool, op: str, n: int) -> bool:
        if holds == fails:
            raise RandlabError(f"cap in {self.lo}..{self.hi} {op} {n} is undecided")
        return holds


def replayed_leaves(cfg: FireworksConfig, engine=run_fireworks) -> List[Leaf]:
    """Replay `engine` once per leaf box, from stage 0; the leaves tile the
    cap space and come in order of least vector."""
    pending = [tuple((1, n) for n in cfg.cap_bounds)]
    leaves = []
    while pending:
        caps: List[ReplayedCap] = []
        caps.extend(ReplayedCap(lo, hi, caps, pending) for lo, hi in pending.pop())
        run = engine(cfg, caps)
        box = tuple(range(c.lo, c.hi + 1) for c in caps)
        leaves.append(Leaf(box, run._replace(caps=tuple(r.start for r in box))))
    leaves.sort(key=lambda leaf: leaf.run.caps)
    return leaves


def box_set(box: Tuple[range, ...], cfg: FireworksConfig) -> CylinderSet:
    """The oracles of a box's vectors, as one trie: block e holds cap - 1 in
    its block length, so each cap range is an interval of block values."""
    out = FULL_SET
    for r, width in reversed(list(zip(box, cfg.block_lengths))):
        out = intervals_set(width, [(r.start - 1, r.stop - 2, out)])
    return out


def _folded_union(dated: Sequence[Tuple[int, CylinderSet]], horizon: int) -> ValuedOpenSet:
    stages = sorted({t for t, _ in dated})
    return ValuedOpenSet([(t, partial(reduce, CylinderSet.__or__, [o for s, o in dated if s <= t],
                                      EMPTY_SET)) for t in stages], horizon)


def folded_failure_sets(cfg: FireworksConfig, leaves: Sequence[Leaf]) -> Tuple[FailureSets, ...]:
    """`Sweep.failure_sets` of a walk's leaves, each value a union of box tries."""
    dated: List[Tuple[list, list]] = [([], []) for _ in cfg.adversaries]
    for leaf in leaves:
        records = [rec for rec in leaf.run.records if rec.active_stage is not None]
        oracles = box_set(leaf.box, cfg) if records else EMPTY_SET
        for rec in records:
            for side, stage in zip(dated[rec.index], (rec.active_stage, rec.answer_stage)):
                if stage is not None:
                    side.append((stage, oracles))
    return tuple(FailureSets(*(_folded_union(side, cfg.stage_budget) for side in sides)) for sides in dated)


# The seeded builders of src/randlab/generators.py at 6289175: a string
# drawn bit by bit through the checked constructor, and a tree whose
# removal cap unions one trie per try and compares its measure with 1/2.

def checked_random_bits(rng: random.Random, length: int) -> BitString:
    return BitString(rng.getrandbits(1) for _ in range(length))


def trie_capped_pi01_tree(rng: random.Random, depth: int = 24, horizon: int = 8) -> Pi01Tree:
    if _REMOVAL_LEN_MAX >= depth:
        raise RandlabError("removals must be shorter than the tree depth")
    if horizon < 0:
        raise RandlabError(f"horizon {horizon} must be non-negative")
    removed = CylinderSet.normalize([])
    kept: List[Tuple[int, BitString]] = []
    for _ in range(_REMOVAL_TRIES):
        s = checked_random_bits(rng, 1 + rng.randrange(_REMOVAL_LEN_MAX))
        grown = removed | CylinderSet.cylinder(s)
        if grown.measure() > _MAX_REMOVED:
            continue
        removed = grown
        kept.append((rng.randrange(horizon + 1), s))
    return Pi01Tree(depth, by_stage(kept), horizon)


# The brute-force references of src/randlab/fireworks.py and cylinders.py
# at 536bd63: one engine run per cap vector, and a measure by enumerating
# every point at a depth.  `_cap_space`, the guard that refuses a sweep
# report over 2^24 vectors, is the runner's, in `randlab.scenario`.

def sweep_runs(cfg: FireworksConfig):
    """Yield a run per cap vector, in lexicographic cap order.

    The brute-force reference for `sweep`, which makes one run per box.
    """
    _cap_space(cfg)
    for caps in itertools.product(*(range(1, n + 1) for n in cfg.cap_bounds)):
        yield run_fireworks(cfg, caps)


def brute_measure(strings: Iterable[BitString], depth: int) -> Dyadic:
    """Reference measure by enumerating all points at `depth`.

    Deliberately naive; unit tests use it as an independent check against
    the trie arithmetic.  Every generator must be at most `depth` long.
    """
    gens = tuple(BitString(s).bits for s in strings)
    if any(len(g) > depth for g in gens):
        raise ValueError("brute_measure needs depth >= generator lengths")
    # The points as plain strings; depth 0 has the one empty point.
    points = (format(i, "b").zfill(depth) for i in range(1 << depth)) if depth else ("",)
    return Dyadic(sum(point.startswith(gens) for point in points), depth)
