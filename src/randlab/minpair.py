"""Candidate families, small-preimage selection, and the induced test level.

Given two functionals and a stem sigma with length-lex index N, the kernel
hunts for 2^N extensions of sigma whose first-functional outputs are
pairwise incomparable.  Incomparable outputs have disjoint preimages under
the second functional, so by pigeonhole at least one output has preimage
measure at most 2^-N at every stage; the selector tracks the least such
index.  Its mind changes at most 2^N times (once on discovery, once per
candidate outgrown), and mirroring the selections as versions of an open
set yields one level of a bounded-revision test.

When no family ever appears, the tree of outputs computed above sigma has a
small width: fewer than 2^N pairwise incomparable nodes, hence every
maximal branch is eventually single-child.  The analysis here checks that
structure exactly and reports where each branch's isolation sets in.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .bitstring import BitString, to_nat
from .dyadic import Dyadic
from .errors import GuardExceeded, RandlabError
from .staged import Enumerator, StagedOpenSet, TuringFunctional, first_seen
from .demuth import VersionedOpenSet

FAMILY_GUARD = 64


class PairFamily(NamedTuple):
    """2^N candidate pairs (extension, output) discovered at one stage."""

    stem: BitString
    n: int
    pairs: Tuple[Tuple[BitString, BitString], ...]
    found_stage: int

    def size(self) -> int:
        return len(self.pairs)


def _max_antichain(strings: Sequence[BitString]) -> int:
    """Largest pairwise-incomparable subset of a finite string set."""
    return _widths(strings).get("", 0)


def _widths(strings: Sequence[BitString]) -> Dict[str, int]:
    """Width of every node of the trie of the strings' prefixes: the largest
    pairwise-incomparable subset of the strings at or below it.

    One bottom-up pass, longest nodes first: a node's width is the larger
    of its own membership and the sum of its children's widths.
    """
    present = {s.bits for s in strings}
    nodes: Set[str] = set()
    for bits in present:
        # Stop at the first prefix already in: its own prefixes are too.
        for i in range(len(bits), -1, -1):
            if bits[:i] in nodes:
                break
            nodes.add(bits[:i])
    width: Dict[str, int] = {}
    for node in sorted(nodes, key=len, reverse=True):
        children = width.get(node + "0", 0) + width.get(node + "1", 0)
        width[node] = max(1 if node in present else 0, children)
    return width


def _candidate_pool(phi: TuringFunctional, stem: BitString, stage: int) -> List[Tuple[BitString, BitString]]:
    """Candidate (extension, output) pairs realized by stage `stage`, in
    length-lex order of the extension.

    Extensions come from axiom stems strictly extending `stem`; the output
    is the full value the functional grants there, so the pool is closed
    under the way values actually accumulate.
    """
    pool = []
    last = None
    # The snapshot is in length-lex order, so equal stems are neighbours.
    for ax_s, _ in phi.axioms_at(stage):
        if ax_s != last and len(ax_s) > len(stem) and ax_s.extends(stem):
            last = ax_s
            out = phi.apply(ax_s, stage)
            if len(out):
                pool.append((ax_s, out))
    return pool


def _choose(pool: Sequence[Tuple[BitString, BitString]], want: int) -> Optional[List[Tuple[BitString, BitString]]]:
    """The first `want` candidates with pairwise incomparable outputs, taken
    greedily in pool order; None when the pool holds no such family.

    An exact width check keeps each greedy choice completable.  It reads
    the node widths of one pass over the whole pool: the outputs
    incomparable with every chosen one lie in the subtrees hanging off the
    chosen outputs' root paths, so their widest antichain is the sum of
    those subtrees' widths, updated as a path grows.  Counting the scanned
    candidates loses nothing: one that joins a completion now would have
    completed the choice made when it was scanned, and been taken then.
    """
    width = _widths([out for _, out in pool])
    free = width.get("", 0)  # widest antichain incomparable with every chosen output
    if free < want:
        return None
    chosen: List[Tuple[BitString, BitString]] = []
    used: Set[str] = set()   # the chosen outputs' bits
    paths: Set[str] = set()  # and all their prefixes
    for cand_s, cand_t in pool:
        bits = cand_t.bits
        if bits in paths or any(bits[:i] in used for i in range(len(bits))):
            continue
        # The candidate's root path leaves the chosen paths at depth d.
        d = 0
        while bits[:d] in paths:
            d += 1
        after = free - width[bits[:d]] + sum(
            width.get(bits[:i] + ("1" if bits[i] == "0" else "0"), 0) for i in range(d, len(bits)))
        if 1 + len(chosen) + after >= want:
            chosen.append((cand_s, cand_t))
            used.add(bits)
            paths.update(bits[:i] for i in range(d, len(bits) + 1))
            free = after
            if len(chosen) == want:
                return chosen
    raise RandlabError(f"greedy family took {len(chosen)} of {want} pairs")


def find_family(phi: TuringFunctional, stem: BitString, stage: int) -> Optional[PairFamily]:
    """Earliest lexicographically-first family of 2^Nat(stem) candidates.

    Searches stage 0 and then each event stage of `phi` up to `stage`, since
    the pool only changes at events; within a stage, candidates are taken
    greedily in length-lex order (`_choose`).  None when no stage up to
    `stage` carries a family.
    """
    n = to_nat(stem)
    want = 1 << n
    if want > FAMILY_GUARD:
        raise GuardExceeded(f"family of 2^{n} pairs refused (limit {FAMILY_GUARD})")
    for s in phi.change_stages(stage):
        chosen = _choose(_candidate_pool(phi, stem, s), want)
        if chosen is not None:
            return PairFamily(stem, n, tuple(chosen), s)
    return None


class FApprox(NamedTuple):
    """Stagewise trace of the guarded-image map at one stem."""

    stem: BitString
    family: Optional[PairFamily]
    values: Tuple[BitString, ...]          # value at each stage 0..horizon
    chosen_index: Tuple[Optional[int], ...]

    def final(self) -> BitString:
        return self.values[-1]

    def mind_changes(self) -> int:
        changes = 0
        for a, b in zip(self.values, self.values[1:]):
            if a != b:
                changes += 1
        return changes


def f_approx(phi: TuringFunctional, psi: TuringFunctional, stem: BitString, horizon: int) -> FApprox:
    """Track f(stem) over stages: the first family member whose preimage
    under `psi` stays within measure 2^-Nat(stem); the stem itself before
    the family shows up.

    Disjointness of the candidate preimages makes the pigeonhole exact: at
    every stage some candidate qualifies, and the chosen index only climbs.
    """
    n = to_nat(stem)
    cap = Dyadic.half_pow(n)
    family = find_family(phi, stem, horizon)
    if family is None:
        return FApprox(stem, None, (stem,) * (horizon + 1), (None,) * (horizon + 1))
    found = family.found_stage
    values: List[BitString] = [stem] * found
    chosen: List[Optional[int]] = [None] * found
    # The preimages, hence the choice, change only at the events of psi.
    starts = [found] + [s for s in psi.change_stages(horizon) if s > found]
    idx = 0
    for start, end in zip(starts, starts[1:] + [horizon + 1]):
        while idx < family.size() and psi.preimage(family.pairs[idx][1], start).measure() > cap:
            idx += 1
        if idx >= family.size():
            raise RandlabError("pigeonhole failed: some preimages overlap")
        values += [family.pairs[idx][0]] * (end - start)
        chosen += [idx] * (end - start)
    return FApprox(stem, family, tuple(values), tuple(chosen))


def induced_demuth_level(phi: TuringFunctional, psi: TuringFunctional, stem: BitString, horizon: int) -> Tuple[VersionedOpenSet, FApprox]:
    """One bounded-revision level mirroring the selector's switches.

    Each version is the staged preimage of the currently selected output;
    there are at most 2^Nat(stem) versions and the last one's final measure
    is at most 2^-Nat(stem) by the selection rule.
    """
    trace = f_approx(phi, psi, stem, horizon)
    versions: List[Tuple[int, StagedOpenSet]] = []
    if trace.family is not None:
        # One index is chosen per stage, so a switch stage brings exactly one.
        switches = first_seen((s, [j]) for s, j in enumerate(trace.chosen_index) if j is not None)
        for start, (j,) in switches:
            tau_j = trace.family.pairs[j][1]
            events = first_seen((s, psi.preimage(tau_j, s).strings) for s in psi.change_stages(horizon))
            versions.append((start, StagedOpenSet.from_events(events, horizon)))
    return VersionedOpenSet(versions), trace


class BranchIsolation(NamedTuple):
    branch: BitString
    onset: int  # position after the last two-child node on the branch


class IsolationAnalysis(NamedTuple):
    applicable: bool
    antichain_width: int
    width_bound: int
    branches: Tuple[BranchIsolation, ...]

    @property
    def all_isolated(self) -> bool:
        return self.applicable and all(b.onset <= len(b.branch) for b in self.branches)


def isolated_path_analysis(tree: Enumerator, n: int) -> IsolationAnalysis:
    """Exact structure check on a width-bounded prefix tree.

    Applicable when the final set has fewer than 2^n pairwise incomparable
    elements; each maximal branch then reports the position after its last
    branching node, beyond which it runs single-child to its tip.
    """
    final = sorted(tree.final())
    if final:
        closed = set(final)
        for s in final:
            for i in range(len(s)):
                closed.add(s.prefix(i))
        if len(closed) != len(final):
            raise RandlabError("enumerated tree is not closed under prefixes")
    width = _max_antichain(final)
    bound = 1 << n
    if width >= bound:
        return IsolationAnalysis(False, width, bound, ())
    members = set(final)
    branches = []
    for s in final:
        if s.append(0) not in members and s.append(1) not in members:
            onset = 0
            for p in range(len(s)):
                sibling = s.prefix(p).append(1 - s[p])
                if sibling in members:
                    onset = p + 1
            branches.append(BranchIsolation(s, onset))
    return IsolationAnalysis(True, width, bound, tuple(branches))


class CaseReport(NamedTuple):
    stem: BitString
    n: int
    case: str  # "width-bounded" or "disagreement"
    trace: FApprox
    isolation: Optional[IsolationAnalysis]
    selected_output: Optional[BitString]
    x_in_preimage: Optional[bool]
    disagreement_position: Optional[int]
    phi_on_g: BitString
    psi_on_x: BitString


def output_tree(phi: TuringFunctional, stem: BitString, horizon: int) -> Enumerator:
    """Prefix closure of every output the functional grants above `stem`,
    dated by the stage the output is first granted."""
    def closure(s: int) -> set:
        # An axiom on a prefix of the stem counts in the stem's own output.
        queries = {stem}.union(ax_s for ax_s, _ in phi.axioms_at(s) if ax_s.extends(stem))
        outs = {phi.apply(q, s) for q in queries}
        return {out.prefix(i) for out in outs for i in range(len(out) + 1)}

    return Enumerator(first_seen((s, closure(s)) for s in phi.change_stages(horizon)), horizon)


def classify_case(phi: TuringFunctional, psi: TuringFunctional, g_prefix: BitString,
                  x: BitString, stem_length: int, horizon: int) -> CaseReport:
    """Which side of the dichotomy the configuration lands on at this stem.

    With no family: the output tree above the stem is width-bounded, and
    the isolation analysis applies.  With a family: the selector's final
    output either swallows `x` (its preimage got it) or pins a length-wise
    disagreement between the two computations.
    """
    if not 0 <= stem_length <= len(g_prefix):
        raise RandlabError(f"stem length {stem_length} outside 0..{len(g_prefix)}")
    stem = g_prefix.prefix(stem_length)
    n = to_nat(stem)
    trace = f_approx(phi, psi, stem, horizon)
    phi_g = phi.apply(g_prefix, horizon)
    psi_x = psi.apply(x, horizon)
    if trace.family is None:
        analysis = isolated_path_analysis(output_tree(phi, stem, horizon), n)
        return CaseReport(stem, n, "width-bounded", trace, analysis,
                          None, None, None, phi_g, psi_x)
    j = trace.chosen_index[-1]
    if j is None:
        raise RandlabError(f"a family at stem {stem} but no chosen pair at stage {horizon}")
    tau = trace.family.pairs[j][1]
    pre = psi.preimage(tau, horizon)
    inside = pre.contains_prefix_of(x)
    position: Optional[int] = None
    if not inside:
        limit = min(len(tau), len(psi_x))
        for i in range(limit):
            if tau[i] != psi_x[i]:
                position = i
                break
    return CaseReport(stem, n, "disagreement", trace, None, tau, inside,
                      position, phi_g, psi_x)
