"""Clopen-set algebra against deliberately dumb oracles; the trie
implementation must agree exactly.

Point enumeration approximates a point of Cantor space by a string of DEPTH
bits and recomputes an operation over all 2^DEPTH of them (`slow_points`,
`brute_measure`): the boolean, complement, subset, shift and membership
tests, and the measures of `test_interned_trie_matches_tuple_trie` and the
measure-once test.  The antichain sum reads a measure as the sum of 2^-|g|
over a set's checked prefix-free generators (`antichain_measure`): the
node-lives test.
"""

import ast
import gc
import itertools
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_measure

import randlab
from randlab import cylinders
from randlab.bitstring import EMPTY, BitString
from randlab.coding import shifted_core
from randlab.cylinders import CylinderSet, EMPTY_SET, FULL_SET, intervals_set, uniform_suffix_set
from randlab.dyadic import Dyadic
from randlab.staged import Pi01Tree

DEPTH = 8

gen_strings = st.lists(st.text(alphabet="01", max_size=6), max_size=8)
clopens = gen_strings.map(CylinderSet.normalize)


def slow_points(cs):
    return {leaf for leaf in BitString.all_strings(DEPTH)
            if any(g.is_prefix_of(leaf) for g in cs.strings)}


@given(clopens)
def test_normalize_idempotent(a):
    assert CylinderSet.normalize(a.strings) == a


@given(clopens)
def test_canonical_antichain(a):
    gens = a.strings
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            assert not g.comparable(h)
    # No unmerged sibling pair: s0 and s1 never both appear.
    as_set = {g.bits for g in gens}
    for g in gens:
        if g.bits.endswith("0"):
            assert g.bits[:-1] + "1" not in as_set


@given(clopens, clopens)
@settings(max_examples=60)
def test_boolean_ops_pointwise(a, b):
    pa, pb = slow_points(a), slow_points(b)
    assert slow_points(a | b) == pa | pb
    assert slow_points(a & b) == pa & pb
    assert slow_points(a - b) == pa - pb


@given(clopens)
def test_complement_pointwise(a):
    everything = set(BitString.all_strings(DEPTH))
    assert slow_points(a.complement()) == everything - slow_points(a)


@given(clopens, clopens)
def test_inclusion_exclusion(a, b):
    assert (a | b).measure() + (a & b).measure() == a.measure() + b.measure()


@given(clopens, clopens)
def test_subset_and_intersects(a, b):
    pa, pb = slow_points(a), slow_points(b)
    assert a.is_subset(b) == (pa <= pb)
    assert a.intersects(b) == bool(pa & pb)


@given(clopens, st.text(alphabet="01", max_size=4))
def test_shift_pointwise(a, eta):
    shifted = a.shift(eta)
    span = DEPTH - len(eta)
    expect = {tail for tail in BitString.all_strings(span)
              if any(g.is_prefix_of(BitString(eta) + tail) or
                     (BitString(eta) + tail).extends(g)
                     for g in a.strings)}
    got = {tail for tail in BitString.all_strings(span)
           if any(g.is_prefix_of(tail) for g in shifted.strings)}
    assert got == expect


@given(clopens, st.text(alphabet="01", min_size=DEPTH, max_size=DEPTH))
def test_contains_prefix_of_matches_points(a, x):
    assert a.contains_prefix_of(x) == (BitString(x) in slow_points(a))


@given(clopens, st.text(alphabet="01", max_size=9))
def test_contains_prefix_of_is_cylinder_inclusion(a, s):
    # Generators are at most 6 bits long, so s falls both short of them and past them.
    assert a.contains_prefix_of(s) == CylinderSet.cylinder(s).is_subset(a)


@given(clopens, st.text(alphabet="01", max_size=5))
def test_meets_cylinder(a, s):
    cyl = CylinderSet.cylinder(s) if s else FULL_SET
    assert a.meets_cylinder(s) == a.intersects(cyl)


@given(clopens, clopens)
def test_eq_hash_contract(a, b):
    if a == b:
        assert hash(a) == hash(b)
        assert a.strings == b.strings


def test_extremes():
    assert EMPTY_SET.measure() == 0
    assert FULL_SET.measure() == 1
    assert EMPTY_SET.is_empty() and not EMPTY_SET.is_full()
    assert FULL_SET.is_full() and not FULL_SET.is_empty()
    assert CylinderSet.normalize([]) == EMPTY_SET
    assert CylinderSet.normalize(["^"]) == FULL_SET
    assert CylinderSet.normalize(["0", "1"]) == FULL_SET
    # Depth 0 has the one empty point; no generators cover no point.
    assert (brute_measure([], 0), brute_measure(["^"], 0), brute_measure([], 3)) == (0, 1, 0)
    with pytest.raises(ValueError, match="depth >= generator lengths"):
        brute_measure(["0"], 0)


def test_sibling_merge_cascades():
    merged = CylinderSet.normalize(["00", "01", "10", "11"])
    assert merged == FULL_SET
    assert CylinderSet.normalize(["000", "001", "01"]) == CylinderSet.cylinder("0")


def test_subsumption():
    assert CylinderSet.normalize(["0", "01"]) == CylinderSet.cylinder("0")
    assert CylinderSet.normalize(["010", "0"]) == CylinderSet.cylinder("0")


def test_rendering_is_length_lex():
    assert str(CylinderSet.normalize(["01", "1"])) == "{1,01}"
    assert str(EMPTY_SET) == "{}"


@given(st.text(alphabet="01", max_size=3), st.integers(min_value=0, max_value=5))
def test_uniform_suffix_set_matches_enumeration(pattern, position):
    fast = uniform_suffix_set(pattern, position)
    slow = CylinderSet.normalize(
        [head + BitString(pattern) for head in BitString.all_strings(position)])
    assert fast == slow
    assert fast.measure() == slow.measure()


@st.composite
def intervals(draw):
    width = draw(st.integers(0, 6))
    lo = draw(st.integers(0, (1 << width) - 1))
    return lo, draw(st.integers(lo, (1 << width) - 1)), width


@given(intervals(), gen_strings)
def test_interval_set_matches_enumeration(interval, tail):
    lo, hi, width = interval
    tail = CylinderSet.normalize(tail)
    values = [format(v, f"0{width}b") if width else "" for v in range(lo, hi + 1)]
    slow = CylinderSet.normalize([v + t.bits for v in values for t in tail.strings])
    assert intervals_set(width, [(lo, hi, tail)]) == slow


def test_interval_set_refuses_a_range_outside_its_width():
    for lo, hi, width in ((2, 1, 2), (0, 4, 2), (-1, 0, 2), (0, 0, -1)):
        with pytest.raises(ValueError, match="does not fit"):
            intervals_set(width, [(lo, hi, FULL_SET)])
    # 2^64 values in 64 nodes, a few of them shared.
    assert intervals_set(64, [(1, (1 << 64) - 2, FULL_SET)]).measure() == Dyadic((1 << 64) - 2, 64)


@st.composite
def segment_lists(draw):
    """A width and sorted, disjoint ranges of its values, some adjacent,
    their tails drawn from a few sets so that some share one."""
    width = draw(st.integers(0, 6))
    cuts = sorted(draw(st.sets(st.integers(0, 1 << width), max_size=6)) | {0, 1 << width})
    tails = draw(st.lists(clopens, min_size=1, max_size=3))
    return width, [(lo, end - 1, draw(st.sampled_from(tails)))
                   for lo, end in zip(cuts, cuts[1:]) if draw(st.booleans())]


@given(segment_lists())
def test_intervals_set_matches_its_spelt_out_values(width_ranges):
    width, ranges = width_ranges
    values = [(format(v, f"0{width}b") if width else "") + t.bits
              for lo, hi, tail in ranges for v in range(lo, hi + 1) for t in tail.strings]
    assert intervals_set(width, ranges) == CylinderSet.normalize(values)


def test_intervals_set_refuses_ranges_out_of_order():
    for ranges in ([(2, 4, FULL_SET), (4, 5, FULL_SET)], [(4, 5, FULL_SET), (0, 1, FULL_SET)]):
        with pytest.raises(ValueError, match="is not after the range before it"):
            intervals_set(3, ranges)
    with pytest.raises(ValueError, match="width -1 is negative"):
        intervals_set(-1, [])
    assert intervals_set(3, []) == EMPTY_SET and intervals_set(0, []) == EMPTY_SET


def test_uniform_suffix_set_large_offset_is_cheap():
    big = uniform_suffix_set("11", 40)
    assert big.measure() == Dyadic(1, 2)
    assert big.contains_prefix_of("0" * 40 + "11")
    assert not big.contains_prefix_of("0" * 40 + "10")
    # Shifting consumes free positions one head bit at a time.
    assert big.shift("1" * 13) == uniform_suffix_set("11", 27)
    # 2^390 shifted copies, folded in 390 doublings: the trie has 402
    # nodes, and every operation on shared subtrees reuses them.  A node
    # count, not a clock, so the guard holds on any machine.
    before = len(cylinders._UNIQUE)
    far = uniform_suffix_set("11", 400)
    core = shifted_core(far, 390)
    assert not core.is_empty()
    assert core.measure() == Dyadic(1, 2)
    assert core == uniform_suffix_set("11", 10)
    assert len(cylinders._UNIQUE) - before <= 450


@given(clopens)
def test_least_generator_is_the_length_lex_least_string(a):
    expected = min(a.strings, key=lambda s: (len(s), s.bits)) if a.strings else None
    assert a.least_generator() == expected


def test_least_generator_of_a_shifted_core_reads_no_antichain(monkeypatch):
    # The core's antichain holds 2^40 strings of length 41.
    core = shifted_core(uniform_suffix_set("1", 44), 4)

    def no_antichain(root):
        raise AssertionError("the antichain was extracted")

    monkeypatch.setattr(cylinders, "_collect", no_antichain)
    start = time.perf_counter()
    assert core.least_generator() == BitString("0" * 40 + "1")
    assert time.perf_counter() - start < 0.5


def test_fork_walks_a_shared_trie_once():
    # 2^40 clear extensions of length 41, reached through one node per level.
    far = uniform_suffix_set("1", 40)
    start = time.perf_counter()
    assert far.fork() == (BitString("0" * 41), BitString("1" * 40 + "0"))
    assert time.perf_counter() - start < 0.5
    # Below 0^40 only [0] is clear, so its two extensions split one bit later.
    assert far.shift("0" * 40).fork() == (BitString("00"), BitString("01"))
    assert far.shift("0" * 40 + "1").fork() is None
    assert EMPTY_SET.shift("01").fork() == (BitString("0"), BitString("1"))


def _best_of_three(query, position, patterns):
    """The least time `query(set, pattern, position)` takes on three fresh tries
    `uniform_suffix_set(pattern, position)`, a new pattern each, so no node
    facts kept by one call carry over to the next."""
    times = []
    for _ in range(3):
        pattern = next(patterns)
        s = uniform_suffix_set(pattern, position)
        start = time.perf_counter()
        query(s, pattern, position)
        times.append(time.perf_counter() - start)
    return min(times)


def test_trie_queries_grow_at_most_linearly_with_depth():
    # A ratio, not a time (Goldsmith, Aiken and Wilkerson, FSE 2007): on an
    # 8-fold deeper trie each query may take at most 16 times as long.  A
    # walk that copies its path at every level grows about 36-fold.
    queries = {"fork": lambda s, p, at: s.fork(),
               "least_generator": lambda s, p, at: s.least_generator(),
               "disjoint_extension": lambda s, p, at: s.disjoint_extension(EMPTY, at + len(p))}
    patterns = (format(i, "b") for i in itertools.count(2))
    growth = {}
    for name, query in queries.items():
        small = _best_of_three(query, 1 << 14, patterns)
        growth[name] = _best_of_three(query, 1 << 17, patterns) / small
    assert all(g <= 16 for g in growth.values()), growth


def brute_fork(gens, stem, longest):
    """The fork below `stem` by enumeration: the least length L, up to
    `longest`, with two extensions of `stem` whose cylinders miss the set,
    and the least and greatest of them."""
    s = CylinderSet.normalize(gens)
    for length in range(1, longest + 1):
        clear = [t for t in BitString.all_strings(length) if not s.meets_cylinder(BitString(stem) + t)]
        if len(clear) > 1:
            return min(clear, key=lambda t: t.bits), max(clear, key=lambda t: t.bits)
    return None


@settings(max_examples=300, deadline=None)
@given(gen_strings, st.text(alphabet="01", max_size=4))
def test_fork_matches_brute_force(gens, stem):
    # Generators are at most 6 bits: below any stem, a length of 7 has two
    # clear extensions unless the set covers the stem's cylinder.
    below = CylinderSet.normalize(gens).shift(stem)
    assert below.fork() == brute_fork(gens, stem, 7)


def test_measure_of_shared_trie_is_exact():
    # One pattern bit fixed out of position+2: measure 2^-1 regardless of offset.
    for position in (0, 10, 33):
        assert uniform_suffix_set("1", position).measure() == Fraction(1, 2)


# The tuple-trie functions this module used before nodes were interned:
# True, False, or a (zero, one) tuple, compared and hashed by structure.
# They are the reference for the interned trie.

def old_pair(zero, one):
    if zero is True and one is True:
        return True
    if zero is False and one is False:
        return False
    return (zero, one)


def old_insert(node, bits, i):
    if node is True:
        return True
    if i == len(bits):
        return True
    zero, one = node if isinstance(node, tuple) else (False, False)
    if bits[i] == "0":
        zero = old_insert(zero, bits, i + 1)
    else:
        one = old_insert(one, bits, i + 1)
    return old_pair(zero, one)


def old_union(a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return old_pair(old_union(a[0], b[0]), old_union(a[1], b[1]))


def old_inter(a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return old_pair(old_inter(a[0], b[0]), old_inter(a[1], b[1]))


def old_diff(a, b):
    if a is False or b is True:
        return False
    if b is False:
        return a
    if a is True:
        return old_pair(old_diff(True, b[0]), old_diff(True, b[1]))
    return old_pair(old_diff(a[0], b[0]), old_diff(a[1], b[1]))


def old_measure(node):
    if node is True:
        return Dyadic(1)
    if node is False:
        return Dyadic(0)
    return Dyadic(1, 1) * (old_measure(node[0]) + old_measure(node[1]))


def old_descend(node, bits):
    for c in bits:
        if node is True:
            return True
        if node is False:
            return False
        node = node[c == "1"]
    return node


def old_tree(strings):
    tree = False
    for g in strings:
        tree = old_insert(tree, BitString(g).bits, 0)
    return tree


def as_tuple(cs):
    def walk(node):
        if node is True or node is False:
            return node
        return (walk(node.zero), walk(node.one))
    return walk(cs._tree)


def structural_hash(node):
    """The documented hash: leaves hash as bools, a node as the pair of
    its children's hashes."""
    if node is True or node is False:
        return hash(node)
    return hash((structural_hash(node[0]), structural_hash(node[1])))


@given(gen_strings, gen_strings, st.text(alphabet="01", max_size=4))
@settings(max_examples=300)
def test_interned_trie_matches_tuple_trie(gens_a, gens_b, eta):
    a, b = CylinderSet.normalize(gens_a), CylinderSet.normalize(gens_b)
    ta, tb = old_tree(gens_a), old_tree(gens_b)
    assert as_tuple(a) == ta and as_tuple(b) == tb
    assert as_tuple(a | b) == old_union(ta, tb)
    assert as_tuple(a & b) == old_inter(ta, tb)
    assert as_tuple(a - b) == old_diff(ta, tb)
    assert as_tuple(a.complement()) == old_diff(True, ta)
    assert as_tuple(a.shift(eta)) == old_descend(ta, eta)
    assert a.measure() == old_measure(ta) == brute_measure(a.strings, DEPTH)
    assert (a == b) == (ta == tb)
    assert hash(a) == structural_hash(ta)
    # Interning: equal sets share one root, whichever way they were built.
    assert ((a | b) - (b - a))._tree is (a & b | a - b)._tree


DEEP = 5000


def test_deep_tries_need_no_recursion():
    assert sys.getrecursionlimit() < DEEP
    line = CylinderSet.cylinder("0" * DEEP)
    dense = uniform_suffix_set("1", DEEP)
    assert line.measure() == Dyadic(1, DEEP)
    assert dense.measure() == Dyadic(1, 1)
    assert line.strings == (BitString("0" * DEEP),)
    both = line | dense
    assert both.measure() == Dyadic(1, 1) + Dyadic(1, DEEP + 1)
    assert (line & dense).measure() == Dyadic(1, DEEP + 1)
    assert (line - dense).measure() == Dyadic(1, DEEP + 1)
    assert (both - dense) == (line - dense)
    assert line.complement().measure() == 1 - Dyadic(1, DEEP)
    assert line.complement().complement() == line
    assert line.shift("0" * (DEEP - 1)) == CylinderSet.cylinder("0")
    assert dense.shift("01" * (DEEP // 2)) == uniform_suffix_set("1", 0)
    assert CylinderSet.normalize(["0" * DEEP]) == line
    assert hash(CylinderSet.normalize(["0" * DEEP])) == hash(line)
    tree = Pi01Tree(DEEP + 1, [(0, ["0" * DEEP, "0" * (DEEP - 1) + "1"])])
    assert tree.leftmost_intact("^", DEEP, 0) == BitString("0" * (DEEP - 2) + "10")
    assert tree.rightmost_intact("^", DEEP, 0) == BitString("1" * DEEP)
    assert dense.fork() == (BitString("0" * (DEEP + 1)), BitString("1" * DEEP + "0"))


def test_unique_table_shrinks_when_sets_are_dropped():
    gc.collect()
    before = len(cylinders._UNIQUE)
    kept = [uniform_suffix_set("101", 300), CylinderSet.cylinder("01" * 200)]
    kept.append(kept[0] | kept[1])
    assert len(cylinders._UNIQUE) > before + 500
    del kept
    assert len(cylinders._UNIQUE) == before


HASH_PROGRAM = """
from randlab.cylinders import CylinderSet, EMPTY_SET, FULL_SET, uniform_suffix_set
sets = [EMPTY_SET, FULL_SET, CylinderSet.normalize(["0110", "1", "000"]),
        uniform_suffix_set("01", 30)]
print([hash(s) for s in sets])
"""


def test_hash_does_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(randlab.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", HASH_PROGRAM], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(set(ast.literal_eval(outputs[0]))) == 4


# Measure once per node: a node keeps its measure, so a measure computes
# the nodes no earlier measure reached and leaves every kept measure as it was.

def _interior(node):
    """The distinct interior nodes below (and at) `node`, by id."""
    seen, todo = {}, [node]
    while todo:
        nd = todo.pop()
        if nd is True or nd is False or id(nd) in seen:
            continue
        seen[id(nd)] = nd
        todo += [nd.zero, nd.one]
    return seen


def _measured_once(cs, want, monkeypatch):
    """Measure `cs`; return the ids of the nodes that measure computed: those
    whose measure slot was empty before.  Check that every measure kept
    before is the very same object after and that the call made one Dyadic."""
    nodes = _interior(cs._tree)
    kept = {key: node.measure for key, node in nodes.items() if node.measure is not None}
    built = []
    dyadic = cylinders.Dyadic
    monkeypatch.setattr(cylinders, "Dyadic", lambda *args: built.append(args) or dyadic(*args))
    assert cs.measure() == want
    monkeypatch.setattr(cylinders, "Dyadic", dyadic)
    assert len(built) == 1
    assert all(nodes[key].measure is measure for key, measure in kept.items())
    assert all(node.measure is not None for node in nodes.values())
    return nodes.keys() - kept.keys()


def test_measure_computes_only_nodes_no_earlier_measure_reached(monkeypatch):
    # Nodes are hash-consed, so a node an earlier test left alive may keep
    # its measure: a call computes only the nodes whose slot is empty.
    a = CylinderSet.normalize(["0010110", "011", "1101", "111001"])
    b = uniform_suffix_set("1001", 5)
    union = a | b
    want = [brute_measure(cs.strings, 9) for cs in (a, b, union)]
    _measured_once(a, want[0], monkeypatch)
    # Measured twice, or through another set with the same root: no work.
    assert _measured_once(a, want[0], monkeypatch) == set()
    assert _measured_once(CylinderSet(a._tree), want[0], monkeypatch) == set()
    # B after A: none of the nodes they share.
    assert _measured_once(b, want[1], monkeypatch).isdisjoint(_interior(a._tree))
    # A | B after A and B: only nodes neither of them has.
    fresh = _interior(union._tree).keys() - _interior(a._tree).keys() - _interior(b._tree).keys()
    assert fresh and _measured_once(union, want[2], monkeypatch) <= fresh


def antichain_measure(cs):
    """The measure of `cs` as the sum of 2^-|g| over its generators, checked
    prefix-free: exact, and blind to the measures the trie keeps."""
    bits = sorted(cs.bits)
    # Sorted, a string's extensions come right after it.
    assert not any(h.startswith(g) for g, h in zip(bits, bits[1:])), bits
    depth = max(map(len, bits), default=0)
    return Dyadic(sum(1 << (depth - len(g)) for g in bits), depth)


@settings(max_examples=150)
@given(st.lists(gen_strings, min_size=1, max_size=5), st.data())
def test_kept_measures_match_brute_force_across_node_lives(families, data):
    # Sets are built, measured and dropped in a drawn order, so later sets
    # meet nodes measured before, nodes never measured, and nodes rebuilt
    # after every set holding them died.
    for gens in families:
        before = len(cylinders._UNIQUE)
        live = [CylinderSet.normalize(gens)]
        live.append(live[0] | CylinderSet.normalize(data.draw(gen_strings)))
        live.append(live[-1] - CylinderSet.normalize(data.draw(gen_strings)))
        # Draw the order, not the sets: hypothesis keeps what it draws alive.
        for i in data.draw(st.permutations(range(len(live)))):
            assert live[i].measure() == antichain_measure(live[i])
        if data.draw(st.booleans()):
            del live
            # Refcounting frees a dropped trie at once (it holds no cycle),
            # so every node these sets built is gone: the unique table, which
            # only this test adds to meanwhile, is no larger than before.
            assert len(cylinders._UNIQUE) <= before
