"""Clopen subsets of Cantor space presented by canonical generator antichains.

A set is stored as a binary decision trie: True for a full subtree, False
for an empty one, an interior `_Node` with a zero and a one child
otherwise.  Interior nodes are hash-consed (Bryant's unique table): `_pair`
returns the one live node with the given children, so equal tries are the
same object, set equality is identity of the roots, and tries built by
`uniform_suffix_set` share every repeated subtree.  The table holds its
nodes weakly; a node lives exactly as long as some set or node refers to
it.  The table is process-wide and unlocked: build tries from one thread.
Each node carries a structural hash computed from its children's, so
hashes do not depend on addresses or on PYTHONHASHSEED.

Union, intersection and difference are memoized apply walks over pairs of
nodes, linear in the distinct pairs they meet; complement and shifting are
walks over distinct nodes.  Exact measure is computed once per node: a
node keeps its measure for its life (Bryant's computed results, shared
like the nodes), so measuring a set walks only the nodes no earlier
measure reached.  With its measure a node keeps its reach: how deep its
nearest empty and its nearest full subtree lie.  So one greedy descent,
which keeps to a side while a subtree of the wanted kind lies within the
bits left, reads the fork (the lex-least and lex-greatest strings whose
cylinders miss the set at the least length with two: the step of a coding
walk, which a node also keeps), the extreme disjoint extensions at a
length and the least generator.  Every walk keeps an explicit stack or
loop, so trie depth is bounded by memory, not by the recursion limit, and
no operation ever enumerates points.  The
canonical antichain (no generator a prefix of another, no sibling pair
s0/s1 left unmerged) is read off the trie on demand.
"""

from __future__ import annotations

import bisect
import functools
import weakref
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .bitstring import BitString
from .dyadic import Dyadic


class _Node:
    """An interior trie node.  Build only through `_pair`.

    Its children never change, so neither do its measure, its reach and its
    fork: `_measure` stores the first two in `measure` and `CylinderSet.fork`
    the last in `fork` the first time each is asked, for the node's life."""

    __slots__ = ("zero", "one", "hash", "measure", "fork", "__weakref__")

    def __init__(self, zero: "Node", one: "Node") -> None:
        self.zero = zero
        self.one = one
        # Leaves hash as the bools they are: 1 and 0.
        self.hash = hash((zero if zero is True or zero is False else zero.hash,
                          one if one is True or one is False else one.hash))
        self.measure: Optional[Tuple[int, int, int, int]] = None  # kept by `_measure` once it is asked
        self.fork: Optional[Tuple[BitString, BitString]] = None  # kept by `CylinderSet.fork`


# Trie node: True (full), False (empty), or an interior _Node.
Node = Union[bool, _Node]

# The unique table: (id(zero), id(one)) -> weak reference to the live node
# with those children.  A node keeps its children alive, so the ids in a
# live entry stay valid; a node's death drops its entry before its children
# can die and free their ids.  (A plain dict of weak references, not a
# WeakValueDictionary, whose Python-level bookkeeping doubles the cost of
# building a node.)
_UNIQUE: Dict[Tuple[int, int], "weakref.ref[_Node]"] = {}


def _pair(zero: Node, one: Node) -> Node:
    if zero is one and (zero is True or zero is False):
        return zero
    key = (id(zero), id(one))
    ref = _UNIQUE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = _Node(zero, one)
    _UNIQUE[key] = weakref.ref(node, functools.partial(_forget, key))
    return node


def _forget(key: Tuple[int, int], dead: "weakref.ref[_Node]") -> None:
    if _UNIQUE.get(key) is dead:
        del _UNIQUE[key]


def _chain(bits: str) -> Node:
    """The trie of the one cylinder at `bits`."""
    node: Node = True
    for c in reversed(bits):
        node = _pair(False, node) if c == "1" else _pair(node, False)
    return node


def _build(generators: Set[str]) -> Node:
    """The trie of the union of the cylinders at the given bit strings."""
    # Sorted, a string comes right before its extensions; keep the antichain.
    keys: List[str] = []
    for g in sorted(generators):
        if not keys or not g.startswith(keys[-1]):
            keys.append(g)
    if not keys:
        return False
    out: List[Node] = []
    # Entries (lo, hi, depth, join): keys[lo:hi] share their first `depth`
    # bits; join pairs the two results their halves left on `out`.
    todo = [(0, len(keys), 0, False)]
    while todo:
        lo, hi, depth, join = todo.pop()
        if join:
            one = out.pop()
            out.append(_pair(out.pop(), one))
        elif lo == hi:
            out.append(False)
        elif lo + 1 == hi:
            out.append(_chain(keys[lo][depth:]))
        else:
            mid = bisect.bisect_left(keys, keys[lo][:depth] + "1", lo, hi)
            todo.append((lo, hi, depth, True))
            todo.append((mid, hi, depth + 1, False))
            todo.append((lo, mid, depth + 1, False))
    return out[0]


def _apply(leaf: Callable[[Node, Node], Optional[Node]], a: Node, b: Node) -> Node:
    """Memoized apply (Bryant): leaf(a, b) settles a pair of nodes or returns
    None to split both by their first bit.  Each distinct pair is split once,
    and the memo lives for this one operation."""
    done = leaf(a, b)
    if done is not None:
        return done
    memo: Dict[Tuple[Node, Node], Node] = {}
    out: List[Node] = []
    # Entries are (a, b, False) to settle a pair and (a, b, True) to join the
    # two results its halves left on `out`.
    todo = [(a, b, False)]
    while todo:
        a, b, join = todo.pop()
        if join:
            one = out.pop()
            node = memo[a, b] = _pair(out.pop(), one)
            out.append(node)
            continue
        done = leaf(a, b)
        if done is None:
            done = memo.get((a, b))
            if done is None:
                todo.append((a, b, True))
                if a is True:  # full minus a node: both halves are full
                    todo.append((True, b.one, False))
                    todo.append((True, b.zero, False))
                else:
                    todo.append((a.one, b.one, False))
                    todo.append((a.zero, b.zero, False))
                continue
        out.append(done)
    return out[0]


def _union_leaf(a: Node, b: Node) -> Optional[Node]:
    if a is True or b is True:
        return True
    if a is False or a is b:
        return b
    if b is False:
        return a
    return None


def _inter_leaf(a: Node, b: Node) -> Optional[Node]:
    if a is False or b is False:
        return False
    if a is True or a is b:
        return b
    if b is True:
        return a
    return None


def _diff_leaf(a: Node, b: Node) -> Optional[Node]:
    if a is False or b is True or a is b:
        return False
    if b is False:
        return a
    return None


def _collect(root: Node) -> List[str]:
    """The generators below `root`, as bits, in lexicographic order."""
    out: List[str] = []
    path: List[str] = []
    # (node, its depth, the bit that leads to it); path[:depth] spells it.
    stack = [(root, 0, "")]
    while stack:
        node, depth, bit = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(bit)
        if node is True:
            out.append("".join(path))
        elif node is not False:
            stack.append((node.one, depth + 1, "1"))
            stack.append((node.zero, depth + 1, "0"))
    return out


_NEVER = 1 << 63  # deeper than any trie: a leaf's reach toward the kind it is not
_FULL_FACTS = (1, 0, _NEVER, 0)
_EMPTY_FACTS = (0, 0, 0, _NEVER)


def _measure(root: _Node) -> Tuple[int, int, int, int]:
    """What `root` keeps: its measure as (num, exp), num / 2^exp in lowest
    terms, then its reach, the depths of its nearest empty and its nearest
    full subtree (an interior node has both, at depth 1 or more).

    Each node keeps these once computed, so a walk visits only the nodes no
    earlier walk measured.  Nodes keep integers, not a `Dyadic`, so a
    measure makes one `Dyadic` however many nodes earlier sets measured.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        if node.measure is not None:  # pushed twice before it was measured
            stack.pop()
            continue
        zero, one = node.zero, node.one
        m0 = _FULL_FACTS if zero is True else _EMPTY_FACTS if zero is False else zero.measure
        m1 = _FULL_FACTS if one is True else _EMPTY_FACTS if one is False else one.measure
        if m0 is None or m1 is None:
            if m0 is None:
                stack.append(zero)
            if m1 is None:
                stack.append(one)
            continue
        stack.pop()
        # (m0 + m1) / 2 in lowest terms; below an interior node it is positive.
        (n0, e0, v0, f0), (n1, e1, v1, f1) = m0, m1
        e = e0 if e0 > e1 else e1
        num = (n0 << (e - e0)) + (n1 << (e - e1))
        shift = min((num & -num).bit_length() - 1, e + 1)
        node.measure = (num >> shift, e + 1 - shift, min(v0, v1) + 1, min(f0, f1) + 1)
    return root.measure


def _facts(node: Node) -> Tuple[int, int, int, int]:
    """What any node keeps, leaves included; an interior one is measured
    first if no walk has measured it yet."""
    return _FULL_FACTS if node is True else _EMPTY_FACTS if node is False else node.measure or _measure(node)


def _descend(node: Node, bits: str) -> Node:
    """Subtree at a path; True absorbs (a full set stays full below)."""
    for c in bits:
        if node is True or node is False:
            return node
        node = node.one if c == "1" else node.zero
    return node


def _extreme(node: Node, length: int, side: int, kind: bool) -> str:
    """The leftmost (`side` 0) or rightmost (1) path of `length` bits below
    `node` into a subtree of `kind` (True full, False empty), run on along
    that side past it.  `node` must reach that kind within `length` bits:
    each step takes `side` while the child there still does."""
    at = 3 if kind else 2
    path: List[str] = []
    while node is not kind:
        halves = (node.zero, node.one)
        bit = side if _facts(halves[side])[at] < length - len(path) else 1 - side
        path.append("01"[bit])
        node = halves[bit]
    return "".join(path) + "01"[side] * (length - len(path))


def _fork(root: Node) -> Tuple[BitString, BitString]:
    """The leftmost and rightmost paths into empty subtrees at the least
    length with two: the nearest empty depth, or one past it, where its one
    empty subtree splits in two.  Any node but a full one has that length."""
    depth = _facts(root)[2]
    for length in (depth, depth + 1):
        left, right = _extreme(root, length, 0, False), _extreme(root, length, 1, False)
        if left != right:
            return BitString(left), BitString(right)


_EMPTY_FORK = _fork(False)  # both halves of the root


class CylinderSet:
    """A clopen set, canonically presented.  Instances are immutable."""

    __slots__ = ("_tree",)

    def __init__(self, tree: Node = False) -> None:
        self._tree = tree

    @staticmethod
    def normalize(generators: Iterable[Union[BitString, str]]) -> "CylinderSet":
        """Canonical form of the union of the given cylinders."""
        return CylinderSet(_build({BitString(g).bits for g in generators}))

    @staticmethod
    def cylinder(s: Union[BitString, str]) -> "CylinderSet":
        return CylinderSet.normalize([s])

    @property
    def strings(self) -> Tuple[BitString, ...]:
        """The canonical antichain, in lexicographic order.

        Extracted afresh on each read, in time linear in the trie, so the
        many intermediate sets whose strings nobody reads never pay for it."""
        return tuple(map(BitString, self.bits))

    @property
    def bits(self) -> List[str]:
        """The bits of `strings`, in the same order ("" for the empty string)."""
        return _collect(self._tree)

    def is_empty(self) -> bool:
        return self._tree is False

    def is_full(self) -> bool:
        return self._tree is True

    def measure(self) -> Dyadic:
        return Dyadic(*_facts(self._tree)[:2])

    def __or__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_apply(_union_leaf, self._tree, other._tree))

    def __and__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_apply(_inter_leaf, self._tree, other._tree))

    def __sub__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_apply(_diff_leaf, self._tree, other._tree))

    def complement(self) -> "CylinderSet":
        return CylinderSet(_apply(_diff_leaf, True, self._tree))

    def is_subset(self, other: "CylinderSet") -> bool:
        return _apply(_diff_leaf, self._tree, other._tree) is False

    def intersects(self, other: "CylinderSet") -> bool:
        return _apply(_inter_leaf, self._tree, other._tree) is not False

    def contains_prefix_of(self, x: Union[BitString, str]) -> bool:
        """Does some generator sit on (a prefix of) the path `x`?

        Exact membership test for any point extending `x` when the antichain
        is at most |x| deep; in general it reports whether [x] is swallowed.
        """
        return _descend(self._tree, BitString(x).bits) is True

    def meets_cylinder(self, s: Union[BitString, str]) -> bool:
        """Exact nonemptiness of the intersection with [s]."""
        return _descend(self._tree, BitString(s).bits) is not False

    def shift(self, eta: Union[BitString, str]) -> "CylinderSet":
        """The set {Z : eta . Z in self}."""
        return CylinderSet(_descend(self._tree, BitString(eta).bits))

    def least_generator(self) -> Optional[BitString]:
        """The length-lex least generator, None for the empty set: the
        leftmost path to a nearest full subtree, one descent by the kept
        reach, so the antichain (2^k strings for a k-fold shared trie) is
        never read."""
        tree = self._tree
        return None if tree is False else BitString(_extreme(tree, _facts(tree)[3], 0, True))

    def fork(self) -> Optional[Tuple[BitString, BitString]]:
        """The lex-least and lex-greatest strings whose cylinders miss the
        set, at the least length that has two; None for the full set.  The
        root keeps it for its life, shared by every set that reaches it."""
        tree = self._tree
        if tree is True or tree is False:
            return None if tree else _EMPTY_FORK
        if tree.fork is None:
            tree.fork = _fork(tree)
        return tree.fork

    def disjoint_extension(self, sigma: BitString, length: int, rightmost: bool = False) -> Optional[BitString]:
        """Lex-least (or, with `rightmost`, lex-greatest) extension of sigma
        at `length` whose cylinder misses the set; None when there is none."""
        span = length - len(sigma)
        if span < 0:
            raise ValueError(f"extension length {length} is shorter than {sigma}")
        node = _descend(self._tree, sigma.bits)
        if _facts(node)[2] > span:
            return None
        return sigma + BitString(_extreme(node, span, int(rightmost), False))

    def __eq__(self, other: object) -> bool:
        # Interned tries: equal sets have the very same root.
        return isinstance(other, CylinderSet) and self._tree is other._tree

    def __hash__(self) -> int:
        tree = self._tree
        return hash(tree) if tree is True or tree is False else tree.hash

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.strings)

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in sorted(self.strings))
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"CylinderSet.normalize({[str(s) for s in self.strings]!r})"


EMPTY_SET = CylinderSet(False)
FULL_SET = CylinderSet(True)


def intervals_set(width: int, ranges: Sequence[Tuple[int, int, CylinderSet]]) -> CylinderSet:
    """All sequences whose first `width` bits, read as a binary number, lie
    in one of the sorted, disjoint ranges lo..hi, followed by a sequence in
    that range's tail.

    Built up from the last of the `width` bits.  After k of them, a block of
    2^k values inside one range is that range's tail behind k free bits, a
    block inside no range is empty, and only the blocks that a range's end
    cuts need a node of their own: at most two per range a bit.  So the trie
    has O(width * len(ranges)) nodes above the tails whatever the ranges
    hold.  Ranges sharing a tail share its padded copies, and adjacent ones
    are not cut apart.
    """
    # The values where what follows changes (a range's tail, or nothing
    # between ranges): a block with one of them strictly inside is cut, so
    # adjacent ranges with one tail read as one.
    cuts: List[int] = []
    end, follows = 0, False  # the value after the ranges so far, and its tail
    for lo, hi, tail in ranges:
        if width < 0 or not 0 <= lo <= hi < 1 << width:
            raise ValueError(f"range {lo}..{hi} does not fit in {width} bits")
        if lo < end:
            raise ValueError(f"range {lo}..{hi} is not after the range before it, which ends at {end - 1}")
        if lo > end:
            if follows is not False:
                cuts.append(end)
            follows = False
        if tail._tree is not follows:
            if lo:
                cuts.append(lo)
            follows = tail._tree
        end = hi + 1
    if width < 0:
        raise ValueError(f"width {width} is negative")
    if follows is not False and end < 1 << width:
        cuts.append(end)
    los = [lo for lo, _, _ in ranges]
    # Tail node -> that tail behind 0, 1, 2, ... free bits, as far as asked.
    padded: Dict[Node, List[Node]] = {}

    def block(a: int, k: int, cut: Dict[int, Node]) -> Node:
        """The node of block a (values a * 2^k up to the next block) after k bits."""
        node = cut.get(a)
        if node is not None:
            return node
        v = a << k
        r = bisect.bisect_right(los, v) - 1
        if r < 0 or ranges[r][1] < v:
            return False
        tail = ranges[r][2]._tree
        chain = padded.setdefault(tail, [tail])
        while len(chain) <= k:
            chain.append(_pair(chain[-1], chain[-1]))
        return chain[k]

    cut: Dict[int, Node] = {}
    for k in range(width):
        above: Dict[int, Node] = {}
        for v in cuts:
            if v & ((2 << k) - 1):
                a = v >> (k + 1)
                if a not in above:
                    above[a] = _pair(block(2 * a, k, cut), block(2 * a + 1, k, cut))
        cut = above
    return CylinderSet(block(0, width, cut))


def uniform_suffix_set(pattern: Union[BitString, str], position: int) -> CylinderSet:
    """All sequences carrying `pattern` right after `position` free bits.

    The trie has O(position + |pattern|) nodes (`intervals_set`), so boolean
    algebra, shifting, membership, and measure stay cheap.  Reading .strings
    off the result still expands all 2^position generators; avoid that for
    large offsets.
    """
    if position < 0:
        raise ValueError("suffix position must be nonnegative")
    return intervals_set(position, [(0, (1 << position) - 1, CylinderSet.cylinder(pattern))])
