"""Clopen subsets of Cantor space presented by canonical generator antichains.

A set is stored as a binary decision trie: True for a full subtree, False
for an empty one, a (zero, one) pair otherwise.  The trie makes union,
intersection, difference, complement, shifting, and exact measure all cheap
structural recursions, so no operation ever enumerates points.  The
canonical antichain (no generator a prefix of another, no sibling pair
s0/s1 left unmerged) is read off the trie on demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .bitstring import EMPTY, BitString
from .dyadic import Dyadic

# Trie node: True (full), False (empty), or (zero_child, one_child).
Node = Union[bool, tuple]


def _pair(zero: Node, one: Node) -> Node:
    if zero is True and one is True:
        return True
    if zero is False and one is False:
        return False
    return (zero, one)


def _insert(node: Node, bits: str, i: int) -> Node:
    if node is True:
        return True
    if i == len(bits):
        return True
    zero, one = node if isinstance(node, tuple) else (False, False)
    if bits[i] == "0":
        zero = _insert(zero, bits, i + 1)
    else:
        one = _insert(one, bits, i + 1)
    return _pair(zero, one)


def _union(a: Node, b: Node) -> Node:
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return _pair(_union(a[0], b[0]), _union(a[1], b[1]))


def _inter(a: Node, b: Node) -> Node:
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return _pair(_inter(a[0], b[0]), _inter(a[1], b[1]))


def _diff(a: Node, b: Node) -> Node:
    if a is False or b is True:
        return False
    if b is False:
        return a
    if a is True:
        return _pair(_diff(True, b[0]), _diff(True, b[1]))
    return _pair(_diff(a[0], b[0]), _diff(a[1], b[1]))


def _collect(node: Node, prefix: List[str], out: List[BitString]) -> None:
    if node is False:
        return
    if node is True:
        out.append(BitString("".join(prefix)))
        return
    prefix.append("0")
    _collect(node[0], prefix, out)
    prefix[-1] = "1"
    _collect(node[1], prefix, out)
    prefix.pop()


def _measure(node: Node, memo: Optional[Dict[int, Dyadic]] = None) -> Dyadic:
    if node is True:
        return Dyadic(1)
    if node is False:
        return Dyadic(0)
    # Tries built by uniform_suffix_set share subtrees; memoizing by id keeps
    # the walk linear in distinct nodes.  Ids stay valid because the caller's
    # root holds every reachable node alive for the duration.
    if memo is None:
        memo = {}
    got = memo.get(id(node))
    if got is None:
        got = Dyadic(1, 1) * (_measure(node[0], memo) + _measure(node[1], memo))
        memo[id(node)] = got
    return got


def _descend(node: Node, bits: str) -> Node:
    """Subtree at a path; True absorbs (a full set stays full below)."""
    for c in bits:
        if node is True:
            return True
        if node is False:
            return False
        node = node[c == "1"]
    return node


class CylinderSet:
    """A clopen set, canonically presented.  Instances are immutable."""

    __slots__ = ("_tree", "_strings")

    def __init__(self, tree: Node = False) -> None:
        self._tree = tree
        # Antichain extraction is linear in the trie; skip it for the many
        # intermediate sets whose strings nobody reads.
        self._strings: Optional[Tuple[BitString, ...]] = None

    @staticmethod
    def normalize(generators: Iterable[Union[BitString, str]]) -> "CylinderSet":
        """Canonical form of the union of the given cylinders."""
        tree: Node = False
        for g in generators:
            tree = _insert(tree, BitString(g).bits, 0)
        return CylinderSet(tree)

    @staticmethod
    def cylinder(s: Union[BitString, str]) -> "CylinderSet":
        return CylinderSet.normalize([s])

    @property
    def strings(self) -> Tuple[BitString, ...]:
        """The canonical antichain, in lexicographic order."""
        if self._strings is None:
            out: List[BitString] = []
            _collect(self._tree, [], out)
            self._strings = tuple(out)
        return self._strings

    def is_empty(self) -> bool:
        return self._tree is False

    def is_full(self) -> bool:
        return self._tree is True

    def measure(self) -> Dyadic:
        return _measure(self._tree)

    def conditional_measure(self, s: Union[BitString, str]) -> Dyadic:
        """Measure of the set relative to the cylinder at `s`."""
        return _measure(_descend(self._tree, BitString(s).bits))

    def __or__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_union(self._tree, other._tree))

    def __and__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_inter(self._tree, other._tree))

    def __sub__(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(_diff(self._tree, other._tree))

    def complement(self) -> "CylinderSet":
        return CylinderSet(_diff(True, self._tree))

    def is_subset(self, other: "CylinderSet") -> bool:
        return _diff(self._tree, other._tree) is False

    def intersects(self, other: "CylinderSet") -> bool:
        return _inter(self._tree, other._tree) is not False

    def contains_prefix_of(self, x: Union[BitString, str]) -> bool:
        """Does some generator sit on (a prefix of) the path `x`?

        Exact membership test for any point extending `x` when the antichain
        is at most |x| deep; in general it reports whether [x] is swallowed.
        """
        node = self._tree
        for c in BitString(x).bits:
            if node is True:
                return True
            if node is False:
                return False
            node = node[c == "1"]
        return node is True

    def meets_cylinder(self, s: Union[BitString, str]) -> bool:
        """Exact nonemptiness of the intersection with [s]."""
        return _descend(self._tree, BitString(s).bits) is not False

    def shift(self, eta: Union[BitString, str]) -> "CylinderSet":
        """The set {Z : eta . Z in self}."""
        return CylinderSet(_descend(self._tree, BitString(eta).bits))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CylinderSet) and self._tree == other._tree

    def __hash__(self) -> int:
        return hash(self._tree)

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.strings)

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in sorted(self.strings))
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"CylinderSet.normalize({[str(s) for s in self.strings]!r})"


EMPTY_SET = CylinderSet(False)
FULL_SET = CylinderSet(True)


def uniform_suffix_set(pattern: Union[BitString, str], position: int) -> CylinderSet:
    """All sequences carrying `pattern` right after `position` free bits.

    Both branches at each free level share one subtree, so the trie has
    O(position + |pattern|) nodes and boolean algebra, shifting, membership,
    and measure stay cheap.  Reading .strings off the result still expands
    all 2^position generators; avoid that for large offsets.
    """
    if position < 0:
        raise ValueError("suffix position must be nonnegative")
    node: Node = True
    for c in reversed(BitString(pattern).bits):
        node = (False, node) if c == "1" else (node, False)
    for _ in range(position):
        node = _pair(node, node)
    return CylinderSet(node)


def brute_measure(strings: Iterable[BitString], depth: int) -> Dyadic:
    """Reference measure by enumerating all points at `depth`.

    Deliberately naive; unit tests use it as an independent check against
    the trie arithmetic.  Every generator must be at most `depth` long.
    """
    gens = [BitString(s) for s in strings]
    if any(len(g) > depth for g in gens):
        raise ValueError("brute_measure needs depth >= generator lengths")
    count = 0
    for leaf in BitString.all_strings(depth):
        if any(g.is_prefix_of(leaf) for g in gens):
            count += 1
    return Dyadic(count, depth)
