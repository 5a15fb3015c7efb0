"""Rooted binary plane trees.

Every vertex has outdegree two or zero, the two children of a vertex are
ordered (left, right), and the leaves are therefore totally ordered left to
right; a tree with n leaves has exactly n - 1 internal vertices. Trees are
immutable values: constructors return fresh objects and may share subtree
objects freely (value semantics), which keeps perfect trees and iterated
substitutions cheap to represent.

Text form is a Newick-like grammar without the trailing semicolon:

    TREE := LEAF | "(" TREE "," TREE ")"
    LEAF := label | <empty>

where a label is any nonempty text without "(", ")" or ",". Whitespace
around tokens is ignored on parse and never emitted on serialization.
"""

from __future__ import annotations

import functools
import math

from .errors import ParseError
from .limits import check_enumeration, check_leaves

_SPECIAL = {ord("("), ord(")"), ord(",")}
_WS = {ord(" "), ord("\t"), ord("\r"), ord("\n")}


class PlaneTree:
    """A leaf or an internal vertex with ordered (left, right) children.

    Do not mutate instances; every operation in this package treats them as
    values. ``leaf_count``, ``height`` and the hash are fixed at construction.
    """

    __slots__ = ("left", "right", "label", "leaf_count", "height", "_hash")

    def __init__(self, left: PlaneTree | None, right: PlaneTree | None, label: str | None):
        self.left = left
        self.right = right
        self.label = label
        if left is None:
            self.leaf_count = 1
            self.height = 0
            self._hash = hash(("leaf", label))
        elif right is None:
            raise ValueError("an internal vertex needs both children")
        else:
            self.leaf_count = left.leaf_count + right.leaf_count
            self.height = 1 + max(left.height, right.height)
            self._hash = hash(("node", left._hash, right._hash, left.leaf_count))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Structural equality, labels included (use iso() to ignore labels)."""
        if self is other:
            return True
        if not isinstance(other, PlaneTree):
            return NotImplemented
        if self._hash != other._hash or self.leaf_count != other.leaf_count:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.is_leaf != b.is_leaf:
                return False
            if a.is_leaf:
                if a.label != b.label:
                    return False
            else:
                stack.append((a.left, b.left))
                stack.append((a.right, b.right))
        return True

    def __repr__(self) -> str:
        if self.leaf_count > 64:
            return f"PlaneTree(leaves={self.leaf_count}, height={self.height})"
        return f"PlaneTree({to_newick(self)!r})"

    def __str__(self) -> str:
        return to_newick(self)


def leaf(label: str | None = None) -> PlaneTree:
    """A single leaf, optionally labeled (labels may not contain '(' ')' ',')."""
    if label is not None:
        if not isinstance(label, str) or label == "":
            raise ValueError("leaf label must be a nonempty string or None")
        if any(ch in label for ch in "(),"):
            raise ValueError(f"leaf label may not contain '(' ')' ',': {label!r}")
        if label.strip() != label:
            raise ValueError(f"leaf label may not have surrounding whitespace: {label!r}")
    return PlaneTree(None, None, label)


def node(left: PlaneTree, right: PlaneTree) -> PlaneTree:
    """Join two trees under a fresh root (guarded by the global leaf cap)."""
    if not isinstance(left, PlaneTree) or not isinstance(right, PlaneTree):
        raise TypeError("node() children must be PlaneTree instances")
    check_leaves(left.leaf_count + right.leaf_count)
    return PlaneTree(left, right, None)


def parse_newick(text: str) -> PlaneTree:
    """Parse the Newick-like text form; errors carry token and byte offset."""
    data = text.encode("utf-8")
    n = len(data)
    i = 0

    def skip_ws(i: int) -> int:
        while i < n and data[i] in _WS:
            i += 1
        return i

    # Explicit parse stack: None marks an open "(" whose left child is still
    # being read; a PlaneTree is a finished left child awaiting ")".
    stack: list[PlaneTree | None] = []
    cur: PlaneTree | None = None
    while True:
        # read one TREE starting at i
        i = skip_ws(i)
        if i < n and data[i] == ord("("):
            stack.append(None)
            i += 1
            continue
        start = i
        while i < n and data[i] not in _SPECIAL:
            i += 1
        raw = data[start:i].decode("utf-8").strip()
        cur = leaf(raw or None)
        # fold the finished subtree into the stack
        while True:
            i = skip_ws(i)
            if not stack:
                if i < n:
                    raise ParseError("trailing input after tree", chr(data[i]), i)
                return cur
            top = stack[-1]
            if top is None:
                if i >= n:
                    raise ParseError("unexpected end of input, expected ','", "end of input", i)
                if data[i] != ord(","):
                    raise ParseError("expected ','", chr(data[i]), i)
                stack[-1] = cur
                i += 1
                break  # go parse the right child
            if i >= n:
                raise ParseError("unexpected end of input, expected ')'", "end of input", i)
            if data[i] != ord(")"):
                raise ParseError("expected ')'", chr(data[i]), i)
            stack.pop()
            cur = node(top, cur)
            i += 1


def to_newick(t: PlaneTree) -> str:
    """Serialize; anonymous leaves render as empty labels, e.g. '(,)'."""
    out: list[str] = []
    stack: list[PlaneTree | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            if item.label is not None:
                out.append(item.label)
        else:
            stack.extend((")", item.right, ",", item.left, "("))
    return "".join(out)


def shape_key(t: PlaneTree) -> str:
    """Canonical label-free text form; equal keys are exactly the iso classes."""
    out: list[str] = []
    stack: list[PlaneTree | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item.is_leaf:
            stack.extend((")", item.right, ",", item.left, "("))
    return "".join(out)


def iso(a: PlaneTree, b: PlaneTree) -> bool:
    """Plane isomorphism: same ordered shape, labels ignored."""
    if a.leaf_count != b.leaf_count or a.height != b.height:
        return False
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.is_leaf != y.is_leaf:
            return False
        if not x.is_leaf:
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


def perfect_tree(c: int) -> PlaneTree:
    """The complete tree of height c: 2**c leaves, every leaf at depth c."""
    if c < 0:
        raise ValueError(f"height must be >= 0, got {c}")
    check_leaves(1 << c)
    t = leaf()
    for _ in range(c):
        t = node(t, t)
    return t


def substitute(g: PlaneTree, h: PlaneTree) -> PlaneTree:
    """Replace every leaf of g by a copy of h (leaf counts multiply)."""
    check_leaves(g.leaf_count * h.leaf_count)
    if g.is_leaf:
        return h
    done: dict[int, PlaneTree] = {}
    stack = [g]
    while stack:
        v = stack[-1]
        if id(v) in done:
            stack.pop()
            continue
        if v.is_leaf:
            done[id(v)] = h
            stack.pop()
            continue
        ready = True
        for child in (v.left, v.right):
            if id(child) not in done:
                stack.append(child)
                ready = False
        if ready:
            done[id(v)] = node(done[id(v.left)], done[id(v.right)])
            stack.pop()
    return done[id(g)]


def iterate(h: PlaneTree, i: int) -> PlaneTree:
    """Iterated substitution: iterate(h, 1) = h, iterate(h, i+1) = substitute(h, iterate(h, i))."""
    if i < 1:
        raise ValueError(f"iteration count must be >= 1, got {i}")
    t = h
    for _ in range(i - 1):
        t = substitute(h, t)
    return t


def catalan(m: int) -> int:
    """Number of plane binary trees with m + 1 leaves."""
    if m < 0:
        raise ValueError(f"catalan index must be >= 0, got {m}")
    return math.comb(2 * m, m) // (m + 1)


@functools.cache
def _all_trees(n: int) -> tuple[PlaneTree, ...]:
    if n == 1:
        return (leaf(),)
    out: list[PlaneTree] = []
    for i in range(1, n):
        for lt in _all_trees(i):
            for rt in _all_trees(n - i):
                out.append(node(lt, rt))
    return tuple(out)


def all_trees(n: int) -> tuple[PlaneTree, ...]:
    """All plane binary trees with exactly n anonymous leaves (Catalan many)."""
    if n < 1:
        raise ValueError(f"leaf count must be >= 1, got {n}")
    check_leaves(n)
    check_enumeration(catalan(n - 1))
    return _all_trees(n)
