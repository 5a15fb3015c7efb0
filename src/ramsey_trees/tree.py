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

where a label is any nonempty text without "(", ")" or ",". ASCII space,
tab, CR and LF around tokens are ignored on parse and never emitted on
serialization; any other whitespace there is an error, also around a label,
as leaf() rejects such a label. An error names the whole character, or the
label, at its byte offset.

Text I/O keeps the sharing the text shows. Parsing makes all anonymous
leaves one object, and a vertex whose right child's text repeats its
internal left child's byte for byte, directly followed by ")", gets that
child object twice without reading the repeat. Parsing takes Python steps
linear in the text at worst, and O(height) steps on a perfect tree's text,
which comes back as height + 1 objects. Each repeat test is one comparison
in C of at most the left child's text, so all of them together read at
most height + 1 times the text's length in bytes. Printing writes the text
of a vertex whose children are one object once and copies it, so a perfect
tree also prints in O(height) steps.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .limits import _require_int, check_enumeration, check_leaves

_OPEN, _CLOSE, _COMMA = b"(),"
_WS = b" \t\r\n"
_next_special = re.compile(rb"[(),]").search
_skip_ws = re.compile(rb"[ \t\r\n]*").match


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
        return _same(self, other, True)

    def __reduce__(self):
        # A flat table of the distinct vertices, so that pickling and
        # deep-copying do not recurse once per level and shared subtrees
        # stay shared; rebuilt through the constructor, so the hash is this
        # process's.
        return _from_rows, (_rows(self),)

    def __repr__(self) -> str:
        if self.leaf_count > 64:
            return f"PlaneTree(leaves={self.leaf_count}, height={self.height})"
        return f"PlaneTree({to_newick(self)!r})"

    def __str__(self) -> str:
        return to_newick(self)


def _postorder(t: PlaneTree):
    """Each distinct vertex object of t once, both children before their
    parent and the right child's vertices before its left sibling's.

    The walk keeps an explicit stack, so no recursion grows with depth, and
    a vertex met again through a shared subtree is not walked again. It
    tells vertices apart by id(), which is sound while t stays alive. The
    order fixes the node counts and witnesses of arrows' leaf-pattern DP.
    """
    done: set[int] = set()
    stack: list[PlaneTree | None] = [t]
    while stack:
        v = stack.pop()
        if v is None:  # next on the stack is a vertex whose children are done
            v = stack.pop()
        elif id(v) in done:
            continue
        elif v.left is not None:
            stack += (v, None, v.left, v.right)
            continue
        done.add(id(v))
        yield v


def _rows(t: PlaneTree) -> list:
    """One row per distinct vertex object of t, in _postorder: a leaf's
    label, or the row numbers of an internal vertex's (left, right)."""
    row: dict[int, int] = {}
    rows: list = []
    for v in _postorder(t):
        row[id(v)] = len(rows)
        rows.append(v.label if v.left is None else (row[id(v.left)], row[id(v.right)]))
    return rows


def _from_rows(rows: list) -> PlaneTree:
    """The tree whose _rows are rows: its root is the last row. Any
    post-order table loads, whichever child's rows come first."""
    built: list[PlaneTree] = []
    for r in rows:
        if type(r) is tuple:
            built.append(PlaneTree(built[r[0]], built[r[1]], None))
        else:
            built.append(PlaneTree(None, None, r))
    return built[-1]


def _check_label(what: str, label: str) -> None:
    """Raise ValueError unless label is a nonempty str without '(' ')' ','
    or surrounding whitespace; what names it in the message."""
    if not isinstance(label, str) or label == "":
        raise ValueError(f"{what} must be a nonempty string, got {label!r}")
    if any(ch in label for ch in "(),"):
        raise ValueError(f"{what} may not contain '(' ')' ',': {label!r}")
    if label.strip() != label:
        raise ValueError(f"{what} may not have surrounding whitespace: {label!r}")


def leaf(label: str | None = None) -> PlaneTree:
    """A single leaf, optionally labeled (labels may not contain '(' ')' ',')."""
    if label is not None:
        _check_label("leaf label", label)
    return PlaneTree(None, None, label)


def node(left: PlaneTree, right: PlaneTree) -> PlaneTree:
    """Join two trees under a fresh root (guarded by the global leaf cap)."""
    if not isinstance(left, PlaneTree) or not isinstance(right, PlaneTree):
        raise TypeError("node() children must be PlaneTree instances")
    check_leaves(left.leaf_count + right.leaf_count)
    return PlaneTree(left, right, None)


def parse_newick(text: str) -> PlaneTree:
    """Parse the Newick-like text form; errors carry token and byte offset.

    All anonymous leaves are one object. A vertex whose right child's text
    is byte for byte its left child's, an internal vertex's, followed
    directly by ")", gets the left child object twice, and that text is
    not read again.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate, as from undecodable bytes
        at = len(text[: e.start].encode("utf-8"))
        raise ParseError("character not encodable as UTF-8", text[e.start], at) from None
    view = memoryview(data)
    n = len(data)
    anon = PlaneTree(None, None, None)
    # One frame per open "(": its offset in opens, and in lefts None while
    # its left child is being read, then that finished child.
    opens: list[int] = []
    lefts: list[PlaneTree | None] = []
    i = 0
    while True:
        # read one TREE starting at i
        c = data[i] if i < n else None
        if c == _OPEN:
            opens.append(i)
            lefts.append(None)
            i += 1
            continue
        if c == _COMMA or c == _CLOSE:
            cur = anon
        else:
            m = _next_special(data, i)
            end = m.start() if m else n
            if end < n and data[end] == _OPEN and not data[i:end].strip(_WS):
                i = end  # whitespace before "("
                continue
            raw = data[i:end].strip(_WS)
            label = raw.decode("utf-8")
            if label.strip() != label:
                at = data.index(raw, i)
                raise ParseError("leaf label may not have surrounding whitespace", label, at)
            cur = PlaneTree(None, None, label) if label else anon
            i = end
        # fold the finished subtree into the stack; an internal cur spans
        # data[cur_start:cur_end]
        while True:
            if i < n and data[i] in _WS:
                i = _skip_ws(data, i).end()
            if not opens:
                if i < n:
                    raise ParseError("trailing input after tree", _char_at(data, i), i)
                return cur
            left = lefts[-1]
            if left is None:
                if i >= n:
                    raise ParseError("unexpected end of input, expected ','", "end of input", i)
                if data[i] != _COMMA:
                    raise ParseError("expected ','", _char_at(data, i), i)
                i += 1
                if cur.left is not None:
                    # A right child with cur's exact bytes parses to a tree
                    # equal to cur; startswith on a view compares without a copy.
                    j = _skip_ws(data, i).end()
                    e = j + cur_end - cur_start
                    if e < n and data[e] == _CLOSE and data.startswith(view[cur_start:cur_end], j):
                        check_leaves(2 * cur.leaf_count)
                        cur = PlaneTree(cur, cur, None)
                        cur_start = opens.pop()
                        lefts.pop()
                        i = cur_end = e + 1
                        continue
                lefts[-1] = cur
                break  # go parse the right child
            if i >= n:
                raise ParseError("unexpected end of input, expected ')'", "end of input", i)
            if data[i] != _CLOSE:
                raise ParseError("expected ')'", _char_at(data, i), i)
            check_leaves(left.leaf_count + cur.leaf_count)
            cur = PlaneTree(left, cur, None)
            cur_start = opens.pop()
            lefts.pop()
            i = cur_end = i + 1


def _char_at(data: bytes, i: int) -> str:
    """The character whose UTF-8 encoding starts at byte i of data."""
    return data[i : i + 4].decode("utf-8", "ignore")[0]


def _write(t: PlaneTree, labels: bool) -> str:
    """Text of t, leaf labels written iff labels; a vertex whose children
    are one object writes that child's text once and copies it."""
    out: list[str] = []
    append = out.append
    stack: list[PlaneTree | str | int] = [t]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            append(item)
        elif kind is int:
            # out[item:-1] is the left child's text, out[-1] the ","
            append("".join(out[item:-1]))
        elif item.left is None:
            if labels and item.label is not None:
                append(item.label)
        else:
            append("(")
            right = len(out) if item.right is item.left else item.right
            stack += (")", right, ",", item.left)
    return "".join(out)


def to_newick(t: PlaneTree) -> str:
    """Serialize; anonymous leaves render as empty labels, e.g. '(,)'."""
    return _write(t, True)


def shape_key(t: PlaneTree) -> str:
    """Canonical label-free text form; equal keys are exactly the iso classes."""
    return _write(t, False)


def leaf_labels(t: PlaneTree) -> list[str | None]:
    """Labels of the leaves of t in left-to-right order."""
    labels: list[str | None] = []
    stack = [t]
    while stack:
        v = stack.pop()
        if v.is_leaf:
            labels.append(v.label)
        else:
            stack.extend((v.right, v.left))
    return labels


def _same(a: PlaneTree, b: PlaneTree, labels: bool) -> bool:
    """a and b have the same ordered shape and, if labels, the same leaf labels.

    Each pair of internal vertex objects is compared once: a pair met again
    through shared subtrees is skipped, so the time is linear in the
    distinct pairs met, and two perfect or iterated trees built apart
    compare in O(height). The pair is keyed by object identity, which is
    sound as both trees stay alive for the whole call.
    """
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.left is None or y.left is None:
            if x.left is not y.left or labels and x.label != y.label:
                return False
            continue
        pair = (id(x), id(y))
        if pair not in seen:
            seen.add(pair)
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


def iso(a: PlaneTree, b: PlaneTree) -> bool:
    """Plane isomorphism: same ordered shape, labels ignored."""
    if a.leaf_count != b.leaf_count or a.height != b.height:
        return False
    return _same(a, b, False)


def perfect_tree(c: int) -> PlaneTree:
    """The complete tree of height c: 2**c leaves, every leaf at depth c."""
    _require_int("height", c, 0)
    check_leaves(1 << c)
    t = leaf()
    for _ in range(c):
        t = node(t, t)
    return t


def substitute(g: PlaneTree, h: PlaneTree) -> PlaneTree:
    """Replace every leaf of g by a copy of h (leaf counts multiply).

    One vertex is built per distinct internal vertex object of g, in
    _postorder, so the result shares h and whatever g shares.
    """
    check_leaves(g.leaf_count * h.leaf_count)
    done: dict[int, PlaneTree] = {}
    for v in _postorder(g):
        done[id(v)] = h if v.left is None else node(done[id(v.left)], done[id(v.right)])
    return done[id(g)]


def iterate(h: PlaneTree, i: int) -> PlaneTree:
    """Iterated substitution: iterate(h, 1) = h, iterate(h, i+1) = substitute(h, iterate(h, i))."""
    _require_int("iteration count", i)
    t = h
    for _ in range(i - 1):
        t = substitute(h, t)
    return t


def catalan(m: int) -> int:
    """Number of plane binary trees with m + 1 leaves."""
    _require_int("catalan index", m, 0)
    return math.comb(2 * m, m) // (m + 1)


def all_trees(n: int) -> tuple[PlaneTree, ...]:
    """All plane binary trees with exactly n anonymous leaves (Catalan many).

    The trees of each size 2..n are built once per call from the smaller
    sizes', by the size of the left subtree, then the left and the right
    subtree in their own order, so they share those subtree objects. The
    call keeps nothing: two calls share no tree.
    """
    _require_int("leaf count", n)
    check_leaves(n)
    check_enumeration(catalan(n - 1))
    by_size = [(), (leaf(),)]
    for m in range(2, n + 1):
        by_size.append(tuple([
            node(lt, rt) for i in range(1, m) for lt in by_size[i] for rt in by_size[m - i]
        ]))
    return by_size[n]
