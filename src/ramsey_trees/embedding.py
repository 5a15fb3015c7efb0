"""Topological copies inside a host tree.

A copy of a pattern p in a host t is determined by a leaf subset s: take the
minimal LCA-closed subtree of t spanning s, suppress degree-2 vertices, root
at the LCA. The subset is a copy when that induced tree is plane-isomorphic
to p. Copy references (CopyRef) are strictly increasing tuples of leaf
positions with text form "[0,1,3]".
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import chain, combinations, product, repeat, starmap
from math import comb
from operator import add, attrgetter

from .errors import FormatError
from .limits import check_enumeration
from .tree import PlaneTree, _postorder, iso, node

CopyRef = tuple[int, ...]
_leaf_count = attrgetter("leaf_count")
# id() of a host vertex -> (lo, copy counts of slots lo, lo + 1, ...)
_Table = dict[int, tuple[int, list[int]]]


def _parting(v: PlaneTree, lo: int, a: int, b: int) -> tuple[PlaneTree, int, int]:
    """Walk down from v, whose first leaf is at position lo, toward leaf
    positions a <= b inside it, and stop where they part: return the
    deepest vertex spanning both (a leaf when a == b), its first leaf's
    position and its depth below v. O(height), no per-host state."""
    depth = 0
    while v.left is not None:
        mid = lo + v.left.leaf_count
        if b < mid:
            v = v.left
        elif a >= mid:
            v, lo = v.right, mid
        else:
            break
        depth += 1
    return v, lo, depth


def leaf_lca_depth(t: PlaneTree, a: int, b: int) -> int:
    """Depth of the LCA of two distinct leaf positions."""
    a, b = validate_copy(t, (a, b))
    return _parting(t, 0, a, b)[2]


def validate_copy(host: PlaneTree, leaves) -> CopyRef:
    """Canonicalize a leaf subset of host: sorted tuple, distinct, in range."""
    s = tuple(sorted(leaves))
    if not s:
        raise ValueError("leaf set must be nonempty")
    for x in s:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"leaf positions must be integers, got {x!r}")
    if any(s[i] == s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"leaf positions must be distinct: {list(s)}")
    if s[0] < 0 or s[-1] >= host.leaf_count:
        raise ValueError(
            f"leaf position out of range for host with {host.leaf_count} leaves: {list(s)}"
        )
    return s


def format_copy(copy: CopyRef) -> str:
    return "[" + ",".join(str(x) for x in copy) + "]"


def parse_copy(text: str) -> CopyRef:
    """Parse the canonical text form: strictly increasing, e.g. '[0,1,3]'."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"copy reference is not valid JSON: {e}") from None
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise FormatError(f"copy reference must be a JSON array of integers: {text!r}")
    if any(obj[i] >= obj[i + 1] for i in range(len(obj) - 1)):
        raise FormatError(f"copy reference must be strictly increasing: {text!r}")
    return tuple(obj)


def induced_subtree(host: PlaneTree, leaves) -> PlaneTree:
    """The LCA-closure of a leaf subset with degree-2 vertices suppressed.

    Labels of the chosen leaves are preserved. One iterative walk: from a
    vertex, go down to where the first and last chosen positions part;
    there the chosen positions split between the two children (found by
    bisection) and make one result vertex. A host subtree whose leaves are
    all chosen is its own induced tree and is shared, not copied.
    """
    s = validate_copy(host, leaves)
    out: list[PlaneTree] = []
    # (vertex, its first position, chosen s[i:j] inside it); None joins the
    # last two results
    stack: list[tuple[PlaneTree, int, int, int] | None] = [(host, 0, 0, len(s))]
    while stack:
        item = stack.pop()
        if item is None:
            r = out.pop()
            out.append(node(out.pop(), r))
            continue
        v, lo, i, j = item
        v, lo, _ = _parting(v, lo, s[i], s[j - 1])
        if j - i == v.leaf_count:
            out.append(v)
            continue
        mid = lo + v.left.leaf_count
        k = bisect_left(s, mid, i, j)
        stack.extend((None, (v.right, mid, k, j), (v.left, lo, i, k)))
    return out[0]


def is_copy(host: PlaneTree, leaves, pattern: PlaneTree) -> bool:
    """Does the leaf subset induce a tree plane-isomorphic to pattern?"""
    return iso(induced_subtree(host, leaves), pattern)


def count_copies(host: PlaneTree, pattern: PlaneTree) -> int:
    """Number of copies of pattern in host (exact arbitrary-precision count).

    Every set of one or two leaves is a copy of the one- or two-leaf tree,
    so those count as binomials. A copy of a larger pattern either sits
    inside one child of the host root or splits at it (left pattern child
    into the left host child, right into right). _count_table applies that
    rule to the pattern's vertices at once, one vector per distinct host
    vertex, so shared subtrees are counted once.
    """
    if pattern.leaf_count <= 2:
        return comb(host.leaf_count, pattern.leaf_count)
    if pattern.leaf_count > host.leaf_count:
        return 0
    table, slot = _count_table(host, pattern)
    return _count(table, host, slot[id(pattern)])


def _split_plan(pattern: PlaneTree) -> tuple[list[tuple[int, int, int]], list[int], dict[int, int]]:
    """(plan, sizes, slot): the one numbering of pattern's subtrees that
    every pass of the split rule reads. Slot 0 fits nowhere, slot 1 is the
    leaf, and the distinct internal vertices, not shapes, take slots from 2
    in order of leaf count. plan holds one entry (i, a, b) per slot i, a and
    b its children's slots (0 for a leaf's); sizes[i] is slot i's leaf
    count; slot maps id() of each internal vertex to its slot."""
    inner = sorted((p for p in _postorder(pattern) if p.left is not None), key=_leaf_count)
    slot = {id(p): i for i, p in enumerate(inner, 2)}
    plan = [(0, 0, 0), (1, 0, 0)] + [(i, slot.get(id(p.left), 1), slot.get(id(p.right), 1))
                                     for i, p in enumerate(inner, 2)]
    return plan, [0, 1] + [p.leaf_count for p in inner], slot


def _count_table(host: PlaneTree, pattern: PlaneTree) -> tuple[_Table, dict[int, int]]:
    """The copy counts of _split_plan(pattern)'s slots in host's vertices, and its slot map.

    A copy of pattern vertex p inside host vertex v can be part of a copy
    of the pattern only if the pattern's other leaves fit outside v, so v
    counts the window of slots with leaf_count(v) - slack <= leaf_count(p)
    <= leaf_count(v), slack = leaf_count(host) - leaf_count(pattern). table
    maps id() of each distinct host vertex to (lo, vec), the counts of
    slots lo, lo + 1, ...; _count reads 0 outside them. vec is one list
    comprehension over the plan entries (i, a, b) of v's window, the split
    rule of count_copies: slot i with children slots a and b has l[i] +
    r[i] + l[a] * r[b] copies, where l and r are the children's counts and
    a leaf has a = b = 0, so it counts host leaves. A count in the window
    is exact: each term it reads is in the child's window, or is 0 as a
    part does not fit, or is a factor whose partner does not fit. So a
    small pattern is counted in every slot, and a pattern as large as the
    host in one window per leaf count, which keeps a deep pattern in itself
    linear in memory. A child's window starts at or below v's, so a child
    whose window does not start at slot 0 is read through its offset, and
    only the tail of a child's counts is ever padded with zeros: a deep
    pattern in itself then costs time linear in the host too.
    """
    plan, sizes, slot = _split_plan(pattern)
    slack = host.leaf_count - pattern.leaf_count
    zeros = [0] * len(plan)
    # every host leaf: one vector of the true counts of all slots
    at_leaf = 0, [0, 1] + zeros[2:]
    # by host leaf count: lo, hi, plan[lo:hi]; a host vertex with
    # leaf_count(pattern) to slack leaves counts every slot
    windows: dict[int, tuple[int, int, list]] = {}
    full = 0, len(plan), plan
    table: _Table = {}
    for v in _postorder(host):
        if v.left is None:
            table[id(v)] = at_leaf
            continue
        n = v.leaf_count
        if sizes[-1] <= n <= slack:
            lo, hi, part = full
        else:
            if n not in windows:
                hi = bisect_right(sizes, n)
                lo = min(bisect_left(sizes, n - slack), hi)
                windows[n] = lo, hi, plan[lo:hi]
            lo, hi, part = windows[n]
        (lo_l, l), (lo_r, r) = table[id(v.left)], table[id(v.right)]
        # the children's counts up to slot hi - 1, 0 past their windows
        if lo_l + len(l) < hi:
            l = l + zeros[: hi - lo_l - len(l)]
        if lo_r + len(r) < hi:
            r = r + zeros[: hi - lo_r - len(r)]
        if lo_l or lo_r:
            # Read slot x of a child at x - lo, its window's offset. A
            # child's window starts at or below v's, so only a part below
            # it is out of reach; it does not fit and reads 0.
            table[id(v)] = lo, [
                l[i - lo_l] + r[i - lo_r]
                + (l[a - lo_l] * r[b - lo_r] if a >= lo_l and b >= lo_r else 0)
                for i, a, b in part
            ]
        else:
            table[id(v)] = lo, [l[i] + r[i] + l[a] * r[b] for i, a, b in part]
    return table, slot


def _count(table: _Table, v: PlaneTree, k: int) -> int:
    """The count of slot k in host vertex v, read from a _count_table."""
    lo, vec = table[id(v)]
    return vec[k - lo] if lo <= k < lo + len(vec) else 0


def _walk(t: PlaneTree, p: PlaneTree, lists: dict, counts: tuple):
    """Batches of the copies of an internal p in t, in t's positions and in
    lexicographic order; a pair (w, r) instead when it needs the copies of r
    in a subtree w that lists, keyed (id(w), id(r)), lacks, which it asks
    for only once counts reads their number as nonzero. counts is the
    _count_table of a host and a pattern that hold t and p.

    Let r_1, ..., r_L be the right children up p's left spine, lowest first.
    A copy is a first leaf a and, for each i, a copy of r_i in the right
    child of u_i, where u_1, ..., u_L are ancestors of a, rising strictly,
    that each hold a in their left child. The right child of a lower such
    ancestor lies further left, so the copies come in order when a rises,
    then u_1, then r_1's part, then u_2, and so on: no merge and no sort.
    One walk over the leaves keeps the current leaf's path, and the parts in
    each right child on it, shifted to t's positions once. Every ancestor
    holds a leaf part; whether it holds another is one lookup in the count
    table, which reads 0 for a part that no copy of its pattern can use. So
    an ancestor is tried at a level only if the levels above can still be
    filled, and a part is listed only when the walk reaches it.

    A batch is the copies with one prefix and one part at the last level,
    one lazy map of the prefix over the part's copies: for a two-leaf r_L,
    every leaf pair of u_L's right child, from combinations over its
    positions, with no list; else the part's list. But if r_L is a leaf and
    L >= 2, the last leaf takes every position from the end of u_{L-1} to
    the end of t, one range, as each later leaf parts from a above u_{L-1},
    with a on the left. So a batch is a block: the copies with one prefix
    and one u_{L-1}, the heads (a prefix and one part of r_{L-1}) times
    that range. It comes as the first head's row, a lazy map, and then,
    built only when that row is read, one product of the other heads and
    the range, whose pools hold at most the range and the part's list.
    """
    n = t.leaf_count
    last = n - p.leaf_count  # the last leaf a copy can start at
    rights = []
    while not p.is_leaf:
        rights.append(p.right)
        p = p.left
    rights.reverse()
    top = len(rights) - 1
    # the level that ends a batch's prefix: top for maps, top - 1 for blocks
    stop = top - 1 if top and rights[top].is_leaf else top
    pair = rights[top].leaf_count == 2
    table, slot = counts
    cols = [slot.get(id(r), 1) for r in rights]
    # path: (right child, its first position) of each ancestor holding the
    # current leaf in its left child, highest first. parts[j][q]: the copies
    # of rights[j] there in t's positions, None until needed; leaf patterns
    # share one column.
    path: list[tuple[PlaneTree, int]] = []
    columns: dict[int | None, list] = {}
    parts = [columns.setdefault(None if r.is_leaf else id(r), []) for r in rights]

    def holds(j: int, q: int) -> bool:
        return cols[j] == 1 or _count(table, path[q][0], cols[j]) > 0

    def fill(j: int, q: int):
        (w, off), r = path[q], rights[j]
        if r.is_leaf:
            parts[j][q] = [(x,) for x in range(off, off + w.leaf_count)]
        else:
            if (id(w), id(r)) not in lists:
                yield w, r
            parts[j][q] = [tuple([x + off for x in c]) for c in lists[id(w), id(r)]]
        return parts[j][q]

    leaves = [(t, 0, 0)]
    while leaves:
        v, lo, depth = leaves.pop()
        if lo > last:
            return
        del path[depth:]
        for col in columns.values():
            del col[depth:]
        while not v.is_leaf:
            mid = lo + v.left.leaf_count
            leaves.append((v.right, mid, len(path)))
            path.append((v.right, mid))
            for col in columns.values():
                col.append(None)
            v = v.left
        m = len(path)
        # floor[j]: level j sits strictly below the highest ancestor that
        # can take level j + 1 with the levels above it; floor[top + 1] = 0
        floor = [0] * (top + 2)
        for j in range(top, -1, -1):
            q = floor[j + 1]
            while q < m and not holds(j, q):
                q += 1
            if q == m:
                break  # no copy starts at this leaf
            floor[j] = q + 1
        else:
            # frames (level, copy so far, path index to try next, at least
            # floor[level + 1]), the lowest ancestor first
            frames = [(0, (lo,), m - 1)]
            while frames:
                j, pre, q = frames.pop()
                if q > floor[j + 1]:
                    frames.append((j, pre, q - 1))
                if not holds(j, q):
                    continue
                if j != stop:
                    col = parts[j][q] or (yield from fill(j, q))
                    frames += [(j + 1, pre + c, q - 1) for c in reversed(col)]
                elif pair:  # the copies of r_L in w are all its leaf pairs
                    w, off = path[q]
                    yield map(add, repeat(pre), combinations(range(off, off + w.leaf_count), 2))
                elif stop == top:
                    col = parts[j][q] or (yield from fill(j, q))
                    yield map(add, repeat(pre), col)
                else:
                    w, off = path[q]
                    end = off + w.leaf_count
                    if cols[j] == 1:  # the heads are pre + (x,), off <= x < end
                        yield map(add, repeat(pre + (off,)), zip(range(end, n)))
                        if end - off > 1:
                            yield product(*zip(pre), range(off + 1, end), range(end, n))
                    else:
                        col = parts[j][q] or (yield from fill(j, q))
                        yield map(add, repeat(pre + col[0]), zip(range(end, n)))
                        if len(col) > 1:
                            heads = map(add, repeat(pre), col[1:])
                            yield starmap(add, product(heads, zip(range(end, n))))


def _copies(host: PlaneTree, pattern: PlaneTree, counts: tuple | None = None):
    """The copies of pattern in host, lazily, in lexicographic order.

    Every set of one or two leaves is a copy of the one- or two-leaf tree,
    so those come from itertools.combinations. Any larger pattern's come
    from one _walk over the host, reading one count table: the caller's
    _count_table(host, pattern), passed as counts, or one built here. The
    copy lists the walk asks for (a two-leaf part at its last level is
    generated, never listed) are built by further walks, run from an
    explicit stack, so no Python recursion grows with the host or the
    pattern; they are memoized on object identity, so shared subtrees are
    listed once. Each is charged to the enumeration cap, as a running
    total, by its count in the table before its walk starts. The copies
    yielded are not charged; the stream chains the walk's batches, so
    their rows are read at C speed.
    """
    if pattern.leaf_count <= 2:
        return combinations(range(host.leaf_count), pattern.leaf_count)
    lists: dict[tuple[int, int], list[CopyRef]] = {}
    counts = counts or _count_table(host, pattern)

    def batches():
        table, slot = counts
        charged = 0
        frames = [(_walk(host, pattern, lists, counts), None, None)]
        while frames:
            walk, key, out = frames[-1]
            for item in walk:
                if item.__class__ is tuple:  # a missing list: charge it, then build it
                    w, r = item
                    charged += _count(table, w, slot[id(r)])
                    check_enumeration(charged)
                    frames.append((_walk(w, r, lists, counts), (id(w), id(r)), []))
                    break
                if out is None:
                    yield item
                else:
                    out += item
            else:
                frames.pop()
                if out is not None:
                    lists[key] = out

    return chain.from_iterable(batches())


def _capped_copies(host: PlaneTree, pattern: PlaneTree):
    """_copies(host, pattern), once the enumeration cap has allowed their
    number: a binomial for one or two leaves, else read from the count
    table that the stream then reuses."""
    if pattern.leaf_count <= 2:
        check_enumeration(comb(host.leaf_count, pattern.leaf_count))
        return _copies(host, pattern)
    table, slot = counts = _count_table(host, pattern)
    check_enumeration(_count(table, host, slot[id(pattern)]))
    return _copies(host, pattern, counts)


def enumerate_copies(host: PlaneTree, pattern: PlaneTree) -> list[CopyRef]:
    """All copies of pattern in host, lexicographically ordered.

    Guarded by the global enumeration cap, which bounds the result and,
    separately, the copy lists the stream builds on the way (_copies). The
    result is checked against the cap before any copy is listed.
    """
    return list(_capped_copies(host, pattern))
