"""Topological copies inside a host tree.

A copy of a pattern p in a host t is determined by a leaf subset s: take the
minimal LCA-closed subtree of t spanning s, suppress degree-2 vertices, root
at the LCA. The subset is a copy when that induced tree is plane-isomorphic
to p. Copy references (CopyRef) are strictly increasing tuples of leaf
positions with text form "[0,1,3]".
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .limits import check_enumeration
from .tree import PlaneTree, iso, leaf, node

CopyRef = tuple[int, ...]

# Above this many leaves the O(n log n) RMQ table is skipped and LCA-depth
# queries fall back to direct scans over the separator array.
_RMQ_LIMIT = 1 << 17


def _host_cache(t: PlaneTree) -> dict:
    if t._cache is None:
        t._cache = {}
    return t._cache


def _leaf_data(t: PlaneTree) -> tuple[list[str | None], list[int]]:
    """Per-host arrays: leaf labels in order, and separator depths.

    Separator i is the depth of the LCA of consecutive leaves i and i+1;
    every internal vertex contributes exactly one separator (in-order).
    """
    cache = _host_cache(t)
    if "labels" not in cache:
        labels: list[str | None] = []
        sep: list[int] = []
        stack: list[tuple[PlaneTree | None, int]] = [(t, 0)]
        while stack:
            v, depth = stack.pop()
            if v is None:
                sep.append(depth)
            elif v.is_leaf:
                labels.append(v.label)
            else:
                stack.append((v.right, depth + 1))
                stack.append((None, depth))
                stack.append((v.left, depth + 1))
        cache["labels"] = labels
        cache["sep"] = sep
    return cache["labels"], cache["sep"]


def _sep_rmq(t: PlaneTree):
    """Range-min over the separator array as a callable f(a, b) for sep[a:b)."""
    cache = _host_cache(t)
    if "rmq" in cache:
        return cache["rmq"]
    _, sep = _leaf_data(t)
    m = len(sep)
    if m > _RMQ_LIMIT:
        def query(a: int, b: int) -> int:
            return min(sep[a:b])
    else:
        levels = [np.asarray(sep, dtype=np.int64)]
        j = 1
        while (1 << j) <= m:
            prev = levels[-1]
            half = 1 << (j - 1)
            levels.append(np.minimum(prev[: m - (1 << j) + 1], prev[half : m - half + 1]))
            j += 1

        def query(a: int, b: int) -> int:
            j = (b - a).bit_length() - 1
            lvl = levels[j]
            return int(min(lvl[a], lvl[b - (1 << j)]))

    cache["rmq"] = query
    return query


def leaf_labels(t: PlaneTree) -> list[str | None]:
    """Labels of the leaves of t in left-to-right order (cached per host)."""
    return list(_leaf_data(t)[0])


def leaf_lca_depth(t: PlaneTree, a: int, b: int) -> int:
    """Depth of the LCA of two distinct leaf positions."""
    n = t.leaf_count
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"need two distinct leaf positions in [0, {n}), got {a}, {b}")
    if a > b:
        a, b = b, a
    return _sep_rmq(t)(a, b)


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

    Labels of the chosen leaves are preserved. Built bottom-up from the
    depths of the LCAs of consecutive chosen leaves (deeper separators bind
    tighter), so no recursion on the host is needed.
    """
    s = validate_copy(host, leaves)
    labels, _ = _leaf_data(host)
    if len(s) == 1:
        return leaf(labels[s[0]])
    rmq = _sep_rmq(host)
    out: list[PlaneTree] = [leaf(labels[s[0]])]
    ops: list[int] = []
    for j in range(1, len(s)):
        d = rmq(s[j - 1], s[j])
        while ops and ops[-1] > d:
            ops.pop()
            r = out.pop()
            out.append(node(out.pop(), r))
        # equal adjacent separator depths would mean two distinct vertices at
        # the same depth on one root path, which cannot happen in a tree
        if ops and ops[-1] >= d:
            raise RuntimeError("internal error: separator depths out of order")
        ops.append(d)
        out.append(leaf(labels[s[j]]))
    while ops:
        ops.pop()
        r = out.pop()
        out.append(node(out.pop(), r))
    return out[0]


def is_copy(host: PlaneTree, leaves, pattern: PlaneTree) -> bool:
    """Does the leaf subset induce a tree plane-isomorphic to pattern?"""
    s = validate_copy(host, leaves)
    if len(s) != pattern.leaf_count:
        return False
    return iso(induced_subtree(host, s), pattern)


def _dp(host: PlaneTree, pattern: PlaneTree, on_leaf_pattern, on_leaf_host, combine, memo=None):
    """Shared bottom-up recursion over (host subtree, pattern subtree) pairs.

    A copy of an internal pattern either sits inside one child of the host
    root or splits at it (left pattern child into the left host child, right
    into right). Memoized on object identity, which is sound because results
    depend only on subtree values and equal objects are equal values. A memo
    passed in is shared with other calls that use the same callbacks on
    trees that stay alive meanwhile.
    """
    memo = {} if memo is None else memo
    stack = [(host, pattern)]
    while stack:
        t, p = stack[-1]
        key = (id(t), id(p))
        if key in memo:
            stack.pop()
            continue
        if p.is_leaf:
            memo[key] = on_leaf_pattern(t)
            stack.pop()
            continue
        if t.is_leaf:
            memo[key] = on_leaf_host()
            stack.pop()
            continue
        deps = ((t.left, p), (t.right, p), (t.left, p.left), (t.right, p.right))
        ready = True
        for dep in deps:
            if (id(dep[0]), id(dep[1])) not in memo:
                stack.append(dep)
                ready = False
        if ready:
            vals = [memo[(id(a), id(b))] for a, b in deps]
            memo[key] = combine(t, *vals)
            stack.pop()
    return memo[(id(host), id(pattern))]


def count_copies(host: PlaneTree, pattern: PlaneTree) -> int:
    """Number of copies of pattern in host (exact arbitrary-precision count)."""
    return _dp(
        host,
        pattern,
        on_leaf_pattern=lambda t: t.leaf_count,
        on_leaf_host=lambda: 0,
        combine=lambda t, in_l, in_r, cr_l, cr_r: in_l + in_r + cr_l * cr_r,
    )


def _copy_lister():
    """A function (t, p) -> the copies of p in t, a lexicographically ordered
    tuple in t's own positions. All its calls share one memo, keyed by
    object identity, and one running charge against the enumeration cap:
    the total number of copy tuples materialized across all subproblems."""
    memo: dict[tuple[int, int], object] = {}
    budget = [0]

    def charge(items: list) -> tuple:
        budget[0] += len(items)
        check_enumeration(budget[0])
        return tuple(items)

    def on_leaf_pattern(t: PlaneTree) -> tuple:
        return charge([(i,) for i in range(t.leaf_count)])

    def combine(t: PlaneTree, in_l, in_r, cr_l, cr_r) -> tuple:
        nl = t.left.leaf_count
        items = list(in_l)
        items.extend([tuple([x + nl for x in c]) for c in in_r])
        shifted = [tuple([x + nl for x in rc]) for rc in cr_r]
        items.extend([lc + rc for lc in cr_l for rc in shifted])
        items.sort()
        return charge(items)

    def lists(t: PlaneTree, p: PlaneTree) -> tuple:
        return _dp(t, p, on_leaf_pattern, lambda: (), combine, memo)

    return lists


def enumerate_copies(host: PlaneTree, pattern: PlaneTree) -> list[CopyRef]:
    """All copies of pattern in host, lexicographically ordered.

    Guarded by the global enumeration cap; the guard bounds the total number
    of copy tuples materialized across all subproblems, not just the result.
    """
    check_enumeration(count_copies(host, pattern))
    return list(_copy_lister()(host, pattern))


def _least_copy(host: PlaneTree, target: PlaneTree, accept) -> CopyRef | None:
    """The lexicographically least copy of target in host that passes accept,
    or None; the root's list of copies is never built.

    By the split rule of _dp, the copies under a vertex lie inside its left
    child, split at it (a copy of target.left in the left child joined with
    one of target.right in the right child), or lie inside its right child,
    and the last kind are greater than the other two. So the search finds
    the best copy inside the left child first, then scans the split copies
    in lexicographic order (each left part with every right part) until one
    passes or the left part reaches the left child's best, and descends
    into the right child only if neither found a copy. The split parts come
    from one _copy_lister shared by the whole search, so their lists count
    against the enumeration cap and shared subtrees are listed once; a single
    leaf's copies are generated, not listed. A split is listed only when the
    least copy of each part exists and the left part's comes before the left
    child's best, which a memoized DP finds without lists. The walk is
    iterative.
    """
    m = target.leaf_count
    lists = _copy_lister()
    firsts: dict[tuple[int, int], object] = {}

    def least(t: PlaneTree, in_l, in_r, cr_l, cr_r) -> CopyRef | None:
        nl = t.left.leaf_count
        if cr_l is not None and cr_r is not None:
            cross = cr_l + tuple([x + nl for x in cr_r])
            if in_l is None or cross < in_l:
                return cross
        if in_l is not None:
            return in_l
        return None if in_r is None else tuple([x + nl for x in in_r])

    def first(t: PlaneTree, p: PlaneTree) -> CopyRef | None:
        """The least copy of p in t, in t's positions, or None; no list is built."""
        return _dp(t, p, lambda t: (0,), lambda: None, least, firsts)

    def listed(t: PlaneTree, p: PlaneTree):
        return ((i,) for i in range(t.leaf_count)) if p.is_leaf else lists(t, p)

    def split(v: PlaneTree, lo: int, bound: CopyRef | None) -> CopyRef | None:
        head, tail = first(v.left, target.left), first(v.right, target.right)
        if head is None or tail is None:
            return None
        prefix = None if bound is None else bound[: len(head)]
        if prefix is not None and tuple([x + lo for x in head]) >= prefix:
            return None  # checked before any list is built
        off = lo + v.left.leaf_count
        rights = None
        for lc in listed(v.left, target.left):
            lc = tuple([x + lo for x in lc])
            if prefix is not None and lc >= prefix:
                return None  # every later split copy is past the left child's best
            if rights is None:
                rights = [tuple([x + off for x in rc]) for rc in listed(v.right, target.right)]
            for rc in rights:
                cand = lc + rc
                if accept(cand):
                    return cand
        return None

    # frames (vertex, offset, stage): stage 0 descends into the left child,
    # stage 1 receives its best in `found`; the right child replaces its
    # parent's frame, so its result is the parent's.
    found: CopyRef | None = None
    stack = [(host, 0, 0)]
    while stack:
        v, lo, stage = stack.pop()
        if stage == 0:
            if v.leaf_count < m:
                found = None
            elif v.is_leaf:
                found = (lo,) if accept((lo,)) else None
            else:
                stack.append((v, lo, 1))
                stack.append((v.left, lo, 0))
            continue
        if not target.is_leaf:
            best = split(v, lo, found)
            if best is not None:
                found = best
        if found is None:
            stack.append((v.right, lo + v.left.leaf_count, 0))
    return found
