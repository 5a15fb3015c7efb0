"""Oracles that only the tests use.

The shared brute-force oracle (labeled, the naive shapes, brute_copies, the
arrow exhaustion, check_witness) lives in ramsey_trees.selftest and is
re-exported here. Like it, these recompute answers from first principles
without the library's fast paths, so a disagreement points at a real bug
rather than a shared one. traced, the one memory probe, measures a
call's tracemalloc peak.
"""

from __future__ import annotations

import itertools
import os.path
import tracemalloc

from ramsey_trees import PlaneTree, node
from ramsey_trees.selftest import (  # noqa: F401
    brute_arrow_edges,
    brute_arrow_status,
    brute_copies,
    check_witness,
    labeled,
    naive_induced_shape,
    naive_shape,
)


def perfect_induced_shape(height: int, chosen) -> object:
    """Shape a sorted leaf subset induces in perfect_tree(height): positions
    below the midpoint lie in the left half, the rest in the right half."""
    if len(chosen) == 1:
        return None
    half = 1 << (height - 1)
    lo = [x for x in chosen if x < half]
    hi = [x - half for x in chosen if x >= half]
    if not lo:
        return perfect_induced_shape(height - 1, hi)
    if not hi:
        return perfect_induced_shape(height - 1, lo)
    return (perfect_induced_shape(height - 1, lo), perfect_induced_shape(height - 1, hi))


def brute_structure(t: PlaneTree) -> tuple[tuple[str, ...], frozenset]:
    """(domain, triples) of t by definition: ab|c iff the LCA of a and b is
    deeper than the LCA of a and c, over every ordered triple of leaves.
    LCA depths come from root paths (common prefix length)."""
    paths, labels = [], []

    def walk(v: PlaneTree, path: str) -> None:
        if v.is_leaf:
            paths.append(path)
            labels.append(v.label)
        else:
            walk(v.left, path + "0")
            walk(v.right, path + "1")

    walk(t, "")
    n = len(paths)
    idents = tuple(lab if lab is not None else str(i) for i, lab in enumerate(labels))
    depth = [[len(os.path.commonprefix([p, q])) for q in paths] for p in paths]
    triples = frozenset(
        (idents[a], idents[b], idents[c])
        for a, b, c in itertools.permutations(range(n), 3)
        if depth[a][b] > depth[a][c]
    )
    return idents, triples


def mirror(t: PlaneTree) -> PlaneTree:
    """t with the children of every vertex swapped, leaf labels kept: leaf i
    of t is leaf n - 1 - i of mirror(t)."""
    return t if t.is_leaf else node(mirror(t.right), mirror(t.left))


def traced(call):
    """(call(), the peak bytes tracemalloc saw allocated during it).

    A tuple reused from CPython's free lists was allocated before tracing
    began and is not counted, so a peak would depend on the tests run
    before; tuples of up to 3 items, held while call runs, empty those
    lists.
    """
    held = [tuple(range(i, i + n)) for n in (1, 2, 3) for i in range(4096)]
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del held
