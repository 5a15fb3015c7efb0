"""Oracles that only the tests use.

The shared brute-force oracle (labeled, the naive shapes, brute_copies, the
arrow exhaustion, check_witness) lives in ramsey_trees.selftest and is
re-exported here. Like it, these recompute answers from first principles
without the library's fast paths, so a disagreement points at a real bug
rather than a shared one.
"""

from __future__ import annotations

import itertools
import os.path

from ramsey_trees import PlaneTree
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


def brute_psi_mono(chi, region, target: PlaneTree, side: str, partner):
    """Least copy of target inside region whose pattern-child copies all have
    the same fusion image against partner, by filtering every image; the
    image of a child-copy maps each partner-side copy to the color of the
    join. None if no copy qualifies."""
    region_set, partner_set = set(region), set(partner)
    own, other = chi.pattern.left, chi.pattern.right
    if side != "left":
        own, other = other, own
    partner_copies = [
        c for c in brute_copies(chi.host, other) if partner_set.issuperset(c)
    ]
    images = {}
    for oc in brute_copies(chi.host, own):
        if region_set.issuperset(oc):
            joins = [oc + pc if side == "left" else pc + oc for pc in partner_copies]
            images[oc] = tuple(chi.assignment[j] for j in joins)
    for cand in brute_copies(chi.host, target):
        if region_set.issuperset(cand):
            inner = {img for oc, img in images.items() if set(cand).issuperset(oc)}
            if len(inner) <= 1:
                return cand
    return None
