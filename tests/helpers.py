"""Independent oracles used by the tests.

Everything here recomputes answers from first principles (parent maps,
subset enumeration, exhaustive coloring tables) without touching the
library's dynamic-programming or backtracking paths, so a disagreement
points at a real bug rather than a shared one.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ramsey_trees import PlaneTree, leaf, node


def labeled(t: PlaneTree, prefix: str = "l") -> PlaneTree:
    """Copy of t with leaves labeled prefix0, prefix1, ... left to right."""
    counter = itertools.count()

    def walk(v: PlaneTree) -> PlaneTree:
        if v.is_leaf:
            return leaf(f"{prefix}{next(counter)}")
        return node(walk(v.left), walk(v.right))

    return walk(t)


def naive_shape(t: PlaneTree):
    """Nested-tuple shape: leaves are None, internal nodes are (left, right)."""
    if t.is_leaf:
        return None
    return (naive_shape(t.left), naive_shape(t.right))


def naive_induced_shape(t: PlaneTree, chosen) -> object:
    """Shape induced by a leaf subset, via explicit LCA-closure + contraction."""
    chosen = set(chosen)
    pos = itertools.count()

    def walk(v: PlaneTree):
        # returns (shape or None, contains_chosen)
        if v.is_leaf:
            return (None, True) if next(pos) in chosen else (None, False)
        ls, lhit = walk(v.left)
        rs, rhit = walk(v.right)
        if lhit and rhit:
            return (ls, rs), True
        if lhit:
            return ls, True
        if rhit:
            return rs, True
        return None, False

    shape, hit = walk(t)
    assert hit, "subset must be nonempty"
    return shape


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


def brute_copies(host: PlaneTree, pattern: PlaneTree) -> list[tuple[int, ...]]:
    """All copies of pattern in host by trying every leaf subset."""
    return list(_brute_copies(host, pattern))


@functools.lru_cache(maxsize=None)
def _brute_copies(host: PlaneTree, pattern: PlaneTree) -> tuple[tuple[int, ...], ...]:
    target = naive_shape(pattern)
    return tuple(
        s
        for s in itertools.combinations(range(host.leaf_count), pattern.leaf_count)
        if naive_induced_shape(host, s) == target
    )


def all_colorings(k: int, m: int) -> np.ndarray:
    """Array of shape (k**m, m): every k-coloring of m variables."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    cols = np.unravel_index(np.arange(k**m), (k,) * m)
    return np.stack(cols, axis=1).astype(np.int8)


def brute_arrow_edges(host: PlaneTree, target: PlaneTree, pattern: PlaneTree):
    """(variables, sorted distinct NAE edges) of the arrow problem by subset
    inclusion: an edge lists the indices of the pattern-copies inside one
    target-copy. Edges is None when some target-copy holds at most one."""
    variables = brute_copies(host, pattern)
    edges = set()
    for hc in brute_copies(host, target):
        hc_set = set(hc)
        edge = tuple(i for i, c in enumerate(variables) if hc_set.issuperset(c))
        if len(edge) <= 1:
            return variables, None
        edges.add(edge)
    return variables, sorted(edges)


def brute_arrow_status(host: PlaneTree, target: PlaneTree, pattern: PlaneTree, k: int) -> str:
    """Definitional arrow check: exhaust all k**m colorings of the
    pattern-copies; 'holds' iff each admits a monochromatic target-copy
    (copies with at most one inner pattern-copy are monochromatic)."""
    variables, edges = brute_arrow_edges(host, target, pattern)
    if edges is None:
        return "holds"
    table = all_colorings(k, len(variables))
    any_mono = np.zeros(len(table), dtype=bool)
    for edge in edges:
        sub = table[:, list(edge)]
        any_mono |= (sub == sub[:, :1]).all(axis=1)
    return "holds" if bool(any_mono.all()) else "fails"


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


def check_witness(host: PlaneTree, target: PlaneTree, witness) -> bool:
    """True iff the witness coloring leaves no target-copy monochromatic."""
    for hc in brute_copies(host, target):
        hc_set = set(hc)
        colors = {col for c, col in witness.assignment.items() if hc_set.issuperset(c)}
        if len(colors) <= 1:
            return False
    return True
