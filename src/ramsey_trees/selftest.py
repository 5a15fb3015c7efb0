"""The brute-force oracle, and the built-in suite that checks the fast
paths against it on small instances.

The oracle works from the definitions alone: shapes by LCA closure over the
PlaneTree fields, copies by subset enumeration, arrows by exhausting every
coloring. The tests import it too. run() backs the `selftest` CLI
subcommand; prose goes to a diagnostic stream, the caller gets a
machine-readable summary.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from typing import TextIO

from .tree import (
    PlaneTree,
    all_trees,
    catalan,
    iterate,
    leaf,
    node,
    parse_newick,
    perfect_tree,
    to_newick,
)
from .embedding import count_copies, enumerate_copies, induced_subtree, is_copy
from .errors import InconsistentTriplesError
from .triples import TripleStructure, restrict, structure_of, substructure_iso, reconstruct
from .coloring import Coloring, is_mono
from .arrows import (
    build_reduction_chain,
    check_arrow,
    extract_mono_k,
    extract_mono_leafcolor,
    min_arrow_height_scan,
)


def labeled(t: PlaneTree, prefix: str = "l") -> PlaneTree:
    """Copy of t with leaves labeled prefix0, prefix1, ... left to right."""
    counter = itertools.count()

    def walk(v: PlaneTree) -> PlaneTree:
        if v.is_leaf:
            return leaf(f"{prefix}{next(counter)}")
        return node(walk(v.left), walk(v.right))

    return walk(t)


def naive_shape(t: PlaneTree):
    """Nested-tuple shape: leaves are None, internal vertices (left, right)."""
    if t.is_leaf:
        return None
    return (naive_shape(t.left), naive_shape(t.right))


def naive_induced_shape(t: PlaneTree, chosen):
    """Shape a nonempty leaf subset induces in t: the LCA closure of the
    subset, with every vertex that keeps chosen leaves on one side only
    contracted away."""
    chosen = set(chosen)
    pos = itertools.count()

    def walk(v: PlaneTree):
        # (shape or None, whether v holds a chosen leaf)
        if v.is_leaf:
            return None, next(pos) in chosen
        ls, lhit = walk(v.left)
        rs, rhit = walk(v.right)
        if lhit and rhit:
            return (ls, rs), True
        if lhit:
            return ls, True
        return rs, rhit

    shape, hit = walk(t)
    if not hit:
        raise ValueError("leaf subset must be nonempty and inside the tree")
    return shape


def brute_copies(host: PlaneTree, pattern: PlaneTree) -> list[tuple[int, ...]]:
    """All copies of pattern in host, in lexicographic order, by trying
    every leaf subset of the pattern's size."""
    return list(_brute_copies(host, pattern))


@functools.lru_cache(maxsize=None)
def _brute_copies(host: PlaneTree, pattern: PlaneTree) -> tuple[tuple[int, ...], ...]:
    target = naive_shape(pattern)
    return tuple(
        s
        for s in itertools.combinations(range(host.leaf_count), pattern.leaf_count)
        if naive_induced_shape(host, s) == target
    )


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
    """Definitional arrow check: try all k**m colorings of the m
    pattern-copies; 'holds' iff each leaves some target-copy monochromatic
    (a target-copy with at most one inner pattern-copy always is)."""
    variables, edges = brute_arrow_edges(host, target, pattern)
    if edges is None:
        return "holds"
    members = [operator.itemgetter(*e) for e in edges]
    for colors in itertools.product(range(k), repeat=len(variables)):
        if not any(len(set(get(colors))) == 1 for get in members):
            return "fails"
    return "holds"


def check_witness(host: PlaneTree, target: PlaneTree, witness: Coloring) -> bool:
    """True iff the witness colors exactly the copies of its pattern in host
    and leaves no target-copy monochromatic."""
    if set(witness.assignment) != set(brute_copies(host, witness.pattern)):
        return False
    for hc in brute_copies(host, target):
        hc_set = set(hc)
        colors = {col for c, col in witness.assignment.items() if hc_set.issuperset(c)}
        if len(colors) <= 1:
            return False
    return True


def _check_catalan() -> tuple[bool, str]:
    for n in range(1, 7):
        trees = all_trees(n)
        if len(trees) != catalan(n - 1):
            return False, f"{len(trees)} trees with {n} leaves, expected {catalan(n - 1)}"
        for t in trees:
            text = to_newick(t)
            if to_newick(parse_newick(text)) != text:
                return False, f"round-trip changed {text!r}"
    for h in range(11):
        # equal to T(h), with both children of each left-path vertex one
        # object: then the path's h + 1 vertices are all its objects
        t = parse_newick(to_newick(perfect_tree(h)))
        if t != perfect_tree(h):
            return False, f"re-parsed perfect tree of height {h} changed"
        while not t.is_leaf:
            if t.left is not t.right:
                return False, f"re-parsed perfect tree of height {h} is not {h + 1} objects"
            t = t.left
    return True, "tree counts for 1..6 leaves, text round-trips, shared re-parsed perfect trees"


def _check_copies() -> tuple[bool, str]:
    pairs = 0
    for hn in range(1, 7):
        for host in all_trees(hn):
            for pn in range(1, 5):
                for pattern in all_trees(pn):
                    expected = brute_copies(host, pattern)
                    got = enumerate_copies(host, pattern)
                    if got != expected or count_copies(host, pattern) != len(expected):
                        return False, f"mismatch for host {to_newick(host)}"
                    pairs += 1
    return True, f"copy counts and listings on {pairs} host/pattern pairs"


def _check_triples() -> tuple[bool, str]:
    cases = 0
    for n in range(1, 7):
        for t in all_trees(n):
            lt = labeled(t)
            enc = structure_of(lt)
            if reconstruct(enc) != lt:
                return False, f"round-trip failed for {to_newick(lt)}"
            cases += 1
            # A plane tree never orients the outer pair of three leaves
            # below the middle one: flipping a 3-set to that keeps the size.
            for p, q, r in itertools.combinations(enc.domain, 3):
                pair = {(p, q, r), (q, p, r)} if (p, q, r) in enc.triples else {(q, r, p), (r, q, p)}
                flipped = TripleStructure(enc.domain, enc.triples - pair | {(p, r, q), (r, p, q)})
                try:
                    reconstruct(flipped)
                except InconsistentTriplesError:
                    cases += 1
                else:
                    return False, f"flipped 3-set {p},{q},{r} of {to_newick(lt)} was accepted"
    for n in range(2, 6):
        for t in all_trees(n):
            lt = labeled(t)
            enc = structure_of(lt)
            for r in range(1, n + 1):
                for s in itertools.combinations(range(n), r):
                    ids = [enc.domain[i] for i in s]
                    if structure_of(induced_subtree(lt, s)) != restrict(enc, ids):
                        return False, f"restriction mismatch on {to_newick(lt)} at {list(s)}"
                    cases += 1
    return True, f"encode/reconstruct round-trips, flipped 3-set rejections and restrictions, {cases} cases"


def _check_bridge() -> tuple[bool, str]:
    cases = 0
    for hn in range(1, 6):
        for host in all_trees(hn):
            lt = labeled(host)
            enc = structure_of(lt)
            for pn in range(1, 4):
                for pattern in all_trees(pn):
                    penc = structure_of(pattern)
                    for s in itertools.combinations(range(hn), pn):
                        ids = [enc.domain[i] for i in s]
                        via_trees = is_copy(lt, s, pattern)
                        via_structs = substructure_iso(restrict(enc, ids), penc)
                        if via_trees != via_structs:
                            return False, f"bridge broken on {to_newick(lt)} at {list(s)}"
                        cases += 1
    return True, f"copy/substructure agreement, {cases} cases"


def _check_arrows() -> tuple[bool, str]:
    queries = witnesses = 0
    for hn in range(1, 5):
        for host in all_trees(hn):
            for tn in range(1, 4):
                for target in all_trees(tn):
                    for pn in range(1, 3):
                        for pattern in all_trees(pn):
                            for k in (1, 2):
                                verdict = check_arrow(host, target, pattern, k)
                                want = brute_arrow_status(host, target, pattern, k)
                                query = (
                                    f"{to_newick(host)} vs ({to_newick(target)}, "
                                    f"{to_newick(pattern)}, k={k})"
                                )
                                if verdict.status != want:
                                    return False, f"{query}: {verdict.status} != {want}"
                                if verdict.status == "fails":
                                    if not check_witness(host, target, verdict.witness):
                                        return False, f"{query}: the bad coloring is not bad"
                                    witnesses += 1
                                queries += 1
    return True, (
        f"search agrees with exhaustion on {queries} queries, "
        f"{witnesses} bad colorings re-verified"
    )


def _check_min_heights() -> tuple[bool, str]:
    # (target height, k) -> least height of a perfect host that arrows it
    want = {(1, 2): 2, (1, 4): 3, (2, 2): 4, (4, 2): 8}
    got = {(t, k): min_arrow_height_scan(perfect_tree(t), leaf(), k)[0] for t, k in want}
    if got != want:
        return False, f"least heights came out as {got}, expected {want}"
    return True, "least arrowing heights for the cherry at k=2 and k=4, P2 and P4 at k=2"


def _check_extractor() -> tuple[bool, str]:
    cherry = perfect_tree(1)
    caterpillar = node(cherry, leaf())
    cases = 0
    for h, j in ((cherry, 2), (cherry, 3), (caterpillar, 2)):
        host = iterate(h, j)
        n = host.leaf_count
        for colors in itertools.product(range(j), repeat=n):
            chi = Coloring.from_leaf_colors(host, colors, j)
            copy, color = extract_mono_leafcolor(h, j, host, chi)
            if not is_copy(host, copy, h):
                return False, f"not a copy: {copy} for colors {colors}"
            if any(colors[i] != color for i in copy):
                return False, f"not monochromatic: {copy} for colors {colors}"
            cases += 1
    return True, f"leaf-color extraction verified on {cases} colorings"


def _check_reduction() -> tuple[bool, str]:
    cherry = perfect_tree(1)
    chain = build_reduction_chain(cherry, leaf(), 4)
    shapes = [to_newick(t) for t in chain.trees]
    want = [to_newick(perfect_tree(1)), to_newick(perfect_tree(2)), to_newick(perfect_tree(4))]
    if shapes != want:
        return False, f"chain trees {shapes}, expected {want}"
    top = chain.trees[-1]
    rng = random.Random(1105)
    for _ in range(25):
        colors = [rng.randrange(4) for _ in range(top.leaf_count)]
        chi = Coloring.from_leaf_colors(top, colors, 4)
        copy, color = extract_mono_k(chain, chi)
        if not is_copy(top, copy, cherry) or is_mono(chi, copy) != color:
            return False, f"bad extraction {copy} for colors {colors}"
    return True, "k=4 reduction chain built and exercised on 25 random colorings"


_CHECKS = [
    ("catalan-counts", _check_catalan),
    ("copy-enumeration", _check_copies),
    ("triple-encoding", _check_triples),
    ("copy-substructure-bridge", _check_bridge),
    ("arrow-vs-exhaustion", _check_arrows),
    ("min-arrow-heights", _check_min_heights),
    ("leafcolor-extractor", _check_extractor),
    ("reduction-chain", _check_reduction),
]


def run(stream: TextIO | None = None) -> dict:
    stream = stream if stream is not None else sys.stderr
    results = []
    passed = 0
    for name, fn in _CHECKS:
        ok, detail = fn()
        results.append({"name": name, "ok": ok, "detail": detail})
        passed += ok
        print(("ok  " if ok else "FAIL") + f" {name}: {detail}", file=stream)
    return {"passed": passed, "failed": len(_CHECKS) - passed, "checks": results}
