"""Built-in oracle suite over small instances.

Every check recomputes expected answers by brute force (subset enumeration,
exhaustive coloring search) and compares them with the fast paths. Used by
the `selftest` CLI subcommand; prose goes to a diagnostic stream, the caller
gets a machine-readable summary.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import TextIO

from .tree import (
    PlaneTree,
    all_trees,
    catalan,
    iso,
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
    min_arrow_height,
)


def _labeled(t: PlaneTree, prefix: str = "l") -> PlaneTree:
    """Rebuild t with leaves labeled l0, l1, ... in order."""
    counter = itertools.count()

    def walk(v: PlaneTree) -> PlaneTree:
        if v.is_leaf:
            return leaf(f"{prefix}{next(counter)}")
        return node(walk(v.left), walk(v.right))

    return walk(t)


def _brute_copies(host: PlaneTree, pattern: PlaneTree) -> list[tuple[int, ...]]:
    n = host.leaf_count
    return [
        s
        for s in itertools.combinations(range(n), pattern.leaf_count)
        if is_copy(host, s, pattern)
    ]


def _brute_arrow(host: PlaneTree, target: PlaneTree, pattern: PlaneTree, k: int) -> str:
    """Exhaust all k**m colorings; 'fails' iff some coloring has no
    monochromatic target-copy (a copy with <= 1 inner pattern-copy counts)."""
    variables = _brute_copies(host, pattern)
    index = {c: i for i, c in enumerate(variables)}
    edges = []
    for hc in _brute_copies(host, target):
        hc_set = set(hc)
        edges.append([index[c] for c in variables if hc_set.issuperset(c)])
    for colors in itertools.product(range(k), repeat=len(variables)):
        if not any(len({colors[v] for v in e}) <= 1 for e in edges):
            return "fails"
    return "holds"


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
            for pn in range(1, 4):
                for pattern in all_trees(pn):
                    expected = _brute_copies(host, pattern)
                    got = enumerate_copies(host, pattern)
                    if got != expected or count_copies(host, pattern) != len(expected):
                        return False, f"mismatch for host {to_newick(host)}"
                    pairs += 1
    return True, f"copy counts and listings on {pairs} host/pattern pairs"


def _check_triples() -> tuple[bool, str]:
    cases = 0
    for n in range(1, 7):
        for t in all_trees(n):
            lt = _labeled(t)
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
            lt = _labeled(t)
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
            lt = _labeled(host)
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
    queries = 0
    for hn in range(1, 5):
        for host in all_trees(hn):
            for tn in range(1, 4):
                for target in all_trees(tn):
                    for pn in range(1, 3):
                        for pattern in all_trees(pn):
                            for k in (1, 2):
                                got = check_arrow(host, target, pattern, k).status
                                want = _brute_arrow(host, target, pattern, k)
                                if got != want:
                                    return False, (
                                        f"{to_newick(host)} vs ({to_newick(target)}, "
                                        f"{to_newick(pattern)}, k={k}): {got} != {want}"
                                    )
                                queries += 1
    return True, f"search agrees with exhaustion on {queries} queries"


def _check_min_heights() -> tuple[bool, str]:
    # (target height, k) -> least height of a perfect host that arrows it
    want = {(1, 2): 2, (1, 4): 3, (2, 2): 4, (4, 2): 8}
    got = {(t, k): min_arrow_height(perfect_tree(t), leaf(), k) for t, k in want}
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
