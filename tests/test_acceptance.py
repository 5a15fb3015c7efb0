"""Acceptance suite: eleven numbered end-to-end checks.

Each test wraps its body in criterion(), which appends one
"criterion N: PASS/FAIL (...)" line to RESULTS; conftest prints the lines
after the run. Wall-clock budgets are asserted where stated. Every bad
coloring produced by check_arrow anywhere in this suite is recorded in
WITNESSES and re-verified from scratch by the final test.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from ramsey_trees import (
    Coloring,
    all_trees,
    build_reduction_chain,
    check_arrow,
    count_copies,
    extract_mono_k,
    extract_mono_leafcolor,
    induced_subtree,
    is_copy,
    is_mono,
    iso,
    iterate,
    leaf,
    min_arrow_height_scan,
    parse_newick,
    perfect_tree,
    reconstruct,
    restrict,
    structure_of,
    substructure_iso,
    to_newick,
)
from helpers import (
    brute_arrow_status,
    brute_copies,
    check_witness,
    labeled,
    naive_induced_shape,
    naive_shape,
)

RESULTS: list[str] = []
WITNESSES: list[tuple] = []  # (host, target, witness Coloring)

CHERRY = parse_newick("(,)")
CAT3 = parse_newick("((,),)")


@contextmanager
def criterion(num: int, label: str, limit_s: float | None):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        RESULTS.append(f"criterion {num}: FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    detail = f"; {info['detail']}" if info["detail"] else ""
    if limit_s is not None and elapsed >= limit_s:
        RESULTS.append(
            f"criterion {num}: FAIL ({label}{detail}; {elapsed:.1f}s over the {limit_s:.0f}s budget)"
        )
        pytest.fail(f"criterion {num} exceeded its {limit_s:.0f}s budget: {elapsed:.1f}s")
    RESULTS.append(f"criterion {num}: PASS ({label}{detail}; {elapsed:.1f}s)")


def checked_arrow(host, target, pattern, k, budget=None):
    """check_arrow, with every emitted bad coloring kept for re-verification."""
    verdict = check_arrow(host, target, pattern, k, budget)
    if verdict.status == "fails":
        WITNESSES.append((host, target, verdict.witness))
    return verdict


def test_criterion_01_catalan_enumeration():
    with criterion(1, "Catalan counts for 1..7 leaves, byte-identical round-trips", 5.0):
        expected = [1, 1, 2, 5, 14, 42, 132]
        for n, want in zip(range(1, 8), expected):
            family = all_trees(n)
            texts = [to_newick(t) for t in family]
            assert len(family) == want
            assert len(set(texts)) == want
            for text in texts:
                assert to_newick(parse_newick(text)) == text


def test_criterion_02_count_matches_bruteforce():
    with criterion(2, "count_copies equals exhaustive enumeration, hosts<=8 x patterns<=4", 60.0) as info:
        patterns = [p for n in range(1, 5) for p in all_trees(n)]
        pairs = 0
        for n in range(1, 9):
            for host in all_trees(n):
                for p in patterns:
                    expected = len(brute_copies(host, p))
                    assert count_copies(host, p) == expected, (to_newick(host), to_newick(p))
                    pairs += 1
        info["detail"] = f"{pairs} host/pattern pairs"


def test_criterion_03_specific_counts():
    with criterion(3, "frozen counts in the height-2 perfect tree", None):
        t2 = perfect_tree(2)
        assert count_copies(t2, CHERRY) == 6
        assert count_copies(t2, CAT3) == 2


def test_criterion_04_triple_roundtrip_and_restriction():
    with criterion(4, "triple-relation round-trips and restriction commuting", 60.0) as info:
        for n in range(1, 8):
            for t in all_trees(n):
                assert iso(reconstruct(structure_of(t)), t)
        checked = 0
        for n in range(1, 7):
            for host in all_trees(n):
                lt = labeled(host)
                g = structure_of(lt)
                for m in range(1, n + 1):
                    for s in itertools.combinations(range(n), m):
                        keep = [g.domain[i] for i in s]
                        assert structure_of(induced_subtree(lt, s)) == restrict(g, keep)
                        checked += 1
        info["detail"] = f"{checked} restrictions"


def test_criterion_05_copy_iff_substructure():
    with criterion(5, "copy <=> induced-substructure isomorphism, hosts<=6 x patterns<=4", None) as info:
        patterns = [
            (p, structure_of(labeled(p, "q"))) for n in range(1, 5) for p in all_trees(n)
        ]
        checked = 0
        for n in range(1, 7):
            for host in all_trees(n):
                lt = labeled(host)
                g = structure_of(lt)
                for p, ps in patterns:
                    m = p.leaf_count
                    if m > n:
                        continue
                    for s in itertools.combinations(range(n), m):
                        keep = [g.domain[i] for i in s]
                        lhs = is_copy(lt, s, p)
                        rhs = substructure_iso(restrict(g, keep), ps)
                        assert lhs == rhs, (to_newick(lt), s, to_newick(p))
                        checked += 1
        info["detail"] = f"{checked} subsets"


def test_criterion_06_arrow_checker_vs_exhaustion():
    with criterion(6, "arrow verdicts equal full coloring enumeration (<=12 copies, k<=3)", 120.0) as info:
        hosts = [t for n in range(1, 7) for t in all_trees(n)]
        smalls = [t for n in range(1, 5) for t in all_trees(n)]
        queries = 0
        for host in hosts:
            for pattern in smalls:
                if len(brute_copies(host, pattern)) > 12:
                    continue
                for target in smalls:
                    for k in (1, 2, 3):
                        expected = brute_arrow_status(host, target, pattern, k)
                        got = checked_arrow(host, target, pattern, k)
                        assert got.status == expected, (
                            to_newick(host), to_newick(target), to_newick(pattern), k,
                        )
                        queries += 1
        info["detail"] = f"{queries} queries"


def test_criterion_07_minimal_heights():
    with criterion(7, "least arrowing heights for the cherry under 2 and 4 colors", None):
        d2, scan2 = min_arrow_height_scan(CHERRY, leaf(), 2)
        d4, scan4 = min_arrow_height_scan(CHERRY, leaf(), 4)
        assert d2 == 2
        assert d4 == 3
        for d, verdict in scan2 + scan4:
            if verdict.status == "fails":
                WITNESSES.append((perfect_tree(d), CHERRY, verdict.witness))
                assert check_witness(perfect_tree(d), CHERRY, verdict.witness)
        # Boundary verdicts confirmed by definitional exhaustion as well.
        assert brute_arrow_status(perfect_tree(1), CHERRY, leaf(), 2) == "fails"
        assert brute_arrow_status(perfect_tree(2), CHERRY, leaf(), 2) == "holds"
        assert brute_arrow_status(perfect_tree(2), CHERRY, leaf(), 4) == "fails"
        assert brute_arrow_status(perfect_tree(3), CHERRY, leaf(), 4) == "holds"


def test_criterion_08_iterated_substitution_arrows():
    with criterion(8, "iterate(h,k) arrows h under k-leaf-colorings", 120.0):
        for h, k in ((CHERRY, 2), (CHERRY, 3), (CAT3, 2)):
            host = iterate(h, k)
            verdict = checked_arrow(host, h, leaf(), k)
            assert verdict.status == "holds", (to_newick(h), k)


def test_criterion_09_extractor_total_correctness():
    with criterion(9, "leaf-coloring extractor correct on every coloring", 60.0) as info:
        cases = [(CHERRY, 2), (CHERRY, 3), (CAT3, 2)]
        total = 0
        for h, j in cases:
            host = iterate(h, j)
            hshape = naive_shape(h)
            n = host.leaf_count
            for colors in itertools.product(range(j), repeat=n):
                chi = Coloring.from_leaf_colors(host, list(colors), j)
                copy, color = extract_mono_leafcolor(h, j, host, chi)
                assert naive_induced_shape(host, copy) == hshape
                assert all(colors[i] == color for i in copy)
                total += 1
        assert total == 2**4 + 3**8 + 2**9
        info["detail"] = f"{total} colorings"


def test_criterion_10_four_color_reduction():
    with criterion(10, "4-to-2 color reduction chain extracts verified mono cherries", 30.0) as info:
        chain = build_reduction_chain(CHERRY, leaf(), 4)
        assert chain.trees == (CHERRY, perfect_tree(2), perfect_tree(4))
        assert all(c.status == "holds" for c in chain.certificates)
        # Replay each link's height scan so its bad colorings enter the registry.
        for i in range(1, len(chain.trees)):
            lower, upper = chain.trees[i - 1], chain.trees[i]
            for d in range(lower.height, upper.height + 1):
                verdict = checked_arrow(perfect_tree(d), lower, leaf(), 2)
                assert verdict.status == ("holds" if d == upper.height else "fails")
        top = chain.trees[-1]
        cherry_shape = naive_shape(CHERRY)
        rng = random.Random(1729)
        for _ in range(200):
            colors = [rng.randrange(4) for _ in range(top.leaf_count)]
            chi = Coloring.from_leaf_colors(top, colors, 4)
            copy, color = extract_mono_k(chain, chi)
            assert is_mono(chi, copy) == color
            assert all(colors[i] == color for i in copy)
            assert naive_induced_shape(top, copy) == cherry_shape
        info["detail"] = "200 seeded colorings"


def test_criterion_11_witness_soundness():
    with criterion(11, "every emitted bad coloring re-verified: no mono target-copy", None) as info:
        # Two guaranteed failures so this check is meaningful even in isolation.
        assert checked_arrow(CHERRY, CHERRY, leaf(), 2).status == "fails"
        assert checked_arrow(perfect_tree(2), perfect_tree(2), leaf(), 2).status == "fails"
        assert len(WITNESSES) >= 2
        bad = [
            (to_newick(h), to_newick(t))
            for h, t, w in WITNESSES
            if not check_witness(h, t, w)
        ]
        assert bad == []
        info["detail"] = f"{len(WITNESSES)} witnesses checked"
