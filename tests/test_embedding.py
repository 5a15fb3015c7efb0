import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from ramsey_trees import (
    Coloring,
    FormatError,
    ResourceLimitError,
    all_trees,
    check_arrow,
    count_copies,
    enumerate_copies,
    find_mono_copy,
    format_copy,
    induced_subtree,
    is_copy,
    iso,
    iterate,
    leaf,
    leaf_lca_depth,
    node,
    parse_copy,
    parse_newick,
    perfect_tree,
    set_max_enumeration,
    to_newick,
    validate_copy,
)
from ramsey_trees import embedding
from ramsey_trees.arrows import _arrow_edges
from ramsey_trees.embedding import _copies, _count_table
from helpers import brute_copies, naive_induced_shape, naive_shape, perfect_induced_shape, traced

trees = st.recursive(
    st.just(leaf()), lambda sub: st.builds(node, sub, sub), max_leaves=8
)


def test_induced_subtree_frozen_examples():
    t2 = perfect_tree(2)
    assert to_newick(induced_subtree(t2, (0, 1, 2))) == "((,),)"
    assert to_newick(induced_subtree(t2, (0, 2, 3))) == "(,(,))"
    assert to_newick(induced_subtree(t2, (0, 2))) == "(,)"
    assert induced_subtree(t2, (0, 1, 2, 3)) == t2


def test_induced_subtree_keeps_labels():
    t = parse_newick("((a,b),(c,d))")
    assert to_newick(induced_subtree(t, (0, 2, 3))) == "(a,(c,d))"
    single = induced_subtree(t, (1,))
    assert single.is_leaf and single.label == "b"


@given(trees, st.data())
def test_induced_subtree_matches_naive_closure(t, data):
    n = t.leaf_count
    size = data.draw(st.integers(1, n))
    s = tuple(sorted(data.draw(st.permutations(range(n)))[:size]))
    assert naive_shape(induced_subtree(t, s)) == naive_induced_shape(t, s)


def test_leaf_lca_depth_on_caterpillar():
    t = parse_newick("(((a,b),c),d)")
    assert leaf_lca_depth(t, 0, 1) == 2
    assert leaf_lca_depth(t, 1, 2) == 1
    assert leaf_lca_depth(t, 0, 3) == 0
    for a, b in ((2, 2), (True, 2), (0.5, 2), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            leaf_lca_depth(t, a, b)


def test_leaf_lca_depth_on_large_perfect_hosts():
    rng = random.Random(18)
    for d in (18, 20):
        t = perfect_tree(d)
        for _ in range(200):
            a, b = rng.sample(range(1 << d), 2)
            assert leaf_lca_depth(t, a, b) == d - (a ^ b).bit_length()


def test_induced_subtree_on_large_perfect_host():
    t = perfect_tree(18)
    rng = random.Random(8)
    sets = [sorted(rng.sample(range(1 << 18), 8)) for _ in range(200)]
    # runs of 8 consecutive leaves, some filling a whole host subtree
    sets += [list(range(x, x + 8)) for x in rng.sample(range((1 << 18) - 8), 20)]
    sets += [list(range(x, x + 8)) for x in (0, 8 * rng.randrange(1 << 15))]
    for s in sets:
        assert naive_shape(induced_subtree(t, s)) == perfect_induced_shape(18, s), s


def test_enumerate_copies_frozen_examples():
    t2 = perfect_tree(2)
    assert enumerate_copies(t2, perfect_tree(1)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert enumerate_copies(t2, parse_newick("((a,b),c)")) == [(0, 1, 2), (0, 1, 3)]
    assert enumerate_copies(t2, t2) == [(0, 1, 2, 3)]
    assert enumerate_copies(perfect_tree(1), t2) == []


def test_count_copies_frozen_examples():
    t2 = perfect_tree(2)
    assert count_copies(t2, perfect_tree(1)) == 6
    assert count_copies(t2, parse_newick("((,),)")) == 2
    assert count_copies(perfect_tree(3), t2) == 38
    assert count_copies(perfect_tree(4), t2) == 860
    assert count_copies(t2, leaf()) == 4


def test_copies_match_bruteforce_on_small_universe():
    # Two-leaf parts come at a walk's last level (generated as leaf pairs),
    # at inner levels and as block heads (listed by nested walks).
    hosts = [t for n in range(1, 8) for t in all_trees(n)] + [perfect_tree(3), perfect_tree(4)]
    patterns = [p for n in range(1, 6) for p in all_trees(n)]
    for host in hosts:
        for pattern in patterns:
            expected = brute_copies(host, pattern)
            got = enumerate_copies(host, pattern)
            assert got == expected
            assert count_copies(host, pattern) == len(expected)


def test_copies_of_one_and_two_leaves_match_bruteforce():
    # every set of one or two leaves is a copy, whatever the labels
    patterns = [leaf(), leaf("x"), perfect_tree(1), parse_newick("(a,b)")]
    for host in [t for n in range(1, 8) for t in all_trees(n)] + [_comb(40, "left")]:
        for pattern in patterns:
            assert list(_copies(host, pattern)) == brute_copies(host, pattern), (host, pattern)


@given(trees, trees.filter(lambda p: p.leaf_count <= 4))
def test_count_matches_enumeration_length(host, pattern):
    assert count_copies(host, pattern) == len(enumerate_copies(host, pattern))


@given(trees)
def test_every_leaf_pair_is_a_cherry_copy(t):
    n = t.leaf_count
    assert count_copies(t, perfect_tree(1)) == n * (n - 1) // 2


@given(trees, trees.filter(lambda p: p.leaf_count <= 4))
def test_enumeration_is_sorted_and_distinct(host, pattern):
    got = enumerate_copies(host, pattern)
    assert got == sorted(set(got))


def test_copies_compose():
    hosts = [t for n in range(4, 6) for t in all_trees(n)]
    for host in hosts:
        for pattern in all_trees(3):
            for s in enumerate_copies(host, pattern):
                for inner_pat in all_trees(2):
                    sub = induced_subtree(host, s)
                    for r in enumerate_copies(sub, inner_pat):
                        lifted = tuple(s[i] for i in r)
                        assert is_copy(host, lifted, inner_pat)


def test_is_copy_checks_size_and_shape():
    t2 = perfect_tree(2)
    assert is_copy(t2, (0, 1), perfect_tree(1))
    assert not is_copy(t2, (0, 1), leaf())
    assert not is_copy(t2, (0, 2, 3), parse_newick("((,),)"))
    assert is_copy(t2, (0, 2, 3), parse_newick("(,(,))"))


def test_validate_copy_rejects_bad_subsets():
    t2 = perfect_tree(2)
    with pytest.raises(ValueError, match="nonempty"):
        validate_copy(t2, ())
    with pytest.raises(ValueError, match="out of range"):
        validate_copy(t2, (0, 4))
    with pytest.raises(ValueError, match="distinct"):
        validate_copy(t2, (1, 1))
    assert validate_copy(t2, [3, 0]) == (0, 3)


def test_copy_text_form():
    assert format_copy((0, 1, 3)) == "[0,1,3]"
    assert parse_copy("[0,1,3]") == (0, 1, 3)
    assert parse_copy("[]") == ()
    with pytest.raises(FormatError):
        parse_copy("[1,0]")
    with pytest.raises(FormatError):
        parse_copy("[0.5]")
    with pytest.raises(FormatError):
        parse_copy("nope")


def test_least_copy_matches_subset_oracle():
    # accept passes a random share of the copies (all, none, or about a
    # third or two thirds); the answer is the least copy it passes.
    rng = random.Random(4)
    hosts = [t for n in range(1, 8) for t in all_trees(n)] + [perfect_tree(3)]
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    tailed = [node(t, leaf()) for t in all_trees(4)]  # a leaf as the root's right child
    for host in hosts:
        for target in targets + (tailed if host.leaf_count <= 6 else []):
            copies = brute_copies(host, target)
            for share in (1.0, 0.0, 0.33, 0.67):
                passed = {c for c in copies if rng.random() < share}
                asked = []

                def accept(c):
                    asked.append(c)
                    return c in passed

                want = min(passed, default=None)
                assert next(filter(accept, _copies(host, target)), None) == want, (host, target, share)
                # exactly the copies up to the answer are tried, in order, once each
                tried = copies if want is None else copies[: copies.index(want) + 1]
                assert asked == tried, (host, target, share)


def test_deep_host_does_not_hit_recursion_limits():
    text = "(,)"
    for _ in range(3000):
        text = f"({text},)"
    t = parse_newick(text)
    assert t.leaf_count == 3002
    assert to_newick(t) == text
    assert to_newick(induced_subtree(t, (0, 1, 3001))) == "((,),)"
    rng = random.Random(3002)
    for a, b in [(0, 1), (0, 3001)] + [sorted(rng.sample(range(3002), 2)) for _ in range(50)]:
        assert leaf_lca_depth(t, a, b) == 3002 - 1 - b
    assert count_copies(t, perfect_tree(1)) == 3002 * 3001 // 2


def _comb(n, side):
    t = leaf()
    for _ in range(n - 1):
        t = node(t, leaf()) if side == "left" else node(leaf(), t)
    return t


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_pattern_in_itself(side):
    # one copy, found without Python recursion per pattern level
    c = _comb(1100, side)
    assert enumerate_copies(c, c) == [tuple(range(1100))]


@pytest.fixture
def walks(monkeypatch):
    """The arguments of every _walk started from here on, in order."""
    started = []
    walk = embedding._walk

    def counted(*args):
        started.append(args)
        return walk(*args)

    monkeypatch.setattr(embedding, "_walk", counted)
    return started


def test_stream_charges_only_the_lists_it_builds(walks):
    # The copies streamed are not charged, and neither are parts at the
    # last level that are leaves or cherries, which the walk generates: the
    # 278,256 copies of ((,),(,)) and 20,832 of ((,),) in P6 build no list.
    host = perfect_tree(6)
    set_max_enumeration(1)
    assert sum(1 for _ in _copies(host, parse_newick("((,),(,))"))) == 278256
    assert sum(1 for _ in _copies(host, parse_newick("((,),)"))) == 20832
    # In P5, the copies of ((,),(,(,))) need the copies of (,(,)) in the
    # right children, one list per height as the host shares its subtrees:
    # 2 + 28 + 280 = 310 items.
    host, pattern = perfect_tree(5), parse_newick("((,),(,(,)))")
    set_max_enumeration(309)
    with pytest.raises(ResourceLimitError, match="310 items"):
        list(_copies(host, pattern))
    set_max_enumeration(310)
    assert sum(1 for _ in _copies(host, pattern)) == 35216 == count_copies(host, pattern)
    # Over small hosts and patterns: with T the total length of the lists
    # the stream stored, it passes at cap T and refuses at T - 1, naming T.
    hosts = [t for n in range(3, 8) for t in all_trees(n)] + [perfect_tree(d) for d in (3, 4, 5)]
    patterns = [p for m in range(3, 7) for p in all_trees(m)]
    for host in hosts:
        for pattern in patterns:
            walks.clear()
            set_max_enumeration(10**9)
            want = list(_copies(host, pattern))
            total = sum(map(len, walks[0][2].values()))  # the root walk's lists
            set_max_enumeration(max(total, 1))  # the cap is at least 1
            assert list(_copies(host, pattern)) == want, (host, pattern)
            if total > 1:
                set_max_enumeration(total - 1)
                with pytest.raises(ResourceLimitError, match=f"produce {total} items"):
                    list(_copies(host, pattern))


def test_stream_charges_a_list_before_building_it():
    # In P6, the copies of ((,),((,),)) need the caterpillars of the right
    # children of heights 2-5, one list per height: 2 + 28 + 280 + 2480 =
    # 2790 items.
    host, pattern = perfect_tree(6), parse_newick("((,),((,),))")
    set_max_enumeration(2789)
    with pytest.raises(ResourceLimitError):
        list(_copies(host, pattern))
    set_max_enumeration(2790)
    assert sum(1 for _ in _copies(host, pattern)) == count_copies(host, pattern)
    # The first list asked for here holds the caterpillars of (P1, P12),
    # 5,722,433,536 by the count table: over the cap, it is refused before
    # any of it is listed.
    host = node(leaf(), node(perfect_tree(1), perfect_tree(12)))

    def refused(pattern, match):
        # the traced peak of a first copy that the cap refuses
        counts = _count_table(host, pattern)

        def first():
            with pytest.raises(ResourceLimitError, match=match):
                next(_copies(host, pattern, counts))

        return traced(first)[1]

    set_max_enumeration(1000)
    peak = refused(parse_newick("(,((,),))"), "5722433536 items")
    assert peak < 32_000, peak
    # The same for a right comb: its first list holds the 5,739,202,560
    # copies of (,(,)) in (P1, P12). Both peaks are about 7 KB.
    peak = refused(parse_newick("(,(,(,)))"), "5739202560 items")
    assert peak < 144_000, peak


def test_a_refused_list_starts_no_walk(walks):
    # The cap refuses a list by its count in the table, before the list's
    # walk starts, so the only walk is the root's. Charged batch by batch,
    # each list had its own walk started first.
    host = node(leaf(), node(perfect_tree(1), perfect_tree(12)))
    set_max_enumeration(1000)
    for text in ("(,((,),))", "(,(,(,)))"):
        walks.clear()
        with pytest.raises(ResourceLimitError):
            next(_copies(host, parse_newick(text)))
        assert len(walks) == 1 and walks[0][0] is host, text


def test_first_copy_of_a_leaf_tailed_pattern_is_cheap():
    # A block's first row is lazy, and the product of its other rows, whose
    # pools hold a range of positions, is built only once that row is read:
    # taking the whole block as one product holds 2.6 MB and 366 KB here.
    # The peak includes the count table the stream builds.
    for height, text, first in ((16, "((,),)", (0, 1, 2)), (12, "((,(,)),)", (0, 2, 3, 4))):
        host, pattern = perfect_tree(height), parse_newick(text)
        got, peak = traced(lambda: next(_copies(host, pattern)))
        assert got == first
        assert peak < 32_000, (height, text, peak)


# patterns of 3-5 leaves whose root has a leaf as its right child, and of
# at most 6 leaves whose right part is one of them
TAILED = [node(p, leaf()) for m in range(2, 5) for p in all_trees(m)]
RIGHT_TAILED = [node(p, r) for r in TAILED for m in range(1, 7 - r.leaf_count) for p in all_trees(m)]


def test_copies_of_leaf_tailed_patterns_match_bruteforce():
    hosts = [t for n in range(1, 8) for t in all_trees(n)] + [perfect_tree(3), perfect_tree(4)]
    for host in hosts:
        for pattern in TAILED + RIGHT_TAILED:
            assert list(_copies(host, pattern)) == brute_copies(host, pattern), (host, pattern)
    # Every m-subset of a comb's leaves induces the m-leaf comb of its side;
    # trying each subset of 40 leaves would take minutes.
    for side in ("left", "right"):
        host = _comb(40, side)
        for pattern in TAILED + RIGHT_TAILED:
            m = pattern.leaf_count
            want = list(itertools.combinations(range(40), m)) if iso(pattern, _comb(m, side)) else []
            assert list(_copies(host, pattern)) == want, (side, pattern)


# The count table: one vector of counts per distinct host vertex.

PATTERNS = [p for m in range(1, 6) for p in all_trees(m)]


def _unshared_perfect(d, first=0):
    if d == 0:
        return leaf(str(first))
    return node(_unshared_perfect(d - 1, first), _unshared_perfect(d - 1, first + (1 << d - 1)))


def _mirror(t):
    return t if t.is_leaf else node(_mirror(t.right), _mirror(t.left))


def test_last_level_cherries_are_generated_not_listed(walks):
    # Every leaf pair of a subtree is a cherry, so a stream whose last part
    # is a cherry holds no list of them: P2 in P6 and (,(,)) in P7 peak at
    # about 13 KB and 9 KB, where listing and shifting the cherries of each
    # right child took about 95 KB and 355 KB.
    for host, text, want in ((perfect_tree(6), "((,),(,))", 278_256),
                             (perfect_tree(7), "(,(,))", 170_688)):
        pattern = parse_newick(text)
        got, peak = traced(lambda: sum(1 for _ in _copies(host, pattern)))
        assert got == want == count_copies(host, pattern), text
        assert peak < 32_000, (text, peak)
    # and the P2 stream starts no walk but its own
    walks.clear()
    assert sum(1 for _ in _copies(perfect_tree(6), perfect_tree(2))) == 278_256
    assert len(walks) == 1


@pytest.mark.parametrize("d", range(7))
def test_counts_do_not_depend_on_sharing(d):
    shared, apart = perfect_tree(d), _unshared_perfect(d)
    for p in PATTERNS:
        assert count_copies(shared, p) == count_copies(apart, p), (d, p)


def _rebuilt(t):
    """t with every vertex a new object, so no subtree is shared."""
    return leaf() if t.is_leaf else node(_rebuilt(t.left), _rebuilt(t.right))


def test_answers_do_not_depend_on_how_a_target_shares_subtrees():
    # The split plan numbers a target's vertex objects, not its shapes:
    # all_trees shares equal subtrees, and a rebuilt target has a slot for
    # each of them. Counts, the copy stream, the leaf DP and the leaf pass
    # must give the same answers on both.
    targets = [(t, _rebuilt(t)) for m in range(2, 6) for t in all_trees(m)]
    hosts = [h for n in range(1, 8) for h in all_trees(n)]
    statuses, found = set(), 0
    for target, apart in targets:
        for host in hosts:
            assert count_copies(host, target) == count_copies(host, apart), (host, target)
            assert enumerate_copies(host, target) == enumerate_copies(host, apart), (host, target)
        for host in (h for h in hosts if 2 <= h.leaf_count <= 6):
            for k in (2, 3):
                v, w = (check_arrow(host, t, leaf(), k) for t in (target, apart))
                assert (v.status, v.nodes, v.witness) == (w.status, w.nodes, w.witness), (
                    host, target, k)
                statuses.add(v.status)
    rng = random.Random(30)
    for host in (perfect_tree(4), perfect_tree(5)):
        n = host.leaf_count
        for k in (1, 2, 3):
            for _ in range(3):
                chi = Coloring.from_leaf_colors(host, [rng.randrange(k) for _ in range(n)], k)
                region = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
                for target, apart in targets:
                    for reg in (None, region):
                        got = find_mono_copy(chi, target, reg)
                        assert got == find_mono_copy(chi, apart, reg), (chi.assignment, target, reg)
                        found += got is not None
    assert statuses == {"holds", "fails"}
    assert found > 100, found


def test_counts_on_large_hosts_sum_to_the_leaf_subsets():
    # every m-subset of the leaves induces exactly one m-leaf shape
    p20 = perfect_tree(20)
    for host in (p20, iterate(parse_newick("((,),)"), 8)):
        n = host.leaf_count
        for m in range(1, 6):
            assert sum(count_copies(host, p) for p in all_trees(m)) == math.comb(n, m)
    for p in PATTERNS:
        assert count_copies(p20, p) == count_copies(p20, _mirror(p)), p


def test_counts_in_a_deep_comb():
    comb = _comb(3002, "left")
    for m in range(1, 6):
        for p in all_trees(m):
            want = math.comb(3002, m) if iso(p, _comb(m, "left")) else 0
            assert count_copies(comb, p) == want, p


def test_counts_when_pattern_vertices_are_host_vertices():
    for t in (perfect_tree(4), _comb(9, "left"), parse_newick("((,(,)),((,),))")):
        assert count_copies(t, t) == 1
        apart = parse_newick(to_newick(t.left))
        assert count_copies(t, t.left) == count_copies(t, apart) == len(brute_copies(t, apart))
        assert enumerate_copies(t, t.left) == brute_copies(t, apart)


def test_patterns_nearly_as_large_as_the_host():
    # only the windows of the pattern's largest vertices are counted here
    for n in range(1, 7):
        for host in all_trees(n):
            for m in range(max(1, n - 2), n + 2):
                for p in all_trees(m):
                    want = brute_copies(host, p)
                    assert count_copies(host, p) == len(want), (host, p)
                    assert enumerate_copies(host, p) == want, (host, p)


def test_count_memory_is_bounded():
    # peaks: about 2.2 MB for a 5-leaf comb in the 3002-leaf comb, one
    # vector of six slots per host vertex, and about 1 MB for an 1100-leaf
    # comb in itself, where a host vertex counts one window of slots
    cases = [(_comb(3002, "left"), _comb(5, "left"), math.comb(3002, 5), 4e6)]
    deep = _comb(1100, "left")
    cases.append((deep, deep, 1, 2e6))
    for host, pattern, want, bound in cases:
        got, peak = traced(lambda: count_copies(host, pattern))
        assert got == want
        assert peak < bound, (host.leaf_count, pattern.leaf_count, peak)


def test_copy_listing_memory_is_bounded():
    # 20,832 caterpillar copies in P6 peak at about 1479 KiB, the same
    # under PYTHONHASHSEED 1, 2 and 3
    host, pattern = perfect_tree(6), parse_newick("((,),)")
    copies, peak = traced(lambda: enumerate_copies(host, pattern))
    assert len(copies) == 20_832
    assert peak < 2 * 2**20, peak


def test_arrow_edges_memory_is_bounded():
    # The constraints of P5 -> (P2)^cherry: 496 variables and 16,120 edges
    # of 6 members peak at about 2304 KiB, the same under PYTHONHASHSEED
    # 1, 2 and 3
    host, target, pattern = perfect_tree(5), perfect_tree(2), parse_newick("(,)")
    (variables, edges), peak = traced(lambda: _arrow_edges(host, target, pattern))
    assert (len(variables), len(edges), {len(e) for e in edges}) == (496, 16_120, {6})
    assert peak < 3 * 2**20, peak
