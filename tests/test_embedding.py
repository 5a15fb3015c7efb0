import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ramsey_trees import (
    FormatError,
    all_trees,
    count_copies,
    enumerate_copies,
    format_copy,
    induced_subtree,
    is_copy,
    leaf,
    leaf_lca_depth,
    node,
    parse_copy,
    parse_newick,
    perfect_tree,
    to_newick,
    validate_copy,
)
from ramsey_trees.embedding import _least_copy
from helpers import brute_copies, naive_induced_shape, naive_shape, perfect_induced_shape

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
    hosts = [t for n in range(1, 7) for t in all_trees(n)]
    patterns = [p for n in range(1, 4) for p in all_trees(n)]
    for host in hosts:
        for pattern in patterns:
            expected = brute_copies(host, pattern)
            got = enumerate_copies(host, pattern)
            assert got == expected
            assert count_copies(host, pattern) == len(expected)


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
    for host in hosts:
        for target in targets:
            copies = brute_copies(host, target)
            for share in (1.0, 0.0, 0.33, 0.67):
                passed = {c for c in copies if rng.random() < share}
                asked = []

                def accept(c):
                    asked.append(c)
                    return c in passed

                want = min(passed, default=None)
                assert _least_copy(host, target, accept) == want, (host, target, share)
                # only copies are tried, each at most once
                assert len(set(asked)) == len(asked) and set(asked) <= set(copies)


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
