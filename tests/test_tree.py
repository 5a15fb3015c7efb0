import hashlib
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ramsey_trees import (
    ParseError,
    PlaneTree,
    ResourceLimitError,
    all_trees,
    catalan,
    iso,
    iterate,
    leaf,
    node,
    parse_newick,
    perfect_tree,
    set_max_leaves,
    shape_key,
    substitute,
    to_newick,
)
from ramsey_trees import tree

trees = st.recursive(
    st.just(leaf()), lambda sub: st.builds(node, sub, sub), max_leaves=8
)


def test_parse_basic_shapes():
    t = parse_newick("(a,(b,c))")
    assert not t.is_leaf
    assert t.left.label == "a"
    assert t.right.left.label == "b"
    assert t.right.right.label == "c"
    assert t.leaf_count == 3 and t.height == 2


def test_parse_anonymous_and_empty():
    cherry = parse_newick("(,)")
    assert cherry.leaf_count == 2
    assert cherry.left.label is None
    single = parse_newick("")
    assert single.is_leaf and single.label is None
    assert parse_newick("x").label == "x"


def test_parse_ignores_whitespace_outside_labels():
    assert to_newick(parse_newick(" ( a , ( b , c ) ) ")) == "(a,(b,c))"
    assert to_newick(parse_newick("(a b,c)")) == "(a b,c)"  # inner spaces survive
    assert to_newick(parse_newick("(a\u00a0b,\r\nc\t)")) == "(a\u00a0b,c)"


@pytest.mark.parametrize(
    "text, token, offset",
    [
        ("(a", "end of input", 2),
        ("(a,b", "end of input", 4),
        ("(a)", ")", 2),
        ("(a,b))", ")", 5),
        ("a,b", ",", 1),
        ("(a,b)x", "x", 5),
        ("((a,b),(a,b)", "end of input", 12),
        ("((a,b),(a,b))x", "x", 13),
        ("((a,b),(a,b)x)", "x", 12),
        ("(a,b)\u00a0", "\u00a0", 5),  # the whole character, not its first byte
        ("(a,b)\u00e9", "\u00e9", 5),
        ("(\u00a0(a,b),c)", "\u00a0", 1),  # only ASCII whitespace is skipped
        ("(\u00a0a,b)", "\u00a0a", 1),
        ("(a,b \u2003)", "b \u2003", 3),
        ("(a,\udcff)", "\udcff", 3),  # a lone surrogate is not UTF-8
        ("(\u00e9,\ud800)", "\ud800", 4),
    ],
)
def test_parse_errors_carry_token_and_byte_offset(text, token, offset):
    with pytest.raises(ParseError) as err:
        parse_newick(text)
    assert err.value.token == token
    assert err.value.offset == offset
    assert f"byte {offset}" in str(err.value)


def test_parse_outcomes_are_pinned():
    # Every text of at most 6 characters over "(),a", space, tab and U+00A0
    # maps to its parse's Newick text or its error's (message, token,
    # offset). U+00A0 is not skipped, between tokens or around a label, and
    # an error token is a whole character.
    digest = hashlib.sha256()
    for size in range(7):
        for chars in itertools.product("(),a \t\u00a0", repeat=size):
            text = "".join(chars)
            try:
                outcome = to_newick(parse_newick(text))
            except ParseError as err:
                outcome = (str(err), err.token, err.offset)
            digest.update(f"{text!r}\t{outcome!r}\n".encode())
    assert digest.hexdigest() == "dc3f42c1651d1e2ce7c14443bad730d9166da6913abaed97392a0fab9c949bf3"


@given(trees)
def test_newick_roundtrip(t):
    assert parse_newick(to_newick(t)) == t


def _vertex_objects(t):
    seen = set()
    stack = [t]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen.add(id(v))
            if not v.is_leaf:
                stack += (v.left, v.right)
    return len(seen)


def test_parse_shares_twin_subtrees():
    for h in range(17):
        t = parse_newick(to_newick(perfect_tree(h)))
        assert t == perfect_tree(h)
        assert _vertex_objects(t) == h + 1
    plain = parse_newick("((a,b),(a,b))")
    assert plain.left is plain.right
    for text in ("( (a,b) ,(a,b) )", "((a,b) ,(a,b) )", "((a,b), (a,b))", "((a,b),(a,b) )"):
        assert parse_newick(text) == plain
    assert parse_newick("((a,b),(a,c))").right.right.label == "c"
    spaced = parse_newick("(( ,x),\t)")
    assert spaced.left.left is spaced.right and spaced.right.label is None


def test_to_newick_of_shared_tree_matches_unshared_copy():
    def unshared(t):  # rebuilt vertex by vertex, no two vertices one object
        if t.is_leaf:
            return PlaneTree(None, None, t.label)
        return PlaneTree(unshared(t.left), unshared(t.right), None)

    lab = parse_newick("((a,b),c)")
    for t in (perfect_tree(6), iterate(lab, 3), substitute(perfect_tree(3), lab), node(lab, lab)):
        copy = unshared(t)
        assert _vertex_objects(copy) == 2 * t.leaf_count - 1
        assert to_newick(t) == to_newick(copy)
        assert shape_key(t) == shape_key(copy)


def test_deep_spine_parses_and_prints():
    # A left spine of 1500 cherries, depth 1500, all its cherries one object.
    cherry = perfect_tree(1)
    host = cherry
    for _ in range(1499):
        host = node(host, cherry)
    text = to_newick(host)
    assert len(text) == 1500 * 3 + 1499 * 3
    t = parse_newick(text)
    assert t == host and to_newick(t) == text


def test_labeled_roundtrip_is_byte_identical():
    text = "((alpha,beta),(gamma,(delta,eps)))"
    assert to_newick(parse_newick(text)) == text


def test_leaf_label_validation():
    with pytest.raises(ValueError):
        leaf("")
    with pytest.raises(ValueError):
        leaf("a,b")
    with pytest.raises(ValueError):
        leaf(" padded ")


def test_internal_vertex_needs_both_children():
    with pytest.raises(ValueError, match="both children"):
        PlaneTree(leaf(), None, None)


def test_node_needs_tree_children():
    for left, right in ((leaf(), "(,)"), (None, leaf()), (leaf(), 1)):
        with pytest.raises(TypeError, match="PlaneTree instances"):
            node(left, right)


def test_tree_never_equals_a_non_tree():
    assert (leaf() == 3) is False
    assert (perfect_tree(2) == "((,),(,))") is False
    assert leaf() != 3


def test_repr_of_a_large_tree_gives_its_size():
    # Up to 64 leaves the repr is the Newick text; past that, size and height.
    assert repr(perfect_tree(2)) == "PlaneTree('((,),(,))')"
    assert repr(perfect_tree(6)) == f"PlaneTree({to_newick(perfect_tree(6))!r})"
    assert repr(node(perfect_tree(6), leaf())) == "PlaneTree(leaves=65, height=7)"


def test_equality_includes_labels_iso_does_not():
    a = parse_newick("(x,y)")
    b = parse_newick("(x,z)")
    assert a != b
    assert iso(a, b)
    assert a == parse_newick("(x,y)")


def test_trees_built_apart_compare_in_time_of_their_distinct_vertices():
    # Each pair of vertex objects is compared once. Comparing every pair of
    # positions, as before, took seconds on these shared trees.
    for build in (lambda: perfect_tree(20), lambda: iterate(parse_newick("((,),)"), 12)):
        a, b = build(), build()
        start = time.perf_counter()
        assert a == b and iso(a, b)
        assert time.perf_counter() - start < 0.2
    # A pair skipped as seen must not hide a difference met elsewhere.
    x = perfect_tree(3)
    y = parse_newick("(((,),(,)),((,),(,z)))")
    assert node(x, x) != node(x, y) and iso(node(x, x), node(x, y))
    assert node(x, x) == node(x, parse_newick(to_newick(x)))
    assert not iso(node(x, x), node(x, perfect_tree(2)))


@given(trees, trees)
def test_iso_agrees_with_canonical_shape(a, b):
    assert iso(a, b) == (shape_key(a) == shape_key(b))


def test_perfect_tree_shape():
    assert perfect_tree(0).is_leaf
    for c in range(6):
        t = perfect_tree(c)
        assert t.leaf_count == 2**c
        assert t.height == c
    assert to_newick(perfect_tree(2)) == "((,),(,))"


def test_substitute_example():
    outer = parse_newick("((,),)")
    assert to_newick(substitute(outer, perfect_tree(1))) == "(((,),(,)),(,))"


@given(trees, trees)
def test_substitute_multiplies_leaf_counts(g, h):
    assert substitute(g, h).leaf_count == g.leaf_count * h.leaf_count


def test_substitute_walks_a_deep_spine_without_recursion():
    # A left spine of 1500 cherries, depth 1500: each cherry becomes a P2.
    cherry = perfect_tree(1)
    spine, want = cherry, perfect_tree(2)
    for _ in range(1499):
        spine = node(spine, cherry)
        want = node(want, perfect_tree(2))
    got = substitute(spine, cherry)
    assert got == want and got.height == 1501
    assert substitute(leaf(), spine) is spine


def test_rows_list_each_distinct_vertex_once():
    rows = tree._rows(perfect_tree(20))
    assert len(rows) == 21
    assert rows == [None] + [(r, r) for r in range(20)]
    # A subtree met twice is one row, and the rows rebuild the sharing.
    x = parse_newick("((a,b),c)")
    t = node(x, node(leaf("d"), x))
    rows = tree._rows(t)
    assert len(rows) == 5 + 2 + 1
    assert rows.count("a") == 1
    back = tree._from_rows(rows)
    assert back == t and back.left is back.right.right


def test_iterate_laws():
    h = parse_newick("((,),)")
    assert iterate(h, 1) is h
    for i in range(1, 4):
        assert iterate(h, i).leaf_count == h.leaf_count**i
    assert iterate(h, 2) == substitute(h, h)
    with pytest.raises(ValueError):
        iterate(h, 0)


def test_perfect_tree_is_iterated_cherry():
    cherry = perfect_tree(1)
    for c in range(1, 6):
        assert iso(perfect_tree(c), iterate(cherry, c))


def test_all_trees_counts_and_distinctness():
    expected = [1, 1, 2, 5, 14, 42, 132]
    for n, want in zip(range(1, 8), expected):
        ts = all_trees(n)
        assert len(ts) == want == catalan(n - 1)
        assert all(t.leaf_count == n for t in ts)
        assert len({shape_key(t) for t in ts}) == want
    # Each call builds its trees afresh, and keeps none once they are dropped.
    assert all_trees(5)[0] is not all_trees(5)[0]
    tracemalloc.start()
    try:
        assert len(all_trees(10)) == 4862
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024, left
    # the trees of up to 9 leaves and their order
    digest = hashlib.sha256()
    for n in range(1, 10):
        for t in all_trees(n):
            digest.update(to_newick(t).encode() + b";")
    assert digest.hexdigest()[:16] == "e0f53e65e326d269"


def test_leaf_guard_blocks_big_constructions():
    p4_text = to_newick(perfect_tree(4))
    set_max_leaves(8)
    with pytest.raises(ResourceLimitError):
        perfect_tree(4)
    with pytest.raises(ResourceLimitError):
        parse_newick(p4_text)
    with pytest.raises(ResourceLimitError):
        substitute(perfect_tree(2), perfect_tree(2))
    with pytest.raises(ResourceLimitError):
        parse_newick("((((,),(,)),((,),(,))),(,))")
    assert perfect_tree(3).leaf_count == 8  # at the limit is fine


def test_big_tree_via_sharing_stays_cheap():
    t = perfect_tree(20)
    assert t.leaf_count == 1 << 20
    assert t.height == 20
