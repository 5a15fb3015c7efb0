import pytest
from hypothesis import given, strategies as st

from ramsey_trees import (
    ParseError,
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


@pytest.mark.parametrize(
    "text, token, offset",
    [
        ("(a", "end of input", 2),
        ("(a,b", "end of input", 4),
        ("(a)", ")", 2),
        ("(a,b))", ")", 5),
        ("a,b", ",", 1),
        ("(a,b)x", "x", 5),
    ],
)
def test_parse_errors_carry_token_and_byte_offset(text, token, offset):
    with pytest.raises(ParseError) as err:
        parse_newick(text)
    assert err.value.token == token
    assert err.value.offset == offset
    assert f"byte {offset}" in str(err.value)


@given(trees)
def test_newick_roundtrip(t):
    assert parse_newick(to_newick(t)) == t


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


def test_equality_includes_labels_iso_does_not():
    a = parse_newick("(x,y)")
    b = parse_newick("(x,z)")
    assert a != b
    assert iso(a, b)
    assert a == parse_newick("(x,y)")


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


def test_leaf_guard_blocks_big_constructions():
    set_max_leaves(8)
    with pytest.raises(ResourceLimitError):
        perfect_tree(4)
    with pytest.raises(ResourceLimitError):
        substitute(perfect_tree(2), perfect_tree(2))
    with pytest.raises(ResourceLimitError):
        parse_newick("((((,),(,)),((,),(,))),(,))")
    assert perfect_tree(3).leaf_count == 8  # at the limit is fine


def test_big_tree_via_sharing_stays_cheap():
    t = perfect_tree(20)
    assert t.leaf_count == 1 << 20
    assert t.height == 20
