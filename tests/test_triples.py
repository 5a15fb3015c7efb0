import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ramsey_trees
from ramsey_trees import (
    FormatError,
    InconsistentTriplesError,
    PlaneTree,
    ResourceLimitError,
    TripleStructure,
    all_trees,
    iso,
    leaf,
    node,
    parse_newick,
    reconstruct,
    restrict,
    set_max_enumeration,
    structure_of,
    substructure_iso,
)
from ramsey_trees import triples as triples_mod
from helpers import brute_structure, labeled

trees = st.recursive(
    st.just(leaf()), lambda sub: st.builds(node, sub, sub), max_leaves=8
)


def test_structure_of_caterpillar():
    g = structure_of(parse_newick("((a,b),c)"))
    assert g.domain == ("a", "b", "c")
    assert g.triples == frozenset({("a", "b", "c"), ("b", "a", "c")})


def test_structure_of_cherry_is_empty():
    g = structure_of(parse_newick("(a,b)"))
    assert g.domain == ("a", "b")
    assert g.triples == frozenset()


def test_structure_of_uses_positions_when_unlabeled():
    g = structure_of(parse_newick("((,),)"))
    assert g.domain == ("0", "1", "2")
    assert ("0", "1", "2") in g.triples


def test_structure_of_balanced_four_leaves_json():
    g = structure_of(parse_newick("((a,b),(c,d))"))
    assert g.to_json_obj() == {
        "domain": ["a", "b", "c", "d"],
        "triples": [
            ["a", "b", "c"],
            ["a", "b", "d"],
            ["b", "a", "c"],
            ["b", "a", "d"],
            ["c", "d", "a"],
            ["c", "d", "b"],
            ["d", "c", "a"],
            ["d", "c", "b"],
        ],
    }


def test_structure_of_rejects_duplicate_identities():
    with pytest.raises(ValueError, match="not distinct"):
        structure_of(parse_newick("(a,(a,b))"))
    # Unlabeled positions may also collide with explicit labels.
    with pytest.raises(ValueError, match="not distinct"):
        structure_of(parse_newick("(1,(,))"))


def test_constructor_validation():
    with pytest.raises(ValueError, match="^triple relation must be symmetric in the first two slots: "):
        TripleStructure(("a", "b", "c"), frozenset({("a", "b", "c")}))
    with pytest.raises(ValueError, match="^triple must have three distinct entries: "):
        TripleStructure(("a", "b"), frozenset({("a", "a", "b"), ("a", "a", "b")}))
    with pytest.raises(ValueError, match="^triple must have three distinct entries: "):
        TripleStructure(("a", "b"), frozenset({("b", "a", "a")}))
    with pytest.raises(ValueError, match="^triple must have three distinct entries: "):
        TripleStructure(("a", "b"), frozenset({("a", "b", "a")}))
    with pytest.raises(ValueError, match="^triple must have three distinct entries: "):
        TripleStructure(("a", "b", "c"), frozenset({("a", "b", "c", "a")}))
    with pytest.raises(ValueError, match="^triple must have three distinct entries: "):
        TripleStructure(("a", "b"), [["a", "b"], ["b", "a"]])
    with pytest.raises(ValueError, match="^triple entry 'z' is not in the domain"):
        TripleStructure(("a", "b"), frozenset({("a", "b", "z"), ("b", "a", "z")}))
    with pytest.raises(ValueError, match="nonempty"):
        TripleStructure((), frozenset())
    with pytest.raises(ValueError, match="^duplicate leaf identity: "):
        TripleStructure(("a", "a"), frozenset())
    with pytest.raises(ValueError):
        TripleStructure(("a,b",), frozenset())


def test_constructor_keeps_tuples_and_converts_the_rest():
    given = frozenset({("a", "b", "c"), ("b", "a", "c")})
    assert TripleStructure(("a", "b", "c"), given).triples is given
    for other in (frozenset({"abc", "bac"}), [["a", "b", "c"], ["b", "a", "c"]]):
        assert TripleStructure(("a", "b", "c"), other).triples == given


def _assert_passes_full_check(t):
    # structure_of and restrict skip the constructor's whole-set checks;
    # what they build must pass them all the same.
    g = structure_of(t)
    assert TripleStructure(g.domain, g.triples) == g
    d = g.domain
    for keep in (d, d[::2], d[len(d) // 2 :], d[-1:] + d[:1]):
        sub = restrict(g, keep)
        assert TripleStructure(sub.domain, sub.triples) == sub


def test_built_structures_pass_the_full_check_all_small_shapes():
    for n in range(1, 8):
        for t in all_trees(n):
            _assert_passes_full_check(t)
            _assert_passes_full_check(labeled(t))


@given(trees)
def test_built_structures_pass_the_full_check_random(t):
    _assert_passes_full_check(t)


def test_structure_of_still_checks_leaf_identities():
    # A leaf made without leaf() skips its label check; the domain check of
    # structure_of catches it.
    bare = PlaneTree(None, None, "")
    for t in (bare, node(leaf("a"), node(bare, leaf("b")))):
        with pytest.raises(ValueError, match="^leaf identity must be a nonempty string, got ''$"):
            structure_of(t)


_real_split_products = triples_mod._split_products


def _dropping_a_product(t, idents):
    products = [list(p) for p in _real_split_products(t, idents)]
    del products[next(i for i, p in enumerate(products) if p)]
    return products


def _repeating_a_product(t, idents):
    # The first product of a vertex in place of its second: the relation
    # loses its symmetry.
    products = [list(p) for p in _real_split_products(t, idents)]
    i = next(i for i, p in enumerate(products) if p)
    products[i + 1] = products[i]
    return products


@pytest.mark.parametrize("fault", [_dropping_a_product, _repeating_a_product])
def test_triple_count_certificate_catches_a_planted_fault(monkeypatch, fault):
    t = parse_newick("((a,(b,c)),(d,e))")
    monkeypatch.setattr(triples_mod, "_split_products", fault)
    with pytest.raises(RuntimeError, match="^internal error: encoded 17 triples, expected 20$"):
        structure_of(t)


def test_triple_count_certificate_under_optimize():
    # python -O strips assert statements; the certificate must still run.
    script = (
        "import ramsey_trees.triples as tr\n"
        "real = tr._split_products\n"
        "tr._split_products = lambda t, idents: list(real(t, idents))[:-1]\n"
        "try:\n"
        "    tr.structure_of(tr.node(tr.leaf('a'), tr.node(tr.leaf('b'), tr.leaf('c'))))\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(ramsey_trees.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "internal error: encoded 1 triples, expected 2\n"


@given(trees, st.booleans())
def test_json_lists_triples_in_position_order(t, with_labels):
    # to_json_obj sorts on one int per triple; the order is that of the
    # entries' position tuples, byte for byte.
    g = structure_of(labeled(t) if with_labels else t)
    pos = {x: i for i, x in enumerate(g.domain)}
    ordered = sorted(g.triples, key=lambda t: tuple(pos[x] for x in t))
    want = {"domain": list(g.domain), "triples": [list(t) for t in ordered]}
    assert json.dumps(g.to_json_obj()) == json.dumps(want)


def _assert_matches_definition(t):
    g = structure_of(t)
    assert (g.domain, g.triples) == brute_structure(t)
    assert len(g.triples) == 2 * math.comb(t.leaf_count, 3)


def test_structure_of_matches_definition_all_small_shapes():
    for n in range(1, 8):
        for t in all_trees(n):
            _assert_matches_definition(labeled(t))


@given(trees)
def test_structure_of_matches_definition_random(t):
    _assert_matches_definition(t)


def test_triple_cap_charges_exact_count():
    # A 10-leaf tree has 2 * C(10, 3) = 240 triples, whatever its shape.
    t = labeled(all_trees(10)[0])
    set_max_enumeration(240)
    g = structure_of(t)
    assert reconstruct(g) == t
    set_max_enumeration(239)
    with pytest.raises(ResourceLimitError, match="would produce 240 items"):
        structure_of(t)
    with pytest.raises(ResourceLimitError, match="would produce 240 items"):
        reconstruct(g)


def test_reconstruct_roundtrip_labeled():
    t = parse_newick("((a,(b,c)),((d,e),f))")
    assert reconstruct(structure_of(t)) == t


def test_reconstruct_roundtrip_all_small_shapes():
    for n in range(1, 7):
        for t in all_trees(n):
            lt = labeled(t)
            assert reconstruct(structure_of(lt)) == lt
            # Unlabeled trees come back with positional labels; same shape.
            assert iso(reconstruct(structure_of(t)), t)


@given(trees)
def test_reconstruct_roundtrip_random(t):
    assert iso(reconstruct(structure_of(t)), t)


def test_reconstruct_rejects_flipped_orientation():
    # ab|c and bc|a cannot both hold in one tree.
    g = TripleStructure(
        ("a", "b", "c"),
        frozenset({("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a"), ("c", "b", "a")}),
    )
    with pytest.raises(InconsistentTriplesError, match="inconsistent"):
        reconstruct(g)


def test_reconstruct_rejects_unoriented_3_set():
    # Three leaves with no triple at all: no plane tree realizes that.
    g = TripleStructure(("a", "b", "c"), frozenset())
    with pytest.raises(InconsistentTriplesError, match="inconsistent"):
        reconstruct(g)


def test_reconstruct_rejects_wrong_leaf_order():
    # ac|b says a,b are separated later than a,c - impossible with b between.
    g = TripleStructure(
        ("a", "b", "c"), frozenset({("a", "c", "b"), ("c", "a", "b")})
    )
    with pytest.raises(InconsistentTriplesError, match="inconsistent"):
        reconstruct(g)


def test_reconstruct_rejects_surplus_triples():
    g = structure_of(parse_newick("((a,b),(c,d))"))
    extra = g.triples | {("a", "c", "d"), ("c", "a", "d")}
    with pytest.raises(InconsistentTriplesError, match="inconsistent"):
        reconstruct(TripleStructure(g.domain, extra))


def test_reconstruct_rejects_every_single_edit():
    # For leaf positions p < q < r a plane tree orients {p, q} or {q, r}
    # below the third leaf, never {p, r}: the subtree holding p and r holds
    # q too. Flipping a 3-set to pr|q keeps the size, so it must be caught
    # by the split rule or the re-encoding; the other edits change the size.
    for n in range(3, 7):
        for t in all_trees(n):
            g = structure_of(labeled(t))
            d = g.domain
            for p, q, r in itertools.combinations(d, 3):
                pair = {(p, q, r), (q, p, r)} if (p, q, r) in g.triples else {(q, r, p), (r, q, p)}
                outer = {(p, r, q), (r, p, q)}
                for triples in (g.triples - pair | outer, g.triples - pair, g.triples | outer):
                    with pytest.raises(InconsistentTriplesError, match="inconsistent"):
                        reconstruct(TripleStructure(d, triples))


def test_restrict_validation():
    g = structure_of(parse_newick("((a,b),c)"))
    with pytest.raises(ValueError, match="nonempty"):
        restrict(g, ())
    with pytest.raises(ValueError, match="not in the domain"):
        restrict(g, ("a", "z"))


def test_restrict_commutes_with_induced_subtree():
    from ramsey_trees import induced_subtree

    for n in range(2, 6):
        for t in all_trees(n):
            lt = labeled(t)
            g = structure_of(lt)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    sub = induced_subtree(lt, subset)
                    keep = [g.domain[i] for i in subset]
                    assert structure_of(sub) == restrict(g, keep)


def test_substructure_iso_tracks_tree_iso():
    shapes = [labeled(t, "p") for t in all_trees(4)]
    others = [labeled(t, "q") for t in all_trees(4)]
    for a in shapes:
        for b in others:
            assert substructure_iso(structure_of(a), structure_of(b)) == iso(a, b)
    assert not substructure_iso(
        structure_of(parse_newick("(a,b)")), structure_of(parse_newick("((a,b),c)"))
    )


def test_json_roundtrip_and_errors():
    g = structure_of(parse_newick("((a,(b,c)),d)"))
    blob = json.dumps(g.to_json_obj())
    assert TripleStructure.from_json_obj(json.loads(blob)) == g
    with pytest.raises(FormatError):
        TripleStructure.from_json_obj(["a"])
    with pytest.raises(FormatError):
        TripleStructure.from_json_obj({"domain": ["a"]})
    with pytest.raises(FormatError):
        TripleStructure.from_json_obj({"domain": ["a"], "triples": [], "x": 1})
    with pytest.raises(FormatError):
        TripleStructure.from_json_obj({"domain": [1], "triples": []})
    with pytest.raises(FormatError):
        TripleStructure.from_json_obj({"domain": ["a"], "triples": [["a", "b"]]})
    # Structural breakage (asymmetry) surfaces as ValueError from the ctor.
    with pytest.raises(ValueError, match="symmetric"):
        TripleStructure.from_json_obj(
            {"domain": ["a", "b", "c"], "triples": [["a", "b", "c"]]}
        )


def test_json_triples_must_be_an_array():
    for triples in ({}, "abc", None, 3):
        with pytest.raises(FormatError, match='"triples" must be an array'):
            TripleStructure.from_json_obj({"domain": ["a", "b", "c"], "triples": triples})


def test_json_malformed_triple_is_named():
    # Each shape the per-triple loop rejects, alone and after good triples
    # with a second bad one behind it: the message names the first.
    good = [["a", "b", "c"], ["b", "a", "c"]]
    bad_shapes = [
        ("a", "b", "c"), "abc", {"a": 1}, None, 7, [], ["a", "b"], ["a", "b", "c", "a"],
        ["a", "b", 3], [None, "b", "c"], ["a", ["b"], "c"], ["a", "b", True],
    ]
    for bad in bad_shapes:
        message = f"each triple must be an array of three strings: {bad!r}"
        for triples in ([bad], good + [bad, ["x"]]):
            obj = {"domain": ["a", "b", "c"], "triples": triples}
            with pytest.raises(FormatError) as err:
                TripleStructure.from_json_obj(obj)
            assert str(err.value) == message


def test_json_triples_of_list_and_str_subclasses_are_read():
    class Text(str):
        pass

    class Array(list):
        pass

    g = structure_of(parse_newick("((a,b),c)"))
    triples = g.to_json_obj()["triples"]
    for convert in (Array, lambda t: [Text(x) for x in t]):
        obj = {"domain": ["a", "b", "c"], "triples": [convert(t) for t in triples]}
        assert TripleStructure.from_json_obj(obj) == g


def test_json_triples_sorted_by_domain_position():
    g = structure_of(parse_newick("((z,y),x)"))
    obj = g.to_json_obj()
    assert obj["domain"] == ["z", "y", "x"]
    assert obj["triples"] == [["z", "y", "x"], ["y", "z", "x"]]
