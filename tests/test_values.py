"""Value semantics of the immutable classes: equality within one class,
hashing by fields, the field-by-field repr, no assignment or deletion, and
construction, copying and pickling."""

import copy
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ramsey_trees
from ramsey_trees import (
    ArrowVerdict,
    Coloring,
    ReductionChain,
    SearchBudget,
    TripleStructure,
    leaf,
    node,
    parse_newick,
    perfect_tree,
)

CHERRY = parse_newick("(,)")
CHI = Coloring(CHERRY, leaf(), 2, {(0,): 0, (1,): 1})
HOLDS = ArrowVerdict("holds", None, 2, 0)
ABC = frozenset({("a", "b", "c"), ("b", "a", "c")})

# Per class: (positional arguments, the same by keyword, a value with one
# field changed).
CASES = {
    SearchBudget: (
        (5, 7),
        {"max_nodes": 5, "max_millis": 7},
        SearchBudget(5, 8),
    ),
    ArrowVerdict: (
        ("fails", CHI, 3, 4),
        {"status": "fails", "witness": CHI, "nodes": 3, "millis": 4},
        ArrowVerdict("fails", CHI, 3, 5),
    ),
    Coloring: (
        (CHERRY, leaf(), 2, {(0,): 0, (1,): 1}),
        {"host": CHERRY, "pattern": leaf(), "k": 2, "assignment": {(1,): 1, (0,): 0}},
        Coloring(CHERRY, leaf(), 2, {(0,): 1, (1,): 1}),
    ),
    ReductionChain: (
        ((CHERRY, perfect_tree(2)), leaf(), 2, (HOLDS,)),
        {"trees": (CHERRY, perfect_tree(2)), "pattern": leaf(), "k": 2, "certificates": (HOLDS,)},
        ReductionChain((CHERRY, perfect_tree(2)), leaf(), 2),
    ),
    TripleStructure: (
        (("a", "b", "c"), ABC),
        {"domain": ["a", "b", "c"], "triples": [["a", "b", "c"], ["b", "a", "c"]]},
        TripleStructure(("a", "b", "c"), frozenset()),
    ),
}

# The text each class printed as a frozen dataclass.
REPRS = [
    (SearchBudget(), "SearchBudget(max_nodes=10000000, max_millis=60000)"),
    (
        ArrowVerdict("fails", CHI, 3, 4),
        "ArrowVerdict(status='fails', witness=Coloring(host=PlaneTree('(,)'), "
        "pattern=PlaneTree(''), k=2, assignment={(0,): 0, (1,): 1}), nodes=3, millis=4)",
    ),
    (
        Coloring(CHERRY, leaf(), 2, {(1,): 1, (0,): 0}),
        "Coloring(host=PlaneTree('(,)'), pattern=PlaneTree(''), k=2, "
        "assignment={(0,): 0, (1,): 1})",
    ),
    (
        ReductionChain((CHERRY, perfect_tree(2)), leaf(), 2, (HOLDS,)),
        "ReductionChain(trees=(PlaneTree('(,)'), PlaneTree('((,),(,))')), "
        "pattern=PlaneTree(''), k=2, "
        "certificates=(ArrowVerdict(status='holds', witness=None, nodes=2, millis=0),))",
    ),
    (
        TripleStructure(["a", "b"], frozenset()),
        "TripleStructure(domain=('a', 'b'), triples=frozenset())",
    ),
]

ids = [cls.__name__ for cls in CASES]


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_equality_is_by_fields_within_one_class(cls):
    args, kwargs, other = CASES[cls]
    value = cls(*args)
    assert value == cls(**kwargs)
    assert not value != cls(**kwargs)
    assert value != other
    assert not value == other
    fields = {name: getattr(value, name) for name in kwargs}
    assert value != types.SimpleNamespace(**fields)
    assert value != type("Sub", (cls,), {})(*args)
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    args, kwargs, _ = CASES[cls]
    value = cls(*args)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_copy_deepcopy_and_pickle_give_equal_values(cls):
    value = cls(*CASES[cls][0])
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(value), copy.deepcopy(value), *pickled):
        assert type(twin) is cls
        assert twin == value
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(CASES[cls][1])), None)


def test_deep_trees_pickle_and_deepcopy_without_recursion():
    # One interpreter frame per level of nesting overflowed the stack here.
    spine = CHERRY
    for _ in range(1500):
        spine = node(spine, CHERRY)
    chi = Coloring.uniform(spine, leaf(), 2, 1)
    for value in (spine, chi):
        twins = [copy.deepcopy(value)]
        twins += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == value


def test_pickled_tree_keeps_its_shared_subtrees():
    t = perfect_tree(20)
    data = pickle.dumps(t)
    assert len(data) < 1024
    loaded = pickle.loads(data)
    assert loaded == t and hash(loaded) == hash(t)
    assert loaded.left is loaded.right and loaded.left.left is loaded.left.right


def test_a_tree_pickled_under_another_hash_seed_is_equal():
    # A tree's hash is built from string hashes, which differ between
    # processes; under two seeds at least one differs from this process's.
    text = "((a,(,)),(b,c))"
    src = str(Path(ramsey_trees.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import pickle, sys\n"
        "from ramsey_trees import Coloring, parse_newick\n"
        f"t = parse_newick({text!r})\n"
        "chi = Coloring.from_leaf_colors(t, [0, 1, 0, 1, 1], 2)\n"
        "sys.stdout.buffer.write(pickle.dumps((t, chi)))\n"
    )
    tree = parse_newick(text)
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, chi = pickle.loads(proc.stdout)
        assert loaded == tree and hash(loaded) == hash(tree)
        assert chi == Coloring.from_leaf_colors(tree, [0, 1, 0, 1, 1], 2)


def test_hash_follows_the_fields():
    assert hash(SearchBudget(5, 7)) == hash(SearchBudget(max_nodes=5, max_millis=7))
    assert hash(HOLDS) == hash(ArrowVerdict("holds", None, 2, 0))
    assert {SearchBudget(), SearchBudget(10_000_000, 60_000)} == {SearchBudget()}
    chain = ReductionChain((CHERRY, perfect_tree(2)), leaf(), 2, (HOLDS,))
    assert hash(chain) == hash(ReductionChain(*CASES[ReductionChain][0]))
    assert hash(TripleStructure(*CASES[TripleStructure][0])) == hash(
        TripleStructure(**CASES[TripleStructure][1])
    )
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(CHI)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(ArrowVerdict("fails", CHI, 3, 4))


@pytest.mark.parametrize("value, text", REPRS, ids=ids)
def test_repr_lists_the_fields(value, text):
    assert repr(value) == text


def test_defaults_and_normalized_fields():
    assert SearchBudget() == SearchBudget(10_000_000, 60_000)
    assert SearchBudget(5) == SearchBudget(5, 60_000)
    assert SearchBudget(max_millis=7).max_nodes == 10_000_000
    chain = ReductionChain(trees=(CHERRY, perfect_tree(2)), pattern=leaf(), k=2)
    assert chain.certificates is None
    structure = TripleStructure(**CASES[TripleStructure][1])
    assert structure.domain == ("a", "b", "c")
    assert structure.triples == ABC
    assert list(Coloring(**CASES[Coloring][1]).assignment) == [(0,), (1,)]
