import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ramsey_trees import (
    Coloring,
    FormatError,
    ResourceLimitError,
    all_trees,
    check_arrow,
    enumerate_copies,
    find_mono_copy,
    is_copy,
    is_mono,
    leaf,
    node,
    parse_newick,
    perfect_tree,
    set_max_enumeration,
)
import ramsey_trees
from ramsey_trees import coloring
from ramsey_trees.coloring import _least_agreeing
from helpers import brute_copies

CHERRY = parse_newick("(,)")
CAT3 = parse_newick("((,),)")


def leafchi(colors, k=2, host=None):
    host = host if host is not None else perfect_tree(2)
    return Coloring.from_leaf_colors(host, colors, k)


def test_constructor_requires_totality():
    t2 = perfect_tree(2)
    full = dict(Coloring.uniform(t2, CHERRY, 2, 0).assignment)
    missing = dict(full)
    del missing[(0, 1)]
    with pytest.raises(ValueError, match=r"missing copies \[\(0, 1\)\]"):
        Coloring(t2, CHERRY, 2, missing)
    extra = dict(full)
    extra[(0, 1, 2)] = 0
    with pytest.raises(ValueError, match="unknown copies"):
        Coloring(t2, CHERRY, 2, extra)


def test_wrong_key_is_reported_in_linear_time():
    # Each key used to be checked against a set of all copies rebuilt for it,
    # which took minutes on this 32,640-copy host.
    host = perfect_tree(8)
    assignment = dict(Coloring.uniform(host, CHERRY, 2, 0).assignment)
    assert len(assignment) == 32_640
    del assignment[(254, 255)]
    assignment[(1, 0)] = 0
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        Coloring(host, CHERRY, 2, assignment)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "assignment must cover every copy exactly once: "
        "missing copies [(254, 255)]; unknown copies [(1, 0)]"
    )


def test_constructor_checks_colors_and_k():
    t2 = perfect_tree(2)
    full = dict(Coloring.uniform(t2, CHERRY, 2, 0).assignment)
    for bad in (2, -1, True, "0"):
        broken = dict(full)
        broken[(0, 1)] = bad
        with pytest.raises(ValueError, match="color of copy"):
            Coloring(t2, CHERRY, 2, broken)
    for bad_k in (0, True):
        with pytest.raises(ValueError, match="positive integer"):
            Coloring(t2, CHERRY, bad_k, full)


def test_first_bad_color_in_copy_order_is_named():
    t2 = perfect_tree(2)
    copies = list(Coloring.uniform(t2, CHERRY, 2, 0).assignment)
    scrambled = {c: 0 for c in reversed(copies)}
    scrambled[(2, 3)] = 5
    scrambled[(0, 2)] = -1
    with pytest.raises(ValueError) as info:
        Coloring(t2, CHERRY, 2, scrambled)
    assert str(info.value) == "color of copy [0, 2] must be in [0, 2), got -1"


def test_int_subclass_colors_pass_and_bools_do_not():
    class Color(int):
        pass

    t2 = perfect_tree(2)
    copies = list(Coloring.uniform(t2, CHERRY, 2, 0).assignment)
    chi = Coloring(t2, CHERRY, 2, {c: Color(i % 2) for i, c in enumerate(copies)})
    assert [type(col) for col in chi.assignment.values()] == [Color] * len(copies)
    assert list(chi.assignment.values()) == [i % 2 for i in range(len(copies))]
    # True equals the color 1 the other copies have, so it hides in a set
    # of the colors.
    ones = dict.fromkeys(copies, 1)
    ones[(1, 3)] = True
    with pytest.raises(ValueError) as info:
        Coloring(t2, CHERRY, 2, ones)
    assert str(info.value) == "color of copy [1, 3] must be in [0, 2), got True"


def test_assignment_is_canonically_ordered():
    t2 = perfect_tree(2)
    copies = list(Coloring.uniform(t2, CHERRY, 2, 0).assignment)
    scrambled = {c: i % 2 for i, c in enumerate(reversed(copies))}
    chi = Coloring(t2, CHERRY, 2, scrambled)
    assert list(chi.assignment) == copies
    assert chi == Coloring(t2, CHERRY, 2, dict(scrambled))


def test_in_order_assignment_is_copied():
    # An assignment already in copy order is stored as a copy of the
    # caller's dict, in that order; any other is reordered. Both paths keep
    # the checks and their messages.
    host = perfect_tree(3)
    copies = enumerate_copies(host, CHERRY)
    given = {c: i % 2 for i, c in enumerate(copies)}
    chi = Coloring(host, CHERRY, 2, given)
    assert chi.assignment == given and chi.assignment is not given
    assert list(chi.assignment) == copies
    given[copies[0]] = 1
    del given[copies[-1]]
    assert list(chi.assignment.values()) == [i % 2 for i in range(len(copies))]
    backwards = dict(reversed(chi.assignment.items()))
    assert list(Coloring(host, CHERRY, 2, backwards).assignment.items()) == list(
        chi.assignment.items())
    for assignment in (chi.assignment, backwards):
        bad = dict(assignment)
        bad[(2, 5)] = 2
        with pytest.raises(ValueError) as info:
            Coloring(host, CHERRY, 2, bad)
        assert str(info.value) == "color of copy [2, 5] must be in [0, 2), got 2"
    short = dict(chi.assignment)
    del short[copies[-1]]
    long = dict(chi.assignment)
    long[(6, 8)] = 0
    for assignment, message in ((short, "missing copies [(6, 7)]"),
                                (long, "unknown copies [(6, 8)]")):
        with pytest.raises(ValueError) as info:
            Coloring(host, CHERRY, 2, assignment)
        assert str(info.value) == "assignment must cover every copy exactly once: " + message


def test_equal_keys_of_other_types_round_trip():
    # Keys equal to the copies in order are kept as given, bools and floats
    # included; the JSON form writes them as the copies' ints, so it reads
    # back.
    for host, pattern, keys in ((perfect_tree(1), leaf(), [(False,), (True,)]),
                                (perfect_tree(1), CHERRY, [(0.0, 1.0)])):
        copies = enumerate_copies(host, pattern)
        chi = Coloring(host, pattern, 2, dict.fromkeys(keys, 1))
        text = json.dumps(chi.to_json_obj())
        assert text == json.dumps(Coloring(host, pattern, 2, dict.fromkeys(copies, 1)).to_json_obj())
        assert Coloring.from_json_obj(json.loads(text)) == chi


def test_from_leaf_colors():
    chi = leafchi([0, 1, 0, 1])
    assert chi.pattern == leaf()
    assert chi.assignment == {(0,): 0, (1,): 1, (2,): 0, (3,): 1}
    with pytest.raises(ValueError, match="expected 4 leaf colors"):
        leafchi([0, 1])


def test_is_mono():
    chi = leafchi([0, 1, 0, 1])
    assert is_mono(chi, (0, 2)) == 0
    assert is_mono(chi, (1, 3)) == 1
    assert is_mono(chi, (0, 1)) is None
    assert is_mono(chi, (2,)) == 0
    # Region too small to hold any copy of a 2-leaf pattern: vacuous.
    pair = Coloring.uniform(perfect_tree(2), CHERRY, 2, 1)
    assert is_mono(pair, (3,)) == -1
    with pytest.raises(ValueError, match="out of range"):
        is_mono(chi, (0, 9))


def test_find_mono_copy():
    chi = leafchi([0, 1, 0, 1])
    assert find_mono_copy(chi, CHERRY) == ((0, 2), 0)
    assert find_mono_copy(chi, CHERRY, region=(1, 2, 3)) == ((1, 3), 1)
    assert find_mono_copy(leafchi([0, 1], host=CHERRY), CHERRY) is None
    # The lexicographically least qualifying copy wins.
    chi2 = leafchi([0, 0, 1, 0])
    assert find_mono_copy(chi2, CHERRY) == ((0, 1), 0)
    assert find_mono_copy(chi2, parse_newick("((,),)")) == ((0, 1, 3), 0)


def _random_coloring(rng, host, pattern, k):
    return Coloring(host, pattern, k, {c: rng.randrange(k) for c in brute_copies(host, pattern)})


def _scan_mono(chi, target, region):
    for cand in brute_copies(chi.host, target):
        if region is None or set(region).issuperset(cand):
            color = is_mono(chi, cand)
            if color is not None:
                return cand, color
    return None


def test_find_mono_copy_matches_scan_oracle():
    rng = random.Random(20261017)
    hosts = [t for n in range(3, 6) for t in all_trees(n)] + [perfect_tree(3), perfect_tree(4)]
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    patterns = [t for n in range(1, 4) for t in all_trees(n)]
    for host in hosts:
        for pattern in patterns:
            for k in (1, 2, 3):
                chi = _random_coloring(rng, host, pattern, k)
                n = host.leaf_count
                region = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
                for target in targets:
                    for reg in (None, region):
                        expected = _scan_mono(chi, target, reg)
                        assert find_mono_copy(chi, target, region=reg) == expected


def _brute_least_leafwise(host, region, target, values):
    for cand in brute_copies(host, target):
        if (region is None or set(region).issuperset(cand)) and len({values[i] for i in cand}) == 1:
            return cand, values[cand[0]]
    return None


def test_leaf_pass_matches_brute_force():
    # Every host of <= 7 leaves and target of <= 4 leaves, k <= 3, with and
    # without a region; the values are colors, or pairs of them, as the pass
    # accepts any hashable value.
    rng = random.Random(2023)
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    found = 0
    for host in (t for n in range(1, 8) for t in all_trees(n)):
        n = host.leaf_count
        for k in (1, 2, 3):
            colors = [rng.randrange(k) for _ in range(n)]
            pairs = [(c, rng.randrange(k)) for c in colors]
            region = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
            for values in (colors, pairs):
                for target in targets:
                    for reg in (None, region, tuple(range(n))):
                        want = _brute_least_leafwise(host, reg, target, values)
                        got = _least_agreeing(host, reg, target, leaf(), lambda c: values[c[0]])
                        assert got == want, (host, target, values, reg)
                        found += want is not None
    assert found > 1000


def test_leaf_pass_rechecks_its_answer(monkeypatch):
    # With each plan entry's child slots swapped, the pass builds (,(,))
    # where ((,),) is asked for; the re-check finds it is not a copy.
    split_plan = coloring._split_plan

    def swapped(t):
        plan, sizes, slot = split_plan(t)
        return [(s, b, a) for s, a, b in plan], sizes, slot

    monkeypatch.setattr(coloring, "_split_plan", swapped)
    with pytest.raises(RuntimeError, match=r"leaf pass returned \[0, 2, 3\], not a copy"):
        find_mono_copy(leafchi([0, 0, 0, 0]), CAT3)


def test_leaf_pass_recheck_runs_under_optimize():
    # python -O strips assert statements; the re-check must still run.
    script = (
        "from ramsey_trees import coloring, find_mono_copy, parse_newick, perfect_tree\n"
        "from ramsey_trees import Coloring\n"
        "split_plan = coloring._split_plan\n"
        "def swapped(t):\n"
        "    plan, sizes, slot = split_plan(t)\n"
        "    return [(s, b, a) for s, a, b in plan], sizes, slot\n"
        "coloring._split_plan = swapped\n"
        "chi = Coloring.from_leaf_colors(perfect_tree(2), [0, 0, 0, 0], 1)\n"
        "try:\n"
        "    find_mono_copy(chi, parse_newick('((,),)'))\n"
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
    assert proc.stdout.startswith("internal error: leaf pass returned [0, 2, 3]")


def test_finders_find_nothing_under_bad_colorings():
    # A bad coloring from check_arrow leaves no copy of the target
    # monochromatic, so the search checks every copy and returns None.
    for host, target, pattern, k in (
        (perfect_tree(3), CAT3, CHERRY, 2),
        (perfect_tree(3), perfect_tree(2), CHERRY, 2),
        (perfect_tree(4), CAT3, CHERRY, 3),
        (perfect_tree(3), perfect_tree(2), leaf(), 2),
    ):
        v = check_arrow(host, target, pattern, k)
        assert v.status == "fails"
        n = host.leaf_count
        for region in (None, range(n), range(1, n), range(0, n, 2)):
            assert find_mono_copy(v.witness, target, region=region) is None
            assert _scan_mono(v.witness, target, None if region is None else tuple(region)) is None


def test_find_mono_copy_on_deep_host():
    # A left spine of 1500 cherries, depth 1500, colored 0,0,1,1,0,0,...:
    # the search walks it without recursion. Its first 6 cherries induce the
    # same spine, small enough for the scan oracle.
    def spine(m):
        host = CHERRY
        for _ in range(m - 1):
            host = node(host, CHERRY)
        return host

    def pairs(host):
        return Coloring.from_leaf_colors(host, [(i // 2) % 2 for i in range(host.leaf_count)], 2)

    deep, small = pairs(spine(1500)), pairs(spine(6))
    for target, want in ((CHERRY, (0, 1)), (CAT3, (0, 1, 4)), (perfect_tree(2), (0, 1, 4, 5))):
        got = find_mono_copy(deep, target)
        assert got == (want, 0)
        assert got == _scan_mono(small, target, None)
        assert is_copy(deep.host, want, target) and is_mono(deep, want) == 0
    # Colored 0,1,0,1,..., two leaves of one color meet only at a spine
    # vertex, above every earlier leaf, so no (,(,)) is monochromatic. The
    # search checks every copy; a single leaf's copies are generated, so the
    # leaves under the spine vertices are not charged to the cap.
    alternating = Coloring.from_leaf_colors(spine(200), [i % 2 for i in range(400)], 2)
    set_max_enumeration(10_000)
    assert find_mono_copy(alternating, parse_newick("(,(,))")) is None


def test_find_mono_copy_on_alternating_spine():
    # A left spine of 1500 cherries colored 0,1,0,1,...: the least cherry
    # (0,1) is not monochromatic, so the least caterpillar is (0,2,4). The
    # stream reaches it after a few thousand copies; the caterpillar's spine
    # holds only leaves, so it builds no list to charge to the cap.
    host = CHERRY
    for _ in range(1499):
        host = node(host, CHERRY)
    chi = Coloring.from_leaf_colors(host, [i % 2 for i in range(3000)], 2)
    assert find_mono_copy(chi, CAT3) == ((0, 2, 4), 0)


def test_find_mono_copy_answers_early_on_large_host():
    # The first copy is the answer; the stream must not list the parts in
    # the host's right half first (the cherries of P11 alone are 2,096,128,
    # over the default cap), only those the walk reaches before it.
    chi = Coloring.from_leaf_colors(perfect_tree(12), [0] * 4096, 1)
    assert find_mono_copy(chi, perfect_tree(2)) == ((0, 1, 2, 3), 0)
    chi = Coloring.from_leaf_colors(perfect_tree(8), [0] * 256, 1)
    assert find_mono_copy(chi, parse_newick("(,((,),(,)))")) == ((0, 4, 5, 6, 7), 0)


def test_find_mono_copy_under_enumeration_cap():
    # P5 holds 16,120 copies of P2, over a cap of 2000; the search lists
    # no copies of P2's parts, which the stream generates, and still finds
    # the least copy.
    rng = random.Random(5)
    chi = _random_coloring(rng, perfect_tree(5), CHERRY, 2)
    uncapped = find_mono_copy(chi, perfect_tree(2))
    assert uncapped is not None
    set_max_enumeration(2000)
    with pytest.raises(ResourceLimitError):
        enumerate_copies(perfect_tree(5), perfect_tree(2))
    assert find_mono_copy(chi, perfect_tree(2)) == uncapped


def test_json_roundtrip():
    chi = leafchi([0, 1, 0, 1])
    obj = chi.to_json_obj()
    assert obj["host"] == "((,),(,))"
    assert obj["pattern"] == ""
    assert obj["k"] == 2
    assert obj["assignment"][0] == {"copy": [0], "color": 0}
    assert Coloring.from_json_obj(json.loads(json.dumps(obj))) == chi


def test_json_errors():
    with pytest.raises(FormatError, match="keys"):
        Coloring.from_json_obj({"host": "(,)"})
    with pytest.raises(FormatError, match="Newick"):
        Coloring.from_json_obj({"host": 3, "pattern": "", "k": 2, "assignment": []})
    with pytest.raises(FormatError, match="integer"):
        Coloring.from_json_obj({"host": "(,)", "pattern": "", "k": True, "assignment": []})
    with pytest.raises(FormatError, match="array"):
        Coloring.from_json_obj({"host": "(,)", "pattern": "", "k": 2, "assignment": {}})
    base = {
        "host": "(,)",
        "pattern": "",
        "k": 2,
        "assignment": [{"copy": [0], "color": 0}, {"copy": [1], "color": 5}],
    }
    with pytest.raises(ValueError, match="color of copy"):
        Coloring.from_json_obj(base)
    with pytest.raises(FormatError, match="duplicate"):
        Coloring.from_json_obj(
            {
                "host": "(,)",
                "pattern": "",
                "k": 2,
                "assignment": [{"copy": [0], "color": 0}, {"copy": [0], "color": 1}],
            }
        )
    with pytest.raises(FormatError, match="entries"):
        Coloring.from_json_obj(
            {"host": "(,)", "pattern": "", "k": 2, "assignment": [{"copy": [0]}]}
        )
    # true == 1 and 2.0 == 2 as dict keys: a position must be an int, not a
    # bool or a float, even where it would name the right leaf
    for positions in ([0, True, 2, 3], [0, 1, 2.0, 3]):
        with pytest.raises(FormatError, match="entries"):
            Coloring.from_json_obj(
                {
                    "host": "((,),(,))",
                    "pattern": "",
                    "k": 2,
                    "assignment": [{"copy": [p], "color": 0} for p in positions],
                }
            )
    # Totality failures surface from the constructor.
    with pytest.raises(ValueError, match="cover every copy"):
        Coloring.from_json_obj(
            {"host": "(,)", "pattern": "", "k": 2, "assignment": [{"copy": [0], "color": 0}]}
        )
