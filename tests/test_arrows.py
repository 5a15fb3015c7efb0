import ast
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ramsey_trees import (
    ArrowVerdict,
    BudgetExhaustedError,
    Coloring,
    FormatError,
    ReductionChain,
    ResourceLimitError,
    SearchBudget,
    all_trees,
    build_reduction_chain,
    catalan,
    check_arrow,
    count_copies,
    enumerate_copies,
    extract_mono_k,
    extract_mono_leafcolor,
    find_mono_copy,
    is_copy,
    is_mono,
    iterate,
    leaf,
    min_arrow_height_scan,
    node,
    parse_newick,
    perfect_tree,
    set_max_enumeration,
    set_max_leaves,
    to_newick,
)
import ramsey_trees
from ramsey_trees import arrows
from ramsey_trees.arrows import _arrow_edges, _polled
from ramsey_trees.coloring import _least_agreeing, _relabel
from helpers import brute_arrow_edges, brute_arrow_status, check_witness, labeled, mirror, traced

CHERRY = parse_newick("(,)")
CAT3 = parse_newick("((,),)")


def test_check_arrow_frozen_verdicts():
    v = check_arrow(CHERRY, CHERRY, leaf(), 2)
    assert v.status == "fails"
    assert v.witness.assignment == {(0,): 0, (1,): 1}
    assert v.nodes == 2

    v = check_arrow(perfect_tree(2), CHERRY, leaf(), 2)
    assert v.status == "holds"
    assert v.nodes == 2

    # Every target-copy holds exactly one pattern-copy: holds without search.
    v = check_arrow(CHERRY, CHERRY, CHERRY, 2)
    assert v.status == "holds" and v.nodes == 0

    # No target-copies at all: any coloring is bad, reported without search.
    v = check_arrow(CHERRY, CAT3, leaf(), 2)
    assert v.status == "fails" and v.nodes == 0
    assert v.witness.assignment == {(0,): 0, (1,): 0}


def test_settled_queries_list_no_copies():
    # A target with one copy of the pattern holds before any P-copy is
    # listed: P12 has 8,386,560 cherries and P5 more P2s than the cap allows.
    v = check_arrow(perfect_tree(12), CHERRY, CHERRY, 2)
    assert (v.status, v.witness, v.nodes) == ("holds", None, 0)
    set_max_enumeration(100)
    v = check_arrow(perfect_tree(5), perfect_tree(2), perfect_tree(2), 2)
    assert (v.status, v.witness, v.nodes) == ("holds", None, 0)


def test_target_copies_are_counted_once_and_capped_on_the_constraint_path(monkeypatch):
    p3, p2 = perfect_tree(3), perfect_tree(2)
    calls = []
    count = arrows.count_copies
    monkeypatch.setattr(arrows, "count_copies", lambda t, p: calls.append((t, p)) or count(t, p))
    check_arrow(p3, p2, CHERRY, 2)
    assert calls == [(p3, p2), (p2, CHERRY)]
    # P3 has 28 cherries and 38 copies of P2: the constraint search is
    # charged for both, the leaf dynamic program for neither.
    set_max_enumeration(30)
    with pytest.raises(ResourceLimitError, match="would produce 38 items"):
        check_arrow(p3, p2, CHERRY, 2)
    assert check_arrow(perfect_tree(4), p2, leaf(), 2).status == "holds"


def test_check_arrow_is_deterministic():
    a = check_arrow(perfect_tree(3), perfect_tree(2), CHERRY, 2)
    b = check_arrow(perfect_tree(3), perfect_tree(2), CHERRY, 2)
    assert (a.status, a.witness, a.nodes) == (b.status, b.witness, b.nodes)


def test_leaf_arrow_same_on_parsed_host():
    # The leaf DP memoizes on object identity; a parsed perfect tree shares
    # its subtrees as perfect_tree does, so the DP walks the same states.
    v = check_arrow(parse_newick(to_newick(perfect_tree(4))), CAT3, leaf(), 2)
    assert (v.status, v.nodes) == ("holds", 5)
    for h in range(1, 7):
        built = perfect_tree(h)
        parsed = parse_newick(to_newick(built))
        for target in (CHERRY, CAT3, parse_newick("(,(,))"), perfect_tree(2)):
            for k in (2, 3):
                a = check_arrow(built, target, leaf(), k)
                b = check_arrow(parsed, target, leaf(), k)
                assert (a.status, a.witness, a.nodes) == (b.status, b.witness, b.nodes)


def test_check_arrow_validates_k():
    for bad in (0, -1, True, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            check_arrow(CHERRY, CHERRY, leaf(), bad)


def test_report_obj_shape():
    v = check_arrow(CHERRY, CHERRY, leaf(), 2)
    obj = v.to_report_obj()
    assert set(obj) == {"verdict", "witness", "nodes", "millis"}
    assert obj["verdict"] == "fails"
    assert obj["witness"]["host"] == "(,)"
    assert isinstance(obj["millis"], int) and obj["millis"] >= 0
    json.dumps(obj)  # must be serializable as-is

    held = check_arrow(perfect_tree(2), CHERRY, leaf(), 2).to_report_obj()
    assert held["verdict"] == "holds" and held["witness"] is None


def test_check_arrow_matches_bruteforce():
    hosts = [t for n in range(1, 6) for t in all_trees(n)]
    targets = [t for n in range(1, 4) for t in all_trees(n)]
    patterns = [leaf(), CHERRY]
    for host in hosts:
        for target in targets:
            for pattern in patterns:
                for k in (1, 2):
                    expected = brute_arrow_status(host, target, pattern, k)
                    got = check_arrow(host, target, pattern, k)
                    assert got.status == expected, (host, target, pattern, k)
                    if got.status == "fails":
                        assert check_witness(host, target, got.witness)


def _random_host(rng: random.Random, n: int):
    if n == 1:
        return leaf()
    i = rng.randrange(1, n)
    return node(_random_host(rng, i), _random_host(rng, n - i))


def test_arrow_verdicts_agree_with_the_mirror(monkeypatch):
    # Leaf i of T is leaf n-1-i of mirror(T), so T -> (H)^P_k holds iff
    # mirror(T) -> (mirror H)^(mirror P)_k does, and a bad coloring carries
    # over copy by copy. Beyond the brute-force universe this is the oracle.
    # The P3 rows must stay: a constraint builder that drops the last member
    # of every edge of 3 or more was caught there and not on larger hosts.
    rng = random.Random(8)
    small = [t for n in (3, 4) for t in all_trees(n)]
    queries = [
        (host, target, pattern, k, 5000)
        for host in (perfect_tree(3), perfect_tree(4))
        for target in small
        for pattern in [t for n in (2, 3) for t in all_trees(n)]
        for k in (2, 3)
    ]
    queries += [
        (perfect_tree(5), parse_newick(target), CHERRY, k, 20_000)
        for target in ("((,),)", "(,(,))", "((,(,)),)", "(,((,),))")
        for k in (2, 3)
    ]
    for _ in range(30):
        host = _random_host(rng, rng.randrange(8, 65))
        queries.append((host, rng.choice(small), leaf(), rng.choice((2, 3)), 5000))
    # perfect hosts are their own mirrors, so many queries meet twice
    verdicts: dict = {}
    local_search = arrows._local_search
    found = 0  # bad colorings the local search returned

    def counted(*args):
        nonlocal found
        colors, nodes = local_search(*args)
        found += colors is not None
        return colors, nodes

    monkeypatch.setattr(arrows, "_local_search", counted)

    def verdict(*query):
        if query not in verdicts:
            budget = SearchBudget(max_nodes=query[4])
            verdicts[query] = check_arrow(*query[:4], budget=budget)
        return verdicts[query]

    witnesses = 0
    for host, target, pattern, k, nodes in queries:
        sides = [(host, target, pattern), (mirror(host), mirror(target), mirror(pattern))]
        got = [verdict(*side, k, nodes) for side in sides]
        statuses = [v.status for v in got]
        assert "unknown" in statuses or statuses[0] == statuses[1], (sides, k, statuses)
        for v, (h, t, p) in zip(got, reversed(sides)):
            if v.status == "fails":
                n = h.leaf_count
                flipped = {
                    tuple(sorted(n - 1 - i for i in c)): col
                    for c, col in v.witness.assignment.items()
                }
                chi = Coloring(h, p, k, flipped)
                assert all(is_mono(chi, hc) is None for hc in enumerate_copies(h, t)), (h, t, p, k)
                witnesses += 1
    assert witnesses >= 100
    # queries the local search decided, each checked through its mirror
    assert found == 9


def test_check_arrow_budget_exhaustion():
    tight = SearchBudget(max_nodes=0, max_millis=60_000)
    v = check_arrow(perfect_tree(2), CHERRY, leaf(), 2, budget=tight)
    assert v.status == "unknown"
    assert v.witness is None
    assert v.nodes == 0


def test_arrow_edges_match_subset_oracle():
    hosts = [t for n in range(1, 7) for t in all_trees(n)] + [perfect_tree(3)]
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    patterns = [t for n in range(1, 4) for t in all_trees(n)]
    for host in hosts:
        for target in targets:
            for pattern in patterns:
                variables, edges = brute_arrow_edges(host, target, pattern)
                got = _arrow_edges(host, target, pattern)
                if edges is None:
                    # check_arrow settles these before building constraints
                    assert count_copies(target, pattern) <= 1, (host, target, pattern)
                    assert got[0] == variables, (host, target, pattern)
                else:
                    # edges come in stream order: each once, none lost
                    assert got[0] == variables, (host, target, pattern)
                    assert len(got[1]) == len(edges), (host, target, pattern)
                    assert sorted(got[1]) == edges, (host, target, pattern)


def _row_edges(host, target, pattern):
    """The constraints of host -> (target)^pattern built one H-copy at a
    time, a row per H-copy: the reference for _arrow_edges, which builds
    them a column of a chunk of H-copies at a time."""
    variables = enumerate_copies(host, pattern)
    index = {c: i for i, c in enumerate(variables)}
    getters = [_relabel(c) for c in enumerate_copies(target, pattern)]
    edges = {}
    for hc in enumerate_copies(host, target):
        edges[tuple(index[get(hc)] for get in getters)] = None
    return variables, list(edges)


def test_arrow_edges_match_the_row_wise_reference():
    # The same edges in the same order on each side of every boundary of
    # the chunks: 16 chunks of up to 1024 H-copies, one chunk exactly full
    # and then a last chunk of one H-copy, one H-copy of 496 members in
    # 496 columns, one of 2,016 members read in two groups, and one of
    # exactly 2,048 members in two full groups. poll(0) comes after every
    # 1024 P-copies and template copies listed, once per chunk, and after
    # every full 1024 members of one H-copy of a template of more than
    # 1024.
    p10 = perfect_tree(10)
    queries = [
        (perfect_tree(5), perfect_tree(2), CHERRY, 16_120),
        (p10, leaf(), leaf(), 1024),
        (node(p10, leaf()), leaf(), leaf(), 1025),
        (perfect_tree(5), perfect_tree(5), CHERRY, 1),
        (perfect_tree(6), perfect_tree(6), CHERRY, 1),
        (perfect_tree(11), perfect_tree(11), leaf(), 1),
    ]
    for host, target, pattern, h_copies in queries:
        assert count_copies(host, target) == h_copies
        polls = []
        got = _arrow_edges(host, target, pattern, polls.append)
        assert got == _row_edges(host, target, pattern), (host, target, pattern)
        m = count_copies(target, pattern)
        assert len(polls) == (len(got[0]) // 1024 + m // 1024 + -(-h_copies // 1024)
                              + h_copies * (m // 1024 if m > 1024 else 0)), (host, target, pattern)


def test_polled_polls_after_every_full_1024_items():
    for n, expected in [(0, 0), (1, 0), (1023, 0), (1024, 1), (1025, 1), (2048, 2)]:
        polls = []
        items = [(i,) for i in range(n)]
        assert list(_polled(iter(items), polls.append, 7)) == items
        assert polls == [7] * expected, n
    # the source is read at most 1024 items ahead of the consumer
    polls = []
    assert next(_polled(itertools.count(), polls.append)) == 0
    assert polls == []


def test_check_arrow_budget_covers_construction():
    # 278,256 H-copies: the time budget runs out while the constraints are
    # still being built, before the search has taken a node.
    start = time.monotonic()
    v = check_arrow(perfect_tree(6), perfect_tree(2), CHERRY, 2, SearchBudget(max_millis=10))
    assert time.monotonic() - start < 1.0
    assert v.status == "unknown"
    assert v.witness is None
    assert v.nodes == 0


def test_budget_stops_h_copy_listing():
    # The H-copies are read from the stream between polls, never listed all
    # at once: with the budget out at the first poll, building the
    # constraints of P6 -> (P2)^cherry stops before it holds more than one
    # batch of its 278,256 4-tuples (about 25 MB when listed): it peaks at
    # about 70 KB.
    polls = []

    def poll(nodes):
        polls.append(nodes)
        raise arrows._OutOfBudget(nodes)

    def build():
        with pytest.raises(arrows._OutOfBudget):
            _arrow_edges(perfect_tree(6), perfect_tree(2), CHERRY, poll)

    peak = traced(build)[1]
    assert polls == [0]
    assert peak < 2_000_000


def test_search_arrow_pinned_path():
    # The schedule fixes the search: the backtracker's variable order, color
    # order, symmetry pin and pruning, the probe and flip allowances, and
    # the local search's seed and choices. A rewrite of its state must walk
    # the same path, so node counts and witnesses are pinned exactly.
    p4, p2, mirror = perfect_tree(4), perfect_tree(2), parse_newick("(,(,))")
    v = check_arrow(p4, CAT3, CHERRY, 3, SearchBudget(max_nodes=20_000))
    assert (v.status, v.nodes) == ("fails", 158)
    colors = "".join(str(v.witness.assignment[c]) for c in sorted(v.witness.assignment))
    assert colors == (
        "000102211212221210202120211202112021001002111202222000120001021020"
        "010012212002101101211101100221101001121201010200101020"
    )
    assert check_witness(p4, CAT3, v.witness)
    for target in (CAT3, mirror):
        v = check_arrow(p4, target, CHERRY, 2, SearchBudget(max_nodes=20_000))
        assert (v.status, v.witness, v.nodes) == ("unknown", None, 20_000), target
    v = check_arrow(p4, p2, CAT3, 2, SearchBudget())
    assert (v.status, v.nodes) == ("holds", 2)

    hosts = [t for n in range(1, 7) for t in all_trees(n)] + [perfect_tree(3)]
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    patterns = [t for n in range(2, 4) for t in all_trees(n)]
    budget = SearchBudget(max_nodes=5_000)
    digest = hashlib.sha256()
    for host, target, pattern, k in itertools.product(hosts, targets, patterns, (1, 2, 3)):
        v = check_arrow(host, target, pattern, k, budget)
        witness = None if v.witness is None else sorted(v.witness.assignment.items())
        digest.update(repr((v.status, v.nodes, witness)).encode())
    assert digest.hexdigest() == "c4f07048160551e7548f1e1bd2447b05a04f0e4aca0263138bad3752bbf794cc"


def test_search_arrow_pinned_path_on_p4():
    # 42 queries on P4: 20 fail, 18 hold and 4 run out of nodes. Targets of
    # four leaves against the cherry give 6-member constraints, and k = 3
    # gives failures deep in a real host's search tree.
    p4 = perfect_tree(4)
    targets = [t for n in (3, 4) for t in all_trees(n)]
    patterns = [t for n in (2, 3) for t in all_trees(n)]
    budget = SearchBudget(max_nodes=5_000)
    digest = hashlib.sha256()
    statuses = []
    for target, pattern, k in itertools.product(targets, patterns, (2, 3)):
        v = check_arrow(p4, target, pattern, k, budget)
        statuses.append(v.status)
        witness = None if v.witness is None else sorted(v.witness.assignment.items())
        digest.update(repr((v.status, v.nodes, witness)).encode())
    assert [statuses.count(s) for s in ("fails", "holds", "unknown")] == [20, 18, 4]
    assert digest.hexdigest() == "cfe2cbc012079cf98fa5647a51a9fd991f65e31b43746d48f3ea2deb1e28081b"


def test_search_arrow_pinned_path_on_p5():
    # P5 has 496 cherries, so the variable masks span many machine digits,
    # and the local search has edges of up to 6 members over 496 variables.
    p5, p2, mirror = perfect_tree(5), perfect_tree(2), parse_newick("(,(,))")
    queries = [
        (p5, target, CHERRY, k, max_nodes)
        for target, max_nodes in ((CAT3, 20_000), (mirror, 20_000), (p2, 10_000))
        for k in (2, 3)
    ]
    queries.append((perfect_tree(4), p2, CHERRY, 2, 20_000))
    digest = hashlib.sha256()
    statuses = []
    for host, target, pattern, k, max_nodes in queries:
        v = check_arrow(host, target, pattern, k, SearchBudget(max_nodes=max_nodes))
        statuses.append(v.status)
        witness = None if v.witness is None else sorted(v.witness.assignment.items())
        digest.update(repr((v.status, v.nodes, witness)).encode())
    assert statuses == ["unknown", "fails"] * 3 + ["fails"]
    assert digest.hexdigest() == "6f0ae1a3b12da54aba3a63cafaa87b4184ac7a0e50529649f2a6be71d7242174"


def _backtracker(host, target, pattern, k, max_nodes, poll=lambda nodes: None):
    """The backtracker alone, with no probe and no local search, on the
    constraints check_arrow builds: (its colors or None, nodes), or
    ("unknown", max_nodes) where it runs out of nodes."""
    variables, edges = _arrow_edges(host, target, pattern, poll)
    search = arrows._backtrack(edges, len(variables), k, max_nodes, poll)
    try:
        return "unknown", next(search)
    except StopIteration as done:
        return done.value


def test_search_arrow_pinned_path_when_unknown():
    # The backtracker's path on queries it leaves unknown is pinned by
    # (nodes, depth d, the colors of depths 0..d-1) at every poll and where
    # it stops at its limit, read from its frame; construction, the
    # schedule's poll before the search and the backtracker's degree count
    # and index build are recorded without a depth.
    # P4 -> (P2)^cherry_2 spends the lookup allowance after about 10k
    # nodes, so its tail pins the lookups that are scanned anew and not
    # stored.
    p4, p5, p2, mirror = perfect_tree(4), perfect_tree(5), perfect_tree(2), parse_newick("(,(,))")
    queries = [(p4, target, 2, 20_000) for target in (CAT3, mirror, p2)]
    queries += [(p5, CAT3, 2, 20_000), (p5, CAT3, 3, 20_000), (p5, mirror, 2, 20_000),
                (p5, p2, 2, 10_000), (p5, p2, 3, 10_000)]
    digest = hashlib.sha256()
    points = 0

    def record(nodes, state):
        nonlocal points
        d = state.get("d") if "color_of" in state else None  # unset before the search
        digest.update(repr((nodes, d, None if d is None else tuple(state["color_of"][:d]))).encode())
        points += 1

    def poll(nodes):
        record(nodes, sys._getframe(1).f_locals)

    for host, target, k, max_nodes in queries:
        variables, edges = _arrow_edges(host, target, CHERRY, poll)
        record(0, {})
        search = arrows._backtrack(edges, len(variables), k, max_nodes, poll)
        assert next(search) == max_nodes
        record(max_nodes, search.gi_frame.f_locals)
    assert points == 315
    assert digest.hexdigest() == "d7697324a5e6809f655053770650c9e30bc3db7c1cf6b248af476a2cc3344ea8"


def test_local_search_pinned_witnesses():
    # Queries the backtracker leaves to the local search: P4 -> (P2)^cherry_2
    # is unknown to it at 1M nodes, P4 -> (caterpillar)^cherry_3 takes it
    # 3,184 nodes and P5 -> (caterpillar)^cherry_3 more than 1M. The probe
    # takes one node per variable (120 on P4, 496 on P5), then the flips.
    p4, p5, p2 = perfect_tree(4), perfect_tree(5), perfect_tree(2)
    digest = hashlib.sha256()
    got = []
    for host, target, k, max_nodes in ((p4, p2, 2, 5_000), (p4, CAT3, 3, 20_000),
                                       (p5, CAT3, 3, 20_000)):
        v = check_arrow(host, target, CHERRY, k, SearchBudget(max_nodes=max_nodes))
        got.append((v.status, v.nodes))
        assert check_witness(host, target, v.witness)
        digest.update(repr(sorted(v.witness.assignment.items())).encode())
    assert got == [("fails", 167), ("fails", 158), ("fails", 1014)]
    assert digest.hexdigest() == "28fdd46b26095a8c5ea703f5613ee77c665dc753da9e5561a0207a2c86bfa927"


def test_search_schedule_budgets(monkeypatch):
    # P4 -> (caterpillar)^cherry_2 holds. Its 120 variables give a probe of
    # nodes 1-120 and at most 240 flips, nodes 121-360, before the
    # backtracker resumes. Every budget, on either side of those bounds,
    # ends unknown with all of its nodes, and a budget the probe spends
    # takes no flip.
    flips = []
    local_search = arrows._local_search

    def counted(edges, m, k, nodes, limit, poll):
        colors, end = local_search(edges, m, k, nodes, limit, poll)
        flips.append(end - nodes)
        return colors, end

    monkeypatch.setattr(arrows, "_local_search", counted)
    for max_nodes in (0, 1, 119, 120, 121, 359, 360, 361, 5_000):
        flips.clear()
        v = check_arrow(perfect_tree(4), CAT3, CHERRY, 2, SearchBudget(max_nodes=max_nodes))
        assert (v.status, v.witness, v.nodes) == ("unknown", None, max_nodes)
        assert flips == ([min(max_nodes - 120, 240)] if max_nodes > 120 else [])


# A planted fault in the local search: a flip does not count the new color
# in the first edge of the variable it flips.
_SKIPPED_UPDATE = ("            now[j] += 1\n", "            now[j] += j != occ[v][0]\n")


def test_local_search_witness_is_rechecked(monkeypatch):
    old, new = _SKIPPED_UPDATE
    source = inspect.getsource(arrows._local_search)
    assert source.count(old) == 1
    namespace = dict(vars(arrows))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(arrows, "_local_search", namespace["_local_search"])
    with pytest.raises(RuntimeError, match="bad coloring leaves edge .* monochromatic"):
        check_arrow(perfect_tree(4), CAT3, CHERRY, 3)


def test_local_search_recheck_runs_under_optimize():
    script = (
        "import inspect\n"
        "from ramsey_trees import arrows, check_arrow, parse_newick, perfect_tree\n"
        f"old, new = {_SKIPPED_UPDATE!r}\n"
        "exec(inspect.getsource(arrows._local_search).replace(old, new), vars(arrows))\n"
        "try:\n"
        "    check_arrow(perfect_tree(4), parse_newick('((,),)'), parse_newick('(,)'), 3)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("internal error: bad coloring leaves edge")
    assert proc.stdout.rstrip().endswith("monochromatic")


def test_search_answers_do_not_depend_on_the_lookup_allowance(monkeypatch):
    # With no allowance every lookup is scanned anew and none is stored; the
    # backtracker's answers on the queries of the P4 digest that reach it,
    # and on the bench's, must be the same.
    p4, p2, mirror = perfect_tree(4), perfect_tree(2), parse_newick("(,(,))")
    queries = [
        (p4, target, pattern, k, 5_000)
        for target in (t for n in (3, 4) for t in all_trees(n))
        for pattern in (t for n in (2, 3) for t in all_trees(n))
        for k in (2, 3)
        if count_copies(p4, target) and count_copies(target, pattern) > 1
    ]
    queries += [(p4, CAT3, CHERRY, 2, 20_000), (p4, mirror, CHERRY, 2, 20_000),
                (p4, CAT3, CHERRY, 3, 20_000), (p4, p2, CAT3, 2, 200_000)]

    def answers():
        return [_backtracker(*query) for query in queries]

    want = answers()
    assert sum(isinstance(colors, list) for colors, _ in want) == 18  # bad colorings
    monkeypatch.setattr(arrows, "_LOOKUP_ALLOWANCE", 0)
    assert answers() == want


def test_search_budget_validates_its_fields():
    # nodes >= max_nodes stops the search, so a bool, negative or
    # fractional budget would silently act as some integer; it is refused.
    for bad in (-1, True, False, 2.5, "5", None):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=bad)
        with pytest.raises(ValueError):
            SearchBudget(max_millis=bad)
    assert SearchBudget(0, 0) == SearchBudget(max_nodes=0, max_millis=0)
    v = check_arrow(perfect_tree(4), CAT3, CHERRY, 2, SearchBudget(max_nodes=1))
    assert (v.status, v.nodes) == ("unknown", 1)


def test_search_arrow_time_budget():
    # Construction takes a few ms; the budget runs out inside the search
    # and is seen at one of its polls: every 1024 backtracker nodes, or
    # every flip.
    start = time.monotonic()
    v = check_arrow(perfect_tree(4), CAT3, CHERRY, 2, SearchBudget(max_millis=30))
    assert time.monotonic() - start < 1.0
    assert (v.status, v.witness) == ("unknown", None)
    assert 0 < v.nodes < 10_000_000


def test_time_budget_stops_the_flips_at_once(monkeypatch):
    # On P5 -> (P2)^cherry_2 a flip reads the edges of 6 members, about 200
    # each, and the 992 flips take tens of ms. The local search polls at
    # every flip, so a time budget that runs out among them is overrun by
    # about one flip, where a poll every 1024 flips would let them all run.
    host, target = perfect_tree(5), perfect_tree(2)
    local_search = arrows._local_search
    spans = []

    def timed(*args):
        start = time.monotonic()
        try:
            return local_search(*args)
        finally:
            spans.append((start, time.monotonic()))

    monkeypatch.setattr(arrows, "_local_search", timed)
    t0 = time.monotonic()
    v = check_arrow(host, target, CHERRY, 2, SearchBudget(max_nodes=1_488))
    assert (v.status, v.nodes) == ("unknown", 1_488)  # the probe's 496 nodes and 992 flips
    [(start, end)] = spans
    max_millis = int((start - t0 + 0.6 * (end - start)) * 1000)
    v = check_arrow(host, target, CHERRY, 2, SearchBudget(max_millis=max_millis))
    assert v.status == "unknown"
    assert v.millis - max_millis < 10, (v.millis, max_millis, v.nodes)


def test_time_budget_stops_the_index_build_at_once(monkeypatch):
    # On P5 -> (P2)^cherry_2 the backtracker counts degrees over 16,120
    # edges, then builds its index over them, about 15 ms, and polls after
    # every 1024 of them in each pass, with 0 nodes, so a time budget that
    # runs out between two of those polls is overrun by well under 5 ms.
    # The budget is the time of the 8th of the index build's 15 polls, the
    # 24th poll of the search, on a timed run. The machine's speed can
    # change from one run to the next, so a pair of runs whose budget ran
    # out elsewhere is made again; a garbage collection of the suite's heap
    # would add its own pause.
    host, target = perfect_tree(5), perfect_tree(2)
    search_arrow = arrows._search_arrow
    stamps = []  # the time of each poll of the search, the first before it

    def search(variables, edges, k, max_nodes, poll):
        def timed(nodes):
            stamps.append(time.monotonic())
            poll(nodes)

        return search_arrow(variables, edges, k, max_nodes, timed)

    monkeypatch.setattr(arrows, "_search_arrow", search)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            stamps.clear()
            t0 = time.monotonic()
            check_arrow(host, target, CHERRY, 2, SearchBudget(max_nodes=500))
            max_millis = int((stamps[23] - t0) * 1000)
            stamps.clear()
            v = check_arrow(host, target, CHERRY, 2, SearchBudget(max_millis=max_millis))
            if 18 <= len(stamps) <= 31:  # stopped by the build's 2nd to 15th poll
                break
    finally:
        gc.enable()
    assert 18 <= len(stamps) <= 31, len(stamps)
    assert (v.status, v.nodes) == ("unknown", 0)
    assert v.millis - max_millis < 5, (v.millis, max_millis)


def test_leaf_arrow_matches_search_oracle():
    # The constraint search decides leaf patterns too and is the oracle here;
    # on P3 and P4 hosts it may run out of nodes, where nothing is compared.
    # The queries check_arrow settles before either engine starts are
    # compared with exhaustion instead.
    hosts = [t for n in range(1, 8) for t in all_trees(n)] + [perfect_tree(3), perfect_tree(4)]
    targets = [t for n in range(1, 5) for t in all_trees(n)]
    decided = 0
    for host in hosts:
        for target in targets:
            for k in (1, 2, 3):
                got = check_arrow(host, target, leaf(), k)
                assert got.status != "unknown", (host, target, k)
                if count_copies(host, target) == 0 or target.is_leaf:
                    assert got.nodes == 0, (host, target, k)
                    want = brute_arrow_status(host, target, leaf(), k)
                else:
                    try:
                        assignment = arrows._search_arrow(
                            *_arrow_edges(host, target, leaf()), k, 20_000, lambda nodes: None
                        )[0]
                        want = "holds" if assignment is None else "fails"
                    except arrows._OutOfBudget:
                        want = "unknown"
                if want != "unknown":
                    assert got.status == want, (host, target, k)
                    decided += 1
                if got.status == "fails":
                    assert check_witness(host, target, got.witness), (host, target, k)
    # every query on the small hosts, and some on P3 and P4, was compared
    assert decided > 3 * len(targets) * (len(hosts) - 2)


def test_leaf_arrow_answers_pinned_on_all_small_hosts():
    # The DP's node counts and witnesses on asymmetric hosts depend on the
    # order it solves vertices in, and on the shape bits of the target.
    digest = hashlib.sha256()
    queries = 0
    for host in (t for n in range(2, 8) for t in all_trees(n)):
        for target in (t for n in range(2, 5) for t in all_trees(n)):
            for k in (2, 3):
                v = check_arrow(host, target, leaf(), k)
                colors = None if v.witness is None else list(v.witness.assignment.values())
                digest.update(repr((v.status, v.nodes, colors)).encode())
                queries += 1
    assert queries == 3136
    assert digest.hexdigest()[:16] == "0e4416ce1d03662f"


def test_leaf_arrow_budgets():
    # P4 -> (P2)^leaf_2 records 6 states; every smaller node budget binds.
    full = check_arrow(perfect_tree(4), perfect_tree(2), leaf(), 2)
    assert (full.status, full.nodes) == ("holds", 6)
    for max_nodes in range(6):
        v = check_arrow(perfect_tree(4), perfect_tree(2), leaf(), 2, SearchBudget(max_nodes=max_nodes))
        assert (v.status, v.witness, v.nodes) == ("unknown", None, max_nodes)

    def unshared(d):  # a perfect tree whose subtrees are all distinct objects
        return leaf() if d == 0 else node(unshared(d - 1), unshared(d - 1))

    host = unshared(8)
    full = check_arrow(host, perfect_tree(4), leaf(), 3)
    assert full.status == "holds" and full.nodes > 1000
    v = check_arrow(host, perfect_tree(4), leaf(), 3, SearchBudget(max_millis=5))
    assert v.status == "unknown" and v.witness is None
    assert v.nodes < full.nodes


def test_leaf_arrow_budget_covers_witness_rebuild():
    # The DP settles P9 -> (P5)^leaf_2 in a few dozen states; rebuilding and
    # re-verifying the bad coloring takes tens of ms and is charged too.
    full = check_arrow(perfect_tree(9), perfect_tree(5), leaf(), 2)
    assert full.status == "fails" and full.millis > 1
    v = check_arrow(perfect_tree(9), perfect_tree(5), leaf(), 2, SearchBudget(max_millis=1))
    assert (v.status, v.witness) == ("unknown", None)
    assert v.nodes <= full.nodes


def test_leaf_arrow_on_deep_host():
    # A left spine of 1500 cherries, depth 1500. A color holds a P2 iff some
    # cherry is all that color and two earlier leaves are too (the split
    # at that cherry's spine vertex).
    host = CHERRY
    for _ in range(1499):
        host = node(host, CHERRY)
    v = check_arrow(host, perfect_tree(2), leaf(), 2)
    assert v.status == "fails"
    colors = [v.witness.assignment[(i,)] for i in range(host.leaf_count)]
    for j in range(0, host.leaf_count, 2):
        if colors[j] == colors[j + 1]:
            assert colors[:j].count(colors[j]) <= 1, j


def test_every_poll_site_stops_the_engines():
    # A poll that raises on its n-th call, for every n: the engines must let
    # _OutOfBudget through from every call site with the nodes that call was
    # given, and must poll the same way on every run. A node budget below
    # the full count stops them with exactly that many nodes.
    def unshared(d):  # a perfect tree whose subtrees are all distinct objects
        return leaf() if d == 0 else node(unshared(d - 1), unshared(d - 1))

    def constraints(host, target, pattern, k, max_nodes, poll):
        # check_arrow's constraint path
        return arrows._search_arrow(*_arrow_edges(host, target, pattern, poll), k, max_nodes, poll)

    def outcome(engine, args, max_nodes, poll):
        # the engine's answer, or the nodes it stopped at
        try:
            return engine(*args, max_nodes, poll)
        except arrows._OutOfBudget as stop:
            return stop.nodes

    # (engine, arguments, node budget, budgets to sweep past 200 nodes:
    # either side of the probe, of the flips and of a poll)
    queries = [
        # vertices, witness rebuild and re-verification of the leaf DP
        (arrows._leaf_arrow, (perfect_tree(9), perfect_tree(5), leaf(), 2), 10_000_000, ()),
        # construction, the poll before the search, then a failing query:
        # the probe's 120 nodes and 47 flips, each flip polled
        (constraints, (perfect_tree(4), perfect_tree(2), CHERRY, 2), 5_000, ()),
        # a holding query: the probe, 240 flips, the backtracker to 2048
        (constraints, (perfect_tree(4), CAT3, CHERRY, 2), 2_048,
         (119, 120, 121, 359, 360, 361, 1023, 1025)),
        # the leaf DP's state products, which need an unshared host
        (arrows._leaf_arrow, (unshared(5), perfect_tree(3), leaf(), 3), 10_000_000, ()),
        # 16,120 edges: construction, the degree count, the index build
        # and the local search's setup each poll 15 or 16 times, and the
        # probe's 496 nodes 13 times as their lookups scan watch entries;
        # then 2 flips
        (constraints, (perfect_tree(5), perfect_tree(2), CHERRY, 2), 498, (495, 496, 497)),
        # a failing query on 1264 edges, polled once in every pass over
        # them, the final re-check too, and once by the lookups of the
        # probe's 190 nodes, then 23 flips
        (constraints, (node(perfect_tree(3), node(perfect_tree(2), perfect_tree(3))),
                       parse_newick("(,(,(,)))"), CHERRY, 2), 5_000, (189, 190, 191)),
        # construction's other polls: 2,016 P-copies listed, as many template
        # getters and one H-copy of 2,016 members, each polled once
        (constraints, (perfect_tree(6), perfect_tree(6), CHERRY, 2), 5_000, ()),
    ]
    polls = []  # (nodes, line) of each call
    stop_at = 0  # 0: never raise

    def poll(nodes):
        polls.append((nodes, sys._getframe(1).f_lineno))
        if len(polls) == stop_at:
            raise arrows._OutOfBudget(nodes)

    reached = set()
    full_polls = []
    for engine, args, max_nodes, marks in queries:
        polls, stop_at = [], 0
        full = outcome(engine, args, max_nodes, poll)
        full_calls = polls
        full_polls.append([nodes for nodes, _ in full_calls])
        reached |= {line for _, line in full_calls}
        for stop_at in range(1, len(full_calls) + 1):
            polls = []
            with pytest.raises(arrows._OutOfBudget) as stop:
                engine(*args, max_nodes, poll)
            assert polls == full_calls[:stop_at], (engine, stop_at)
            assert stop.value.nodes == polls[-1][0], (engine, stop_at)
        total = full if isinstance(full, int) else full[1]
        if total < 200:
            sweep = range(total)
        else:
            sweep = [b for b in (0, 1, 1024, total - 1, *marks) if b < total]
        for budget in sweep:
            with pytest.raises(arrows._OutOfBudget) as stop:
                engine(*args, budget, lambda nodes: None)
            assert stop.value.nodes == budget, (engine, budget)
        assert outcome(engine, args, total, lambda nodes: None) == full

    assert full_polls[0] == [1, 3, 6, 11, 18, 27, 33, 37, 39, 40, 40, 40, 40]
    assert full_polls[1] == [0, 0, *range(121, 168)]
    assert full_polls[2] == [0, 0, *range(121, 361), 1024, 2048]
    assert full_polls[4] == [0] * 47 + [265, 274, 282, 291, 299, 308, 316, 330, 348, 366, 384,
                                        397, 411] + [496] * 15 + [497, 498]
    assert full_polls[5] == [0, 0, 0, 0, 0, 189, 190, *range(191, 214), 213]
    assert full_polls[6] == [0, 0, 0, 0, 0, 1024]
    with open(arrows.__file__, encoding="utf-8") as fh:
        sites = {
            n.lineno
            for n in ast.walk(ast.parse(fh.read()))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "poll"
        }
    # 11 sites: the construction's poll per chunk of 1024 H-copies,
    # _polled's (every pass over a list), _search_arrow's poll(0),
    # _backtrack's node poll and watch-scan poll, the local search's poll
    # per flip, and _leaf_arrow's five
    assert len(sites) == 11
    assert reached == sites


def test_search_answers_do_not_depend_on_edge_order(monkeypatch):
    # _arrow_edges keeps the edges in stream order; the search must give the
    # same status, nodes and witness for any order of them. The queries are
    # the constraint-path ones of the bench, at its node budgets.
    p4, p2, mirror = perfect_tree(4), perfect_tree(2), parse_newick("(,(,))")
    queries = [
        (p4, CAT3, CHERRY, 2, 20_000),
        (p4, mirror, CHERRY, 2, 20_000),
        (p4, p2, CHERRY, 2, 5_000),
        (p4, CAT3, CHERRY, 3, 20_000),
        (p4, p2, CAT3, 2, 200_000),
    ]

    def answers():
        out = []
        for host, target, pattern, k, max_nodes in queries:
            v = check_arrow(host, target, pattern, k, SearchBudget(max_nodes=max_nodes))
            out.append((v.status, v.nodes, v.witness))
        return out

    want = answers()
    assert [a[0] for a in want] == ["unknown", "unknown", "fails", "fails", "holds"]
    edges_of = arrows._arrow_edges
    rng = random.Random(21)
    for reorder in (lambda e: e[::-1], lambda e: rng.sample(e, len(e))):
        def reordered(*args, reorder=reorder):
            variables, edges = edges_of(*args)
            return variables, reorder(edges)

        monkeypatch.setattr(arrows, "_arrow_edges", reordered)
        assert answers() == want


class _HidesFirstEdge(list):
    """Edges whose first two passes (the degree count and the watch build of
    _backtrack) miss the first edge, which _nae_check sees."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        edges = super().__iter__()
        if self.passes <= 2:
            next(edges)
        return edges


def test_search_rechecks_its_witness(monkeypatch):
    # P2 in P2 is one constraint over all 6 cherries; with it hidden the
    # search colors every cherry 0, and the re-check must refuse that.
    edges_of = arrows._arrow_edges

    def hiding(*args):
        variables, edges = edges_of(*args)
        return variables, _HidesFirstEdge(edges)

    monkeypatch.setattr(arrows, "_arrow_edges", hiding)
    with pytest.raises(RuntimeError, match="bad coloring leaves edge .* monochromatic"):
        check_arrow(perfect_tree(2), perfect_tree(2), CHERRY, 2)


def test_search_lookup_memory_is_bounded_by_the_constraints():
    # The per-depth lookups stop storing once their allowance, linear in the
    # edges and variables, is spent (by about 10k nodes here), so a search 40
    # times longer peaks within a quarter of the short one's peak: about
    # 240 KB against 215 KB. With no allowance cap the long one
    # peaks at 314 KB. Only the search is traced, not the construction
    # of its constraints.
    variables, edges = _arrow_edges(perfect_tree(4), perfect_tree(2), CHERRY)

    def peak(max_nodes):
        search = arrows._backtrack(edges, len(variables), 2, max_nodes, lambda nodes: None)
        got, used = traced(lambda: next(search))
        assert got == max_nodes
        return used

    peak(1)  # first-call allocations of the modules it uses
    short, long = peak(5_000), peak(200_000)
    assert long < 1.25 * short, (short, long)


def test_backtracker_memory_is_linear_in_the_variables():
    # P8 -> (P8)^cherry_2 has one constraint over all 32,640 cherries of P8.
    # A search of one node peaks at about 9 MiB. Storing 1 << d for every
    # depth d held about m^2/16 bytes for m variables, a peak of 77 MiB.
    variables, edges = _arrow_edges(perfect_tree(8), perfect_tree(8), CHERRY)
    assert (len(variables), len(edges)) == (32_640, 1)

    def search():
        with pytest.raises(arrows._OutOfBudget):
            arrows._search_arrow(variables, edges, 2, 1, lambda nodes: None)

    peak = traced(search)[1]
    assert peak < 24 * 2**20, peak


def test_leaf_arrow_rechecks_its_witness(monkeypatch):
    # With no internal plan entry the DP sees no target anywhere and returns
    # a coloring of P2 whose re-check finds a cherry in one color.
    split_plan = arrows._split_plan

    def no_internal(t):
        plan, sizes, slot = split_plan(t)
        return plan[:2], sizes, slot

    monkeypatch.setattr(arrows, "_split_plan", no_internal)
    with pytest.raises(RuntimeError, match="bad leaf coloring has a copy of the target"):
        check_arrow(perfect_tree(2), CHERRY, leaf(), 2)


def test_leaf_arrow_recheck_runs_under_optimize():
    # python -O strips assert statements; the re-check must still run.
    script = (
        "from ramsey_trees import arrows, check_arrow, leaf, parse_newick, perfect_tree\n"
        "split_plan = arrows._split_plan\n"
        "def no_internal(t):\n"
        "    plan, sizes, slot = split_plan(t)\n"
        "    return plan[:2], sizes, slot\n"
        "arrows._split_plan = no_internal\n"
        "try:\n"
        "    check_arrow(perfect_tree(2), parse_newick('(,)'), leaf(), 2)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("internal error: bad leaf coloring has a copy of the target")


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run script under python -O with this package importable."""
    src = str(Path(ramsey_trees.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_search_recheck_runs_under_optimize():
    # The search's re-check of its witness must run under python -O too.
    script = (
        "from ramsey_trees import arrows, check_arrow, parse_newick, perfect_tree\n"
        + inspect.getsource(_HidesFirstEdge)
        + "edges_of = arrows._arrow_edges\n"
        "def hiding(*args):\n"
        "    variables, edges = edges_of(*args)\n"
        "    return variables, _HidesFirstEdge(edges)\n"
        "arrows._arrow_edges = hiding\n"
        "try:\n"
        "    check_arrow(perfect_tree(2), perfect_tree(2), parse_newick('(,)'), 2)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("internal error: bad coloring leaves edge")
    assert proc.stdout.rstrip().endswith("monochromatic")


def test_arrows_has_no_assert():
    # Witness checks, constructor checks and the decoder's re-encoding check
    # must keep running under python -O, in every module of the package.
    names = [m.name for m in pkgutil.iter_modules(ramsey_trees.__path__)]
    assert {"arrows", "embedding", "triples", "tree", "cli"} <= set(names)
    for name in names:
        module = importlib.import_module(f"ramsey_trees.{name}")
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], module


def test_min_arrow_height_frozen_values():
    assert min_arrow_height_scan(CHERRY, leaf(), 2)[0] == 2
    assert min_arrow_height_scan(CHERRY, leaf(), 4)[0] == 3
    assert min_arrow_height_scan(perfect_tree(2), leaf(), 2)[0] == 4
    # These two agree with a least-height count over Strahler numbers: P(t)
    # embeds in a leaf set iff the tree the set induces has Strahler number
    # at least t.
    assert min_arrow_height_scan(perfect_tree(4), leaf(), 2)[0] == 8
    assert min_arrow_height_scan(perfect_tree(5), leaf(), 2)[0] == 10


def test_min_arrow_height_scan_trail():
    d, scan = min_arrow_height_scan(CHERRY, leaf(), 2)
    assert d == 2
    assert [(h, v.status) for h, v in scan] == [(1, "fails"), (2, "holds")]
    for h, v in scan:
        if v.status == "fails":
            assert check_witness(perfect_tree(h), CHERRY, v.witness)


def test_min_arrow_height_stops_at_max_height():
    d, scan = min_arrow_height_scan(CHERRY, leaf(), 2, max_height=1)
    assert d is None
    assert [(h, v.status) for h, v in scan] == [(1, "fails")]


def test_max_height_must_be_a_non_negative_integer():
    for bad in (True, 2.5, "3", -1):
        with pytest.raises(ValueError, match="max height"):
            min_arrow_height_scan(CHERRY, leaf(), 2, None, bad)
        for k in (1, 2):
            with pytest.raises(ValueError, match="max height"):
                build_reduction_chain(CHERRY, leaf(), k, None, bad)


def test_min_arrow_height_stops_on_unknown():
    tight = SearchBudget(max_nodes=0, max_millis=60_000)
    d, scan = min_arrow_height_scan(CHERRY, leaf(), 2, budget=tight)
    assert d is None
    assert scan[-1][1].status == "unknown"


def test_min_arrow_height_respects_tree_size_guard():
    set_max_leaves(8)
    d, scan = min_arrow_height_scan(perfect_tree(2), leaf(), 2)
    assert d is None
    assert [h for h, _ in scan] == [2, 3]
    assert all(v.status == "fails" for _, v in scan)


def test_min_arrow_height_stops_at_enumeration_cap():
    # Deciding height 4 enumerates more copies than the cap allows.
    set_max_enumeration(100)
    d, scan = min_arrow_height_scan(CAT3, CHERRY, 2)
    assert d is None
    assert [(h, v.status) for h, v in scan] == [(2, "fails"), (3, "fails")]


def test_integer_arguments_are_checked():
    # A bool, a float or a string would act as some integer, or fail late
    # with a TypeError; each is refused up front like an out-of-range value.
    assert iterate(CAT3, 1) == CAT3
    assert iterate(CHERRY, 2) == perfect_tree(2)
    positive = [
        lambda n: iterate(CHERRY, n),
        all_trees,
        set_max_leaves,
        set_max_enumeration,
        lambda n: build_reduction_chain(CHERRY, leaf(), n),
    ]
    for call in positive:
        for bad in (0, -1, True, 2.5, "5"):
            with pytest.raises(ValueError, match="positive integer"):
                call(bad)
    for bad in (-1, True, 2.5, "5"):
        for call in (perfect_tree, catalan):
            with pytest.raises(ValueError, match="non-negative integer"):
                call(bad)


def test_extract_mono_leafcolor_frozen_examples():
    host = iterate(CHERRY, 2)
    chi = Coloring.from_leaf_colors(host, [0, 1, 0, 1], 2)
    assert extract_mono_leafcolor(CHERRY, 2, host, chi) == ((0, 2), 0)
    chi = Coloring.from_leaf_colors(host, [0, 0, 1, 1], 2)
    assert extract_mono_leafcolor(CHERRY, 2, host, chi) == ((0, 1), 0)


def test_extract_mono_leafcolor_validation():
    host = iterate(CHERRY, 2)
    chi = Coloring.from_leaf_colors(host, [0, 1, 0, 1], 2)
    with pytest.raises(ValueError, match="positive integer"):
        extract_mono_leafcolor(CHERRY, 0, host, chi)
    with pytest.raises(ValueError, match="j-fold self-substitution"):
        extract_mono_leafcolor(CHERRY, 3, host, chi)
    with pytest.raises(ValueError, match="single-leaf"):
        extract_mono_leafcolor(
            CHERRY, 2, host, Coloring.uniform(host, CHERRY, 2, 0)
        )
    with pytest.raises(ValueError, match="does not match"):
        extract_mono_leafcolor(
            CHERRY, 2, host, Coloring.from_leaf_colors(CHERRY, [0, 1], 2)
        )
    three = Coloring.from_leaf_colors(host, [0, 1, 2, 0], 3)
    with pytest.raises(ValueError, match="more than j"):
        extract_mono_leafcolor(CHERRY, 2, host, three)


def test_extract_mono_leafcolor_rejects_hosts_of_the_wrong_shape():
    mirror = parse_newick("(,(,))")
    block = iterate(CAT3, 2)
    # 27 leaves, as iterate(CAT3, 3): a comb, the last sub-block of the
    # last block mirrored, every sub-block mirrored
    comb = parse_newick("(" * 26 + ",)" + ",)" * 25)
    deep = node(node(block, block), node(node(CAT3, CAT3), mirror))
    low = node(node(mirror, mirror), mirror)
    for host in (comb, deep, node(node(low, low), low)):
        assert host.leaf_count == 27
        chi = Coloring.from_leaf_colors(host, [0] * 27, 3)
        with pytest.raises(ValueError, match="host must be the j-fold self-substitution of h"):
            extract_mono_leafcolor(CAT3, 3, host, chi)
    host = iterate(CAT3, 3)
    with pytest.raises(ValueError, match="j-fold self-substitution"):
        extract_mono_leafcolor(CAT3, 10**9, host, Coloring.from_leaf_colors(host, [0] * 27, 3))
    # a host built apart, sharing nothing, has the right shape
    apart = parse_newick(to_newick(labeled(host, "x")))
    chi = Coloring.from_leaf_colors(apart, [i % 3 for i in range(27)], 3)
    assert extract_mono_leafcolor(CAT3, 3, apart, chi) == extract_mono_leafcolor(
        CAT3, 3, host, Coloring.from_leaf_colors(host, [i % 3 for i in range(27)], 3))


@pytest.mark.parametrize("h,j", [(CHERRY, 2), (CAT3, 2)])
def test_extract_mono_leafcolor_exhaustive(h, j):
    host = iterate(h, j)
    n = host.leaf_count
    for colors in itertools.product(range(j), repeat=n):
        chi = Coloring.from_leaf_colors(host, list(colors), j)
        copy, color = extract_mono_leafcolor(h, j, host, chi)
        assert is_copy(host, copy, h)
        assert all(colors[i] == color for i in copy)


def _mirrored_last_block():
    """iterate(CAT3, 2) with its last block mirrored, and a leaf coloring
    whose block descent ends in that block."""
    host = node(node(CAT3, CAT3), parse_newick("(,(,))"))
    return host, Coloring.from_leaf_colors(host, [0, 1, 0, 1, 0, 1, 1, 1, 1], 2)


def test_extract_mono_leafcolor_rechecks_its_answer(monkeypatch):
    # With the shape check accepting any host, the descent returns the
    # mirrored block's leaves; the re-check finds they are not a copy of h.
    monkeypatch.setattr(arrows, "_is_iterate", lambda t, h, j: True)
    host, chi = _mirrored_last_block()
    with pytest.raises(RuntimeError, match=r"block descent returned \[6, 7, 8\], not a copy of h"):
        extract_mono_leafcolor(CAT3, 2, host, chi)


def test_extract_mono_leafcolor_recheck_runs_under_optimize():
    # python -O strips assert statements; the re-check must still run.
    script = (
        "from ramsey_trees import arrows, extract_mono_leafcolor, node, parse_newick\n"
        "from ramsey_trees import Coloring\n"
        + inspect.getsource(_mirrored_last_block)
        + "CAT3 = parse_newick('((,),)')\n"
        "arrows._is_iterate = lambda t, h, j: True\n"
        "host, chi = _mirrored_last_block()\n"
        "try:\n"
        "    extract_mono_leafcolor(CAT3, 2, host, chi)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("internal error: block descent returned [6, 7, 8]")


def test_reduction_chain_build_frozen():
    chain = build_reduction_chain(CHERRY, leaf(), 4)
    assert chain.trees == (CHERRY, perfect_tree(2), perfect_tree(4))
    assert chain.k == 4
    assert len(chain.certificates) == 2
    assert all(c.status == "holds" for c in chain.certificates)


def test_reduction_chain_trivial_for_one_color():
    chain = build_reduction_chain(CAT3, leaf(), 1)
    assert chain.trees == (CAT3,)
    assert chain.certificates == ()
    assert chain.verify() == ()


def test_reduction_chain_length_validation():
    with pytest.raises(ValueError, match="needs 3 trees"):
        ReductionChain((CHERRY, perfect_tree(2)), leaf(), 4)
    with pytest.raises(ValueError, match="positive integer"):
        ReductionChain((CHERRY,), leaf(), 0)


def test_reduction_chain_verify_rejects_bad_link():
    bogus = ReductionChain((CHERRY, CHERRY), leaf(), 2)
    with pytest.raises(ValueError, match="chain link 1 does not hold"):
        bogus.verify()


def test_reduction_chain_verify_budget():
    chain = ReductionChain((CHERRY, perfect_tree(2)), leaf(), 2)
    with pytest.raises(BudgetExhaustedError, match="chain link 1"):
        chain.verify(SearchBudget(max_nodes=0, max_millis=60_000))


def test_build_reduction_chain_height_cap():
    with pytest.raises(BudgetExhaustedError, match="within the given limits"):
        build_reduction_chain(perfect_tree(2), leaf(), 2, max_height=3)


def test_reduction_chain_json_roundtrip():
    chain = build_reduction_chain(CHERRY, leaf(), 4)
    obj = chain.to_json_obj()
    assert obj == {"trees": ["(,)", "((,),(,))", str(chain.trees[2])], "pattern": "", "k": 4}
    back = ReductionChain.from_json_obj(json.loads(json.dumps(obj)))
    assert back.trees == chain.trees
    assert back.certificates is not None
    assert all(c.status == "holds" for c in back.certificates)


def test_reduction_chain_json_errors():
    with pytest.raises(FormatError, match="keys"):
        ReductionChain.from_json_obj({"trees": []})
    with pytest.raises(FormatError, match="Newick strings"):
        ReductionChain.from_json_obj({"trees": [1], "pattern": "", "k": 2})
    with pytest.raises(FormatError, match="integer"):
        ReductionChain.from_json_obj({"trees": ["(,)"], "pattern": "", "k": "2"})
    # A parseable chain whose link fails is rejected during re-certification.
    with pytest.raises(ValueError, match="does not hold"):
        ReductionChain.from_json_obj({"trees": ["(,)", "(,)"], "pattern": "", "k": 2})


def test_reduction_chain_json_needs_a_newick_pattern():
    for pattern in (None, 0, ["(,)"]):
        obj = {"trees": ["(,)", "((,),(,))"], "pattern": pattern, "k": 2}
        with pytest.raises(FormatError, match='"pattern" must be a Newick string'):
            ReductionChain.from_json_obj(obj)


def test_extract_mono_k_random_colorings():
    chain = build_reduction_chain(CHERRY, leaf(), 4)
    top = chain.trees[-1]
    rng = random.Random(20240817)
    for _ in range(40):
        colors = [rng.randrange(4) for _ in range(top.leaf_count)]
        chi = Coloring.from_leaf_colors(top, colors, 4)
        copy, color = extract_mono_k(chain, chi)
        assert is_copy(top, copy, CHERRY)
        assert 0 <= color < 4
        assert all(colors[i] == color for i in copy)
        assert is_mono(chi, copy) == color


def _seeded_leaf_colorings(top, k, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        colors = [rng.randrange(k) for _ in range(top.leaf_count)]
        yield colors, Coloring.from_leaf_colors(top, colors, k)


def test_extract_mono_k_on_the_eight_color_chain():
    # Trees of 2, 4, 16 and 256 leaves: the first bit round looks for a
    # one-bit copy of the 16-leaf tree in the 256-leaf one, under the
    # default enumeration cap.
    chain = build_reduction_chain(CHERRY, leaf(), 8)
    top = chain.trees[-1]
    assert [t.leaf_count for t in chain.trees] == [2, 4, 16, 256]
    for colors, chi in _seeded_leaf_colorings(top, 8, range(4)):
        start = time.perf_counter()
        copy, color = extract_mono_k(chain, chi)
        assert time.perf_counter() - start < 0.1
        assert is_copy(top, copy, CHERRY)
        assert {colors[i] for i in copy} == {color}


def test_eight_color_first_bit_round_memory_is_bounded():
    # peaks of 13-15 KB: one list of five shapes per vertex on the stack
    chain = build_reduction_chain(CHERRY, leaf(), 8)
    top, below = chain.trees[-1], chain.trees[-2]
    for colors, chi in _seeded_leaf_colorings(top, 8, range(4)):
        (copy, bit), peak = traced(
            lambda: _least_agreeing(top, None, below, leaf(), lambda c: colors[c[0]] >> 2 & 1))
        assert is_copy(top, copy, below) and {colors[i] >> 2 & 1 for i in copy} == {bit}
        assert peak < 64_000, peak


def test_extract_mono_k_validation():
    chain = build_reduction_chain(CHERRY, leaf(), 4)
    top = chain.trees[-1]
    with pytest.raises(ValueError, match="host does not match"):
        extract_mono_k(chain, Coloring.from_leaf_colors(CHERRY, [0, 1], 4))
    with pytest.raises(ValueError, match="pattern does not match"):
        extract_mono_k(chain, Coloring.uniform(top, CHERRY, 4, 0))
    with pytest.raises(ValueError, match="has k = 2"):
        extract_mono_k(
            chain, Coloring.from_leaf_colors(top, [0] * top.leaf_count, 2)
        )


def test_extract_mono_k_uncertified_chain_failure_is_loud():
    t2 = perfect_tree(2)
    bogus = ReductionChain((t2, t2), leaf(), 2)
    chi = Coloring.from_leaf_colors(t2, [0, 1, 0, 1], 2)
    with pytest.raises(ValueError, match="does not certify"):
        extract_mono_k(bogus, chi)


def test_extract_mono_k_single_color_chain():
    chain = build_reduction_chain(CAT3, leaf(), 1)
    chi = Coloring.from_leaf_colors(CAT3, [0, 0, 0], 1)
    assert extract_mono_k(chain, chi) == ((0, 1, 2), 0)


def _extract_by_bit_colorings(chain, chi):
    """extract_mono_k as find_mono_copy on a two-color Coloring of each bit."""
    region = tuple(range(chain.trees[-1].leaf_count))
    for i in range(len(chain.trees) - 1, 0, -1):
        bits = {c: col >> (i - 1) & 1 for c, col in chi.assignment.items()}
        found = find_mono_copy(Coloring(chi.host, chi.pattern, 2, bits), chain.trees[i - 1], region)
        if found is None:
            raise ValueError(
                f"no monochromatic copy at chain step {i}; the chain does not certify this host"
            )
        region = found[0]
    return region, is_mono(chi, region)


def test_extract_mono_k_matches_bit_colorings():
    # Certified leaf-pattern chains and cherry-pattern chains no arrow backs;
    # on the last, about half of the colorings have no copy to find.
    p2, p3, p4 = perfect_tree(2), perfect_tree(3), perfect_tree(4)
    chains = [build_reduction_chain(CHERRY, leaf(), k) for k in (2, 3, 4)]
    chains += [
        ReductionChain((CHERRY, p3), CHERRY, 2),
        ReductionChain((CHERRY, p2, p4), CHERRY, 4),
        ReductionChain((CAT3, p2), CHERRY, 2),
    ]
    rng = random.Random(2021)
    outcomes = set()
    for chain in chains:
        top = chain.trees[-1]
        copies = enumerate_copies(top, chain.pattern)
        for _ in range(40):
            chi = Coloring(top, chain.pattern, chain.k, {c: rng.randrange(chain.k) for c in copies})
            try:
                want = _extract_by_bit_colorings(chain, chi)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    extract_mono_k(chain, chi)
                assert str(got.value) == str(e)
                outcomes.add("error")
            else:
                assert extract_mono_k(chain, chi) == want
                outcomes.add("copy")
    assert outcomes == {"copy", "error"}
