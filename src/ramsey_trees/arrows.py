"""Arrow (partition) relations between plane trees.

check_arrow decides T -> (H)^P_k: does every k-coloring of the copies of P
in T admit a copy of H all of whose inner P-copies share one color? The
negation is a constraint problem: one variable per P-copy, domain 0..k-1,
and a not-all-equal constraint per H-copy; a solution is a "bad" coloring
and the arrow Fails, exhaustion means it Holds, and exceeding the search
budget yields Unknown. A backtracker decides either way; a local search,
run between its probe and the rest of its run, can only find a bad
coloring. A host without a copy of H, or an H with at most one copy of
P, settles the arrow without either. When P is a single leaf the
colorings are leaf colorings, and a dynamic program over host subtrees
decides the arrow without building the constraints.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from collections.abc import Callable, Generator, Iterable

from .errors import BudgetExhaustedError, FormatError, ResourceLimitError
from .tree import PlaneTree, _postorder, iso, parse_newick, perfect_tree, to_newick
from .embedding import (
    CopyRef,
    _capped_copies,
    _copies,
    _split_plan,
    count_copies,
    induced_subtree,
    is_copy,
)
from .limits import _Value, _require_int, check_enumeration
from .coloring import Coloring, _least_agreeing, _relabel, is_mono


class SearchBudget(_Value):
    """Limits of one arrow query: a search stops once it has taken
    max_nodes nodes, or once more than max_millis ms have passed.

    On the constraint path a node is one color tried by the backtracker or
    one flip of the local search, in one count; for a single-leaf pattern
    it is one state of the dynamic program. Every engine polls the time
    at least every 1024 nodes, and the local search at every flip; the
    constraint path also polls after every 1024 edges of each pass over
    them: the backtracker's degree count and index build, the local
    search's setup and the final re-check of a bad coloring, and after
    every 1024 watch entries that the backtracker's lookups scan."""

    _fields = ("max_nodes", "max_millis")

    def __init__(self, max_nodes: int = 10_000_000, max_millis: int = 60_000):
        _require_int("max_nodes", max_nodes, 0)
        _require_int("max_millis", max_millis, 0)
        self.__dict__.update(max_nodes=max_nodes, max_millis=max_millis)


DEFAULT_BUDGET = SearchBudget()


class _OutOfBudget(Exception):
    """The budget of an arrow query ran out after nodes nodes."""

    def __init__(self, nodes: int):
        self.nodes = nodes


class ArrowVerdict(_Value):
    """Outcome of one arrow decision.

    status is "holds", "fails" (witness carries the bad coloring) or
    "unknown" (budget ran out; nodes/millis report the effort spent).
    """

    _fields = ("status", "witness", "nodes", "millis")

    def __init__(self, status: str, witness: Coloring | None, nodes: int, millis: int):
        self.__dict__.update(status=status, witness=witness, nodes=nodes, millis=millis)

    def to_report_obj(self) -> dict:
        return {
            "verdict": self.status,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
            "nodes": self.nodes,
            "millis": self.millis,
        }


def _arrow_edges(
    host: PlaneTree,
    target: PlaneTree,
    pattern: PlaneTree,
    poll: Callable[[int], None] = lambda nodes: None,
) -> tuple[list[CopyRef], list[tuple[int, ...]]]:
    """Variables (P-copies) and NAE constraints (inner P-copies per H-copy).

    Every H-copy induces a tree isomorphic to target, so its inner P-copies
    are the copies of pattern in target relabeled through the H-copy's
    leaves; that template is enumerated once and turned into one _relabel
    getter per copy, which each H-copy goes through. Returns (variables,
    edges), each edge once, in the order the copy stream first makes it,
    not sorted; on a query check_arrow has not settled, edges is nonempty
    and every edge has two members or more. The H-copies are charged to the
    enumeration cap by count in check_arrow and read from the copy stream,
    never all held. poll(0) is called every 1024 of them (not while
    the stream builds a right-part list), and after every 1024 P-copies
    listed, template getters built and members of one H-copy; it raises
    when the time is up. Both listings are checked against the enumeration
    cap before they start.
    """
    variables = _polled_list(_capped_copies(host, pattern), poll)
    getters = _polled_list(map(_relabel, _capped_copies(target, pattern)), poll)
    head, rest = getters[:1024], [getters[i:i + 1024] for i in range(1024, len(getters), 1024)]
    var_index = {c: i for i, c in enumerate(variables)}
    edges: dict[tuple[int, ...], None] = {}
    for n, hc in enumerate(_copies(host, target)):
        if not n & 1023:
            poll(0)
        # relabeling through the increasing hc keeps lexicographic order, so
        # the variable indices come out sorted
        members = [var_index[get(hc)] for get in head]
        for more in rest:
            poll(0)
            members += [var_index[get(hc)] for get in more]
        edges[tuple(members)] = None
    return variables, list(edges)


def _polled_list(items: Iterable, poll: Callable[[int], None]) -> list:
    """list(items), calling poll(0) after every 1024 of them."""
    out: list = []
    while True:
        n = len(out)
        out += itertools.islice(items, 1024)
        if len(out) - n < 1024:
            return out
        poll(0)


def check_arrow(
    host: PlaneTree,
    target: PlaneTree,
    pattern: PlaneTree,
    k: int,
    budget: SearchBudget | None = None,
) -> ArrowVerdict:
    """Decide host -> (target)^pattern_k within a node/time budget.

    Two cases are settled here with 0 nodes: a host without a copy of
    target fails (the witness gives every P-copy color 0), and a target
    with at most one copy of pattern holds, with no copy listed. Any other
    query goes to an engine. A single-leaf pattern goes to a dynamic
    program over host subtrees (_leaf_arrow). Any other pattern has its
    H-copies, counted once here, charged to the enumeration cap; its NAE
    instance is built once (_arrow_edges) and searched by _search_arrow: a
    short backtracking probe, a local search that can only find a bad
    coloring, then the backtracker for the rest of the budget. Every
    engine is deterministic, re-verifies every bad coloring it returns, and
    returns (its assignment, or None if the arrow holds, and nodes). The
    budget covers the whole query: an engine raises _OutOfBudget(nodes) at
    max_nodes nodes, and its calls to poll(nodes) raise it once more than
    max_millis ms have passed. It is caught here alone and answered with
    Unknown.
    """
    _require_int("number of colors", k)
    budget = budget or DEFAULT_BUDGET
    t0 = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    def poll(nodes: int) -> None:
        if elapsed_ms() > budget.max_millis:
            raise _OutOfBudget(nodes)

    h_copies = count_copies(host, target)
    if h_copies == 0:
        status, witness, nodes = "fails", Coloring.uniform(host, pattern, k, 0), 0
    elif count_copies(target, pattern) <= 1:
        status, witness, nodes = "holds", None, 0
    else:
        try:
            if pattern.is_leaf:
                assignment, nodes = _leaf_arrow(host, target, pattern, k, budget.max_nodes, poll)
            else:
                check_enumeration(h_copies)
                variables, edges = _arrow_edges(host, target, pattern, poll)
                assignment, nodes = _search_arrow(variables, edges, k, budget.max_nodes, poll)
            status = "holds" if assignment is None else "fails"
        except _OutOfBudget as stop:
            status, assignment, nodes = "unknown", None, stop.nodes
        witness = None if assignment is None else Coloring(host, pattern, k, assignment)
    return ArrowVerdict(status, witness, nodes, elapsed_ms())


def _nae_check(
    edges: list[tuple[int, ...]],
    colors: list[int],
    nodes: int,
    poll: Callable[[int], None],
) -> None:
    """Raise RuntimeError unless colors, one per variable, leave no edge
    monochromatic: a bad coloring by definition, checked under python -O
    too. poll(nodes) is called after every 1024 edges."""
    for j, e in enumerate(edges):
        if len({colors[v] for v in e}) <= 1:
            raise RuntimeError(f"internal error: bad coloring leaves edge {e} monochromatic")
        if j & 1023 == 1023:
            poll(nodes)


def _search_arrow(
    variables: list[CopyRef],
    edges: list[tuple[int, ...]],
    k: int,
    max_nodes: int,
    poll: Callable[[int], None],
) -> tuple[dict[CopyRef, int] | None, int]:
    """Search the NAE instance of _arrow_edges for a bad coloring.

    Returns (the bad coloring's assignment or None if the arrow holds,
    nodes) for a query that check_arrow has not settled, and raises
    _OutOfBudget(max_nodes) at the node cap. One fixed schedule shares one
    node count. The backtracker (_backtrack) takes a probe of up to m
    nodes, m the number of variables, which settles the queries it finds
    at once. Then, for k >= 2, the local search (_local_search) takes up to
    2m flips. Then the backtracker resumes where its probe stopped, for the
    rest of the budget. Only the backtracker can answer holds; the bad
    coloring of either engine passes _nae_check before it is returned.
    poll is called with 0 before the search starts, then every 1024
    backtracker nodes and at every flip, and with the node count so far
    after every 1024 edges of each pass over the edges and every 1024 watch
    entries the backtracker's lookups scan. A budget of 0 nodes stops
    before the backtracker builds its index.
    """
    poll(0)
    if max_nodes == 0:
        raise _OutOfBudget(0)
    m = len(variables)
    search = _backtrack(edges, m, k, min(max_nodes, m), poll)
    try:
        nodes = next(search)
        colors = None
        if k > 1 and nodes < max_nodes:
            colors, nodes = _local_search(edges, m, k, nodes, min(max_nodes, nodes + 2 * m), poll)
        if colors is None:
            search.send((nodes, max_nodes))
            raise _OutOfBudget(max_nodes)
    except StopIteration as done:
        colors, nodes = done.value
    if colors is None:
        return None, nodes
    _nae_check(edges, colors, nodes, poll)
    return dict(zip(variables, colors)), nodes


# Stored lookup entries of one search, each charged 1 + its length, per
# edge and variable of the constraint set.
_LOOKUP_ALLOWANCE = 4


def _backtrack(
    edges: list[tuple[int, ...]],
    m: int,
    k: int,
    limit: int,
    poll: Callable[[int], None],
) -> Generator[int, tuple[int, int], tuple[list[int] | None, int]]:
    """Backtracking over NAE edges on the variables 0..m-1, as a generator.

    It returns (the colors of a bad coloring, one per variable, or None if
    there is none, nodes). Once it has taken limit nodes it yields that
    count instead; sent (nodes, limit) it goes on, counting from nodes,
    until the new limit. Variables are tried most-constrained first
    (descending constraint degree, ties by index), colors in increasing
    order, and the first variable is pinned to color 0 (sound by
    color-permutation symmetry). The bad coloring is the first that order
    encounters; a node is one color tried for one variable. poll is called
    with 0 after every 1024 edges of the degree count and of the index
    build, then every 1024 nodes, and with the node count once the lookups
    below have scanned 1024 more watch entries.

    The order is static. The search names each variable by its depth d in
    it, so when d gets a color the assigned variables are exactly 0..d. A
    constraint can therefore turn unit only at its second-to-last member:
    before that it keeps two free members and nothing follows. It is
    watched there alone, as the bitmask e of its earlier members and its
    last member u. When d gets color c and e lies inside the mask of the
    variables of color c, u's domain loses c, and a domain left empty is a
    conflict. The violation test at the last member, which a check of every
    constraint of d would also make, can never fire: u cannot take c while
    that removal stands, and it stands until the search backtracks above
    the second-to-last member. Whether a node conflicts, and which domain
    changes it leaves behind, do not depend on the order of the tests, and
    the tests skipped could not act, so the node counts and colorings are
    those of testing every constraint of the variable, in any order of the
    edges.

    Which watched last members lose c depends only on the key colmask[c] &
    rel[d], where rel[d] is the OR of the masks watched at d: a mask inside
    rel[d] lies inside colmask[c] iff it lies inside the key. So they are
    looked up in a dict of depth d by that key, filled from a scan of d's
    watch list on the key's first use. The dicts are bounded by the
    constraints, not by the nodes: each stored entry costs 1 + its length
    out of an allowance of _LOOKUP_ALLOWANCE * (edges + variables). Once
    that is spent, a key not stored is scanned anew at each use, which
    finds the same members. The removals of depth d are kept in a list of
    variables for d and undone by OR-ing d's color back into each domain:
    a removal always clears a bit that was set. Per color there is one
    bitmask of the variables holding it, and the untried colors are a list
    indexed by depth.
    """
    degree, rest = Counter(), iter(edges)
    for _ in range(len(edges) >> 10):
        degree.update(itertools.chain.from_iterable(itertools.islice(rest, 1024)))
        poll(0)
    degree.update(itertools.chain.from_iterable(rest))
    order = sorted(range(m), key=lambda v: (-degree[v], v))
    # From here on a variable is named by its depth d in the order.
    depth = [0] * m  # depth[v]: variable v's depth
    for d, v in enumerate(order):
        depth[v] = d
    # watch[d]: (mask of the earlier members, last member) per constraint
    # whose second-to-last member is d; rel[d]: the OR of those masks
    watch: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    rel = [0] * m
    for j, e in enumerate(edges):
        mask = 0
        for v in e:
            mask |= 1 << depth[v]
        last = mask.bit_length() - 1
        mask ^= 1 << last
        second = mask.bit_length() - 1
        mask ^= 1 << second
        watch[second].append((mask, last))
        rel[second] |= mask
        if j & 1023 == 1023:
            poll(0)
    # losers[d]: key -> the distinct watched last members that lose the color
    losers: list[dict[int, list[int]]] = [{} for _ in range(m)]
    room = _LOOKUP_ALLOWANCE * (len(edges) + m)
    scanned = 0  # watch entries scanned by lookups, modulo 1024

    domain = [(1 << k) - 1] * m
    domain[0] = 1  # symmetry: the first decision variable gets color 0
    color_of = [0] * m
    colmask = [0] * k
    untried = [0] * m  # per depth: colors of d not yet tried
    removed: list[list[int]] = [[]] * m  # per depth: the variables it cut

    nodes = 0
    d = 0
    untried[0] = domain[0]
    while True:
        mask = untried[d]
        if not mask:
            # every color of d failed: uncolor d - 1
            d -= 1
            if d < 0:
                return None, nodes
            c = color_of[d]
            colmask[c] ^= 1 << d
            low = 1 << c
            for u in removed[d]:
                domain[u] |= low
            continue
        while nodes >= limit:
            nodes, limit = yield nodes
        nodes += 1
        if not nodes & 1023:
            poll(nodes)
        low = mask & -mask
        untried[d] = mask ^ low
        c = low.bit_length() - 1
        same = colmask[c]
        key = same & rel[d]
        hit = losers[d].get(key)
        if hit is None:
            hit = list(dict.fromkeys([u for e, u in watch[d] if e & key == e]))
            room -= 1 + len(hit)
            if room >= 0:
                losers[d][key] = hit
            scanned += len(watch[d])
            if scanned > 1023:
                scanned &= 1023
                poll(nodes)
        cut = []
        for u in hit:
            old = domain[u]
            if old & low:
                cut.append(u)
                domain[u] = old ^ low
                if old == low:
                    break
        else:
            color_of[d] = c
            colmask[c] = same | 1 << d
            removed[d] = cut
            d += 1
            if d == m:
                break
            untried[d] = domain[d]
            continue
        for u in cut:
            domain[u] |= low

    colors = [0] * m
    for d, v in enumerate(order):
        colors[v] = color_of[d]
    return colors, nodes


# The local search's seed, and its noise: the share of flips, in tenths,
# drawn at random rather than among those with the fewest breaks.
_SEED = 0x9E3779B97F4A7C15
_NOISE = 3
_MASK64 = (1 << 64) - 1


def _local_search(
    edges: list[tuple[int, ...]],
    m: int,
    k: int,
    nodes: int,
    limit: int,
    poll: Callable[[int], None],
) -> tuple[list[int] | None, int]:
    """NAE WalkSAT (Selman, Kautz & Cohen 1994) on variables 0..m-1, k >= 2.

    Returns (the colors of a bad coloring, one per variable, or None, and
    the node count, which goes on from nodes). The edges all have one size
    r, as _arrow_edges gives them. It reads them sorted, so its answers do
    not depend on their order, draws from xorshift64* seeded with _SEED,
    and starts from a random coloring. While some edge is monochromatic it
    flips one variable, one node. It picks a monochromatic edge at random,
    of color c. For each member v and color b != c, the breaks of (v, b)
    are the edges of v whose other r - 1 members all have color b: the
    flip would make them monochromatic. With probability _NOISE/10 it
    flips a random (v, b), otherwise a random one of those with the fewest
    breaks. It stops without an answer rather than take a node past limit,
    so it never tells that the arrow holds. It keeps, per color and edge,
    the count of the edge's members of that color, and the monochromatic
    edges in a list with each one's position in it. poll is called with
    nodes after every 1024 edges of that setup, then at every node: a flip
    reads all edges of the picked edge's members, so it costs far more than
    a node of the backtracker.
    """
    state = _SEED

    def draw(n: int) -> int:
        """A number in 0..n-1 from the high half of the next xorshift64* output."""
        nonlocal state
        x = state
        x ^= x >> 12
        x ^= x << 25 & _MASK64
        x ^= x >> 27
        state = x
        return ((x * 0x2545F4914F6CDD1D & _MASK64) >> 32) * n >> 32

    edges = sorted(edges)
    r = len(edges[0])
    colors = [draw(k) for _ in range(m)]
    # count[b][j]: the members of edge j with color b; occ[v]: v's edges
    count = [[0] * len(edges) for _ in range(k)]
    occ: list[list[int]] = [[] for _ in range(m)]
    for j, e in enumerate(edges):
        for v in e:
            count[colors[v]][j] += 1
            occ[v].append(j)
        if j & 1023 == 1023:
            poll(nodes)
    # the monochromatic edges, and where[j], edge j's position among them
    mono = [j for j, e in enumerate(edges) if count[colors[e[0]]][j] == r]
    where = [0] * len(edges)
    for i, j in enumerate(mono):
        where[j] = i

    while mono:
        if nodes >= limit:
            return None, nodes
        nodes += 1
        poll(nodes)
        e = edges[mono[draw(len(mono))]]
        c = colors[e[0]]
        if draw(10) < _NOISE:
            v = e[draw(len(e))]
            b = draw(k - 1)
            b += b >= c
        else:
            fewest, picks = None, []
            for v in e:
                for b in range(k):
                    if b != c:
                        breaks = [*map(count[b].__getitem__, occ[v])].count(r - 1)
                        if fewest is None or breaks < fewest:
                            fewest, picks = breaks, [(v, b)]
                        elif breaks == fewest:
                            picks.append((v, b))
            v, b = picks[draw(len(picks))]
        colors[v] = b
        was, now = count[c], count[b]
        for j in occ[v]:
            if was[j] == r:  # was monochromatic in c
                i, last = where[j], mono.pop()
                if last != j:
                    mono[i] = last
                    where[last] = i
            was[j] -= 1
            now[j] += 1
            if now[j] == r:
                where[j] = len(mono)
                mono.append(j)
    return colors, nodes


def _rearrangements(state: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct ordering of a sorted tuple, in lexicographic order."""
    out = [state]
    a = list(state)
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])
        out.append(tuple(a))


def _leaf_arrow(
    host: PlaneTree,
    target: PlaneTree,
    pattern: PlaneTree,
    k: int,
    max_nodes: int,
    poll: Callable[[int], None],
) -> tuple[dict[CopyRef, int] | None, int]:
    """Decide host -> (target)^leaf_k by dynamic programming over host subtrees.

    Returns (the bad leaf coloring's assignment or None if the arrow holds,
    nodes) for a query that check_arrow has not settled, so host has a copy
    of target and target is not a leaf.

    The state of a host subtree under a leaf coloring is a tuple of k
    bitmasks, one per color, of the slots of _split_plan(target) that embed
    in the leaves of that color; bit 1 is the leaf. A subtree embeds in a
    vertex's leaves of one color when it embeds in one child's or splits at
    the vertex, its left child into the left child and its right into the
    right (the split rule of count_copies). Subtrees of one shape share
    their bit's value, so an unshared target has the same states, only
    wider. Colors are interchangeable, so states are kept sorted; a
    vertex's states combine each pair of child states under every distinct
    rearrangement of the right one, and a state in which the whole target
    embeds is dropped. The arrow fails iff the root keeps a state, and the
    bad coloring is rebuilt from back-pointers, colors numbered by first
    appearance, and re-verified by counting.

    A node is one distinct state recorded for one host vertex. Vertices are
    solved in the _postorder of host, so shared subtrees are solved once,
    and all leaves share one entry, recorded before the walk. A vertex
    without states makes the arrow hold at once: every coloring of the host
    restricts to one of it. poll is called at every internal vertex, every
    1024 steps, and while the bad coloring is rebuilt and re-verified.
    """
    n = host.leaf_count
    plan, _, slot = _split_plan(target)
    splits = [(1 << s, 1 << a, 1 << b) for s, a, b in plan[2:]]
    full = 1 << slot[id(target)]
    grown: dict[tuple[int, int], int] = {}

    def combine(left: tuple[int, ...], right: tuple[int, ...]) -> list[int] | None:
        """Per-color masks of a vertex, None if some color holds the target."""
        out = []
        for lm, rm in zip(left, right):
            m = grown.get((lm, rm))
            if m is None:
                m = lm | rm
                for s, a, b in splits:
                    if lm & a and rm & b:
                        m |= s
                grown[(lm, rm)] = m
            if m & full:
                return None
            out.append(m)
        return out

    def key(v: PlaneTree) -> int:
        return 0 if v.is_leaf else id(v)  # id() of a live object is never 0

    if max_nodes == 0:
        raise _OutOfBudget(0)
    # memo[key] maps each state of that vertex to its back-pointer (left
    # state, right state, rearranged right state); the leaf's one state,
    # the first node, maps to None.
    memo: dict[int, dict[tuple[int, ...], tuple | None]] = {0: {(0,) * (k - 1) + (2,): None}}
    rearranged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    nodes = 1
    steps = 0
    for v in _postorder(host):
        if v.is_leaf:
            continue
        poll(nodes)
        states: dict[tuple[int, ...], tuple | None] = {}
        for ls in memo[key(v.left)]:
            for rs in memo[key(v.right)]:
                perms = rearranged.get(rs)
                if perms is None:
                    perms = rearranged[rs] = _rearrangements(rs)
                for rp in perms:
                    steps += 1
                    if not steps & 1023:
                        poll(nodes)
                    merged = combine(ls, rp)
                    if merged is None:
                        continue
                    s = tuple(sorted(merged))
                    if s not in states:
                        if nodes >= max_nodes:
                            raise _OutOfBudget(nodes)
                        nodes += 1
                        states[s] = (ls, rs, rp)
        if not states:
            return None, nodes
        memo[key(v)] = states

    # Rebuild a bad coloring top-down. col[j] is the color given to position
    # j of the vertex's sorted state. The rebuild and the re-verification
    # below are charged to the time budget too.
    colors = [0] * n
    walk = [(host, next(iter(memo[key(host)])), list(range(k)), 0)]
    while walk:
        steps += 1
        if not steps & 1023:
            poll(nodes)
        v, state, col, lo = walk.pop()
        if v.is_leaf:
            colors[lo] = col[k - 1]  # the leaf state's one nonzero mask
            continue
        ls, rs, rp = memo[key(v)][state]
        merged = combine(ls, rp)
        mcol = [0] * k
        for j, i in enumerate(sorted(range(k), key=merged.__getitem__)):
            mcol[i] = col[j]
        # position j of rs holds the mask a stable sort of rp puts at j
        rcol = [mcol[i] for i in sorted(range(k), key=rp.__getitem__)]
        walk.append((v.right, rs, rcol, lo + v.left.leaf_count))
        walk.append((v.left, ls, mcol, lo))
    first: dict[int, int] = {}
    colors = [first.setdefault(c, len(first)) for c in colors]
    for c in range(len(first)):
        poll(nodes)
        part = [i for i in range(n) if colors[i] == c]
        if count_copies(induced_subtree(host, part), target):
            raise RuntimeError(
                f"internal error: bad leaf coloring has a copy of the target in color {c}"
            )
    poll(nodes)
    return {(i,): c for i, c in enumerate(colors)}, nodes


def min_arrow_height_scan(
    target: PlaneTree,
    pattern: PlaneTree,
    k: int,
    budget: SearchBudget | None = None,
    max_height: int | None = None,
) -> tuple[int | None, list[tuple[int, ArrowVerdict]]]:
    """Scan d = height(target), height(target)+1, ... for the least d with
    perfect_tree(d) -> (target)^pattern_k; returns (d or None, scan trail).

    The scan stops without an answer, returning the trail so far, when a
    verdict comes back unknown, when perfect_tree(d) would exceed the tree
    size guard, when deciding height d would exceed the enumeration cap, or
    past max_height.
    """
    scan: list[tuple[int, ArrowVerdict]] = []
    d = target.height
    while max_height is None or d <= max_height:
        try:
            verdict = check_arrow(perfect_tree(d), target, pattern, k, budget)
        except ResourceLimitError:
            return None, scan
        scan.append((d, verdict))
        if verdict.status == "holds":
            return d, scan
        if verdict.status == "unknown":
            return None, scan
        d += 1
    return None, scan


def _is_iterate(t: PlaneTree, h: PlaneTree, j: int) -> bool:
    """Is t plane-isomorphic to iterate(h, j), without building it?

    iterate(h, j) is h's skeleton with a copy of iterate(h, j - 1) at each
    leaf. So walk h's skeleton from t's root, require every block where a
    leaf of h lands to have the first block's shape, and go on into the
    first block; after j - 1 levels it must be h itself.
    """
    for _ in range(j - 1 if h.left is not None else 0):
        blocks = []
        stack = [(h, t)]
        while stack:
            x, y = stack.pop()
            if x.left is None:
                blocks.append(y)
            elif y.left is None:
                return False
            else:
                stack += ((x.right, y.right), (x.left, y.left))
        if not all(iso(b, blocks[0]) for b in blocks):
            return False
        t = blocks[0]
    return iso(t, h)


def extract_mono_leafcolor(
    h: PlaneTree, j: int, host: PlaneTree, chi: Coloring
) -> tuple[CopyRef, int]:
    """A monochromatic copy of h in host = iterate(h, j) under a leaf
    coloring with at most j distinct colors.

    The j-fold self-substitution iterate(h, j) arrows (h) under leaf
    colorings with j colors; this realizes the copy.

    Descend through the block structure of the iterate: the current window
    is a copy of iterate(h, level) and splits into leaf_count(h) contiguous
    blocks, each a copy of iterate(h, level-1). If some block uses fewer
    than level colors, recurse into the leftmost such; otherwise every block
    uses exactly the window's color set, and picking the leftmost leaf of
    the smallest used color in each block forms a copy of h. The answer is
    re-checked with is_copy and a color check, under python -O too, before
    it is returned.
    """
    _require_int("iteration count", j)
    if not _is_iterate(host, h, j):
        raise ValueError("host must be the j-fold self-substitution of h")
    if not chi.pattern.is_leaf:
        raise ValueError("coloring must color single-leaf copies")
    if not iso(chi.host, host):
        raise ValueError("coloring host does not match the given host")
    # the single-leaf copies in order, as the iso checks above make sure
    colors = list(chi.assignment.values())
    if len(set(colors)) > j:
        raise ValueError(
            f"coloring uses {len(set(colors))} distinct colors, more than j = {j}"
        )
    n = h.leaf_count
    lo, hi = 0, host.leaf_count
    level = j
    while True:
        window = colors[lo:hi]
        if level == 1:
            picks, cstar = tuple(range(lo, hi)), window[0]
            break
        block = (hi - lo) // n
        descend = None
        for i in range(n):
            if len(set(colors[lo + i * block : lo + (i + 1) * block])) <= level - 1:
                descend = i
                break
        if descend is not None:
            lo = lo + descend * block
            hi = lo + block
            level -= 1
            continue
        cstar = min(set(window))
        picks = tuple(
            lo + i * block + colors[lo + i * block : lo + (i + 1) * block].index(cstar)
            for i in range(n)
        )
        break
    if not (is_copy(host, picks, h) and all(colors[i] == cstar for i in picks)):
        raise RuntimeError(
            f"internal error: block descent returned {list(picks)}, "
            "not a copy of h in one color"
        )
    return picks, cstar


class ReductionChain(_Value):
    """Trees h = T0, T1, ..., Tl with Ti -> (T(i-1))^pattern_2 certified,
    l = ceil(log2 k); it reduces k-color mono search to l two-color steps."""

    _fields = ("trees", "pattern", "k", "certificates")

    def __init__(
        self,
        trees: tuple[PlaneTree, ...],
        pattern: PlaneTree,
        k: int,
        certificates: tuple[ArrowVerdict, ...] | None = None,
    ):
        _require_int("number of colors", k)
        expected = (k - 1).bit_length() + 1
        if len(trees) != expected:
            raise ValueError(f"chain for k = {k} needs {expected} trees, got {len(trees)}")
        self.__dict__.update(trees=trees, pattern=pattern, k=k, certificates=certificates)

    def verify(self, budget: SearchBudget | None = None) -> tuple[ArrowVerdict, ...]:
        """Re-check every link; raises unless each arrow conclusively holds."""
        certs = []
        for i in range(1, len(self.trees)):
            verdict = check_arrow(self.trees[i], self.trees[i - 1], self.pattern, 2, budget)
            if verdict.status == "unknown":
                raise BudgetExhaustedError(
                    f"could not certify chain link {i} within the search budget"
                )
            if verdict.status == "fails":
                raise ValueError(f"chain link {i} does not hold")
            certs.append(verdict)
        return tuple(certs)

    def to_json_obj(self) -> dict:
        return {
            "trees": [to_newick(t) for t in self.trees],
            "pattern": to_newick(self.pattern),
            "k": self.k,
        }

    @classmethod
    def from_json_obj(cls, obj, budget: SearchBudget | None = None) -> "ReductionChain":
        """Parse and re-certify a chain (links are not taken on trust)."""
        if not isinstance(obj, dict) or set(obj) != {"trees", "pattern", "k"}:
            raise FormatError('chain JSON must be an object with keys "trees", "pattern", "k"')
        if not isinstance(obj["trees"], list) or not all(
            isinstance(s, str) for s in obj["trees"]
        ):
            raise FormatError('"trees" must be an array of Newick strings')
        if not isinstance(obj["pattern"], str):
            raise FormatError('"pattern" must be a Newick string')
        if not isinstance(obj["k"], int) or isinstance(obj["k"], bool):
            raise FormatError('"k" must be an integer')
        trees = tuple(parse_newick(s) for s in obj["trees"])
        pattern = parse_newick(obj["pattern"])
        certs = cls(trees, pattern, obj["k"]).verify(budget)
        return cls(trees, pattern, obj["k"], certs)


def build_reduction_chain(
    h: PlaneTree,
    pattern: PlaneTree,
    k: int,
    budget: SearchBudget | None = None,
    max_height: int | None = None,
) -> ReductionChain:
    """Grow the chain upward: each next tree is the least-height perfect tree
    that arrows the previous one with two colors."""
    _require_int("number of colors", k)
    trees = [h]
    certs = []
    for i in range((k - 1).bit_length()):
        d, scan = min_arrow_height_scan(trees[-1], pattern, 2, budget, max_height)
        if d is None:
            raise BudgetExhaustedError(
                f"could not certify chain link {i + 1} within the given limits"
            )
        trees.append(perfect_tree(d))
        certs.append(scan[-1][1])
    return ReductionChain(tuple(trees), pattern, k, tuple(certs))


def extract_mono_k(chain: ReductionChain, chi: Coloring) -> tuple[CopyRef, int]:
    """A monochromatic copy of chain.trees[0] under a chain.k-coloring of the
    pattern-copies in the top tree, via bitwise descent.

    Step i reads bit i-1 of each copy's color directly, building no
    Coloring, finds the least copy of the next tree down inside the current
    region whose copies agree on that bit, and recurses; after all bits are
    pinned the surviving region's copies agree on the full color. The first
    step searches the whole top tree (region None), so it walks the host
    itself; each later one walks it at the positions of the copy before.
    """
    if not iso(chi.host, chain.trees[-1]):
        raise ValueError("coloring host does not match the top tree of the chain")
    if not iso(chi.pattern, chain.pattern):
        raise ValueError("coloring pattern does not match the chain pattern")
    if chi.k != chain.k:
        raise ValueError(f"coloring has k = {chi.k}, chain has k = {chain.k}")
    region: CopyRef | None = None  # the whole top tree
    for i in range(len(chain.trees) - 1, 0, -1):
        shift = i - 1
        found = _least_agreeing(chi.host, region, chain.trees[i - 1], chi.pattern,
                                lambda c: chi.assignment[c] >> shift & 1)
        if found is None:
            raise ValueError(
                f"no monochromatic copy at chain step {i}; the chain does not certify this host"
            )
        region = found[0]
    if region is None:  # a one-tree chain: the top tree is the copy
        region = tuple(range(chi.host.leaf_count))
    color = is_mono(chi, region)
    if color is None:
        raise RuntimeError("internal error: bitwise descent ended on a mixed region")
    return region, color
