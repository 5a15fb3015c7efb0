"""Colorings of pattern-copies and monochromatic-copy search.

A Coloring assigns one of k colors to every copy of a pattern inside a host
(totality is mandatory). A region (leaf subset) is monochromatic when all
pattern-copies whose leaves lie inside it share one color; a region with no
pattern-copies at all counts as monochromatic with sentinel color -1.

find_mono_copy returns the lexicographically least monochromatic copy of a
target, inside a region if one is given, through the one search
_least_agreeing. When the copies to agree are single leaves, one pass per
leaf value, over the tree that the region's leaves of that value induce in
the host, finds it at their host positions (_least_leafwise); otherwise it
is the first that the lazy copy stream (embedding._copies) offers on the tree
the region induces. Neither lists all copies of the target, so the
enumeration cap counts only the lists the stream builds on the way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .errors import FormatError
from .limits import _Value, _require_int
from .tree import PlaneTree, leaf, parse_newick, to_newick
from .embedding import (
    CopyRef,
    _copies,
    _parting,
    _split_plan,
    enumerate_copies,
    induced_subtree,
    is_copy,
    validate_copy,
)


class Coloring(_Value):
    """A total k-coloring of the copies of pattern inside host.

    The assignment maps every CopyRef from enumerate_copies(host, pattern)
    to a color in range(k); the stored dict is in lexicographic copy order.
    A color is an int, or an int subclass other than bool. A Coloring is not
    hashable, as its assignment is a dict.

    The constructor stores dict(assignment) when the assignment's keys are
    the copies in order (its own key objects, each equal to its copy, so a
    key may hold a bool or float equal to the copy's int; to_json_obj
    writes each key as ints), and reorders any other in one pass over the
    copies, keyed by them; either way the Coloring holds a dict of its own. It checks the colors as a
    set: all of type int, the least and the greatest in range(k). Only when
    that fails does it check copy by copy, to name the lexicographically
    first copy whose color is bad.
    """

    _fields = ("host", "pattern", "k", "assignment")

    def __init__(
        self, host: PlaneTree, pattern: PlaneTree, k: int, assignment: dict[CopyRef, int]
    ):
        _require_int("number of colors", k)
        copies = enumerate_copies(host, pattern)
        given = assignment
        if list(given) == copies:
            ordered = dict(given)
        else:
            try:
                ordered = {c: given[c] for c in copies}
            except KeyError:
                ordered = None
        if ordered is None or len(given) != len(copies):
            missing = [c for c in copies if c not in given]
            known = set(copies)
            extra = [c for c in given if c not in known]
            parts = []
            if missing:
                parts.append(f"missing copies {missing[:3]}{'...' if len(missing) > 3 else ''}")
            if extra:
                parts.append(f"unknown copies {extra[:3]}{'...' if len(extra) > 3 else ''}")
            raise ValueError("assignment must cover every copy exactly once: " + "; ".join(parts))
        colors = ordered.values()
        palette = set(colors)
        # the types are checked apart, as the palette merges True into 1
        if not (set(map(type, colors)) == {int} and 0 <= min(palette) and max(palette) < k):
            for c, col in ordered.items():
                if not isinstance(col, int) or isinstance(col, bool) or not 0 <= col < k:
                    raise ValueError(f"color of copy {list(c)} must be in [0, {k}), got {col!r}")
        self.__dict__.update(host=host, pattern=pattern, k=k, assignment=ordered)

    @classmethod
    def uniform(cls, host: PlaneTree, pattern: PlaneTree, k: int, color: int) -> "Coloring":
        return cls(host, pattern, k, {c: color for c in enumerate_copies(host, pattern)})

    @classmethod
    def from_leaf_colors(cls, host: PlaneTree, colors, k: int) -> "Coloring":
        """Color single-leaf copies by position: colors[i] is the color of leaf i."""
        colors = list(colors)
        if len(colors) != host.leaf_count:
            raise ValueError(
                f"expected {host.leaf_count} leaf colors, got {len(colors)}"
            )
        return cls(host, leaf(), k, {(i,): colors[i] for i in range(len(colors))})

    def to_json_obj(self) -> dict:
        return {
            "host": to_newick(self.host),
            "pattern": to_newick(self.pattern),
            "k": self.k,
            "assignment": [
                {"copy": list(map(int, c)), "color": col} for c, col in self.assignment.items()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Coloring":
        if not isinstance(obj, dict) or set(obj) != {"host", "pattern", "k", "assignment"}:
            raise FormatError(
                'coloring JSON must be an object with keys "host", "pattern", "k", "assignment"'
            )
        if not isinstance(obj["host"], str) or not isinstance(obj["pattern"], str):
            raise FormatError('"host" and "pattern" must be Newick strings')
        if not isinstance(obj["k"], int) or isinstance(obj["k"], bool):
            raise FormatError('"k" must be an integer')
        if not isinstance(obj["assignment"], list):
            raise FormatError('"assignment" must be an array')
        assignment: dict[CopyRef, int] = {}
        for entry in obj["assignment"]:
            if (
                not isinstance(entry, dict)
                or set(entry) != {"copy", "color"}
                or not isinstance(entry["copy"], list)
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry["copy"])
                or not isinstance(entry["color"], int)
                or isinstance(entry["color"], bool)
            ):
                raise FormatError(f'assignment entries must look like {{"copy": [...], "color": c}}: {entry!r}')
            c = tuple(entry["copy"])
            if c in assignment:
                raise FormatError(f"duplicate assignment for copy {entry['copy']}")
            assignment[c] = entry["color"]
        return cls(parse_newick(obj["host"]), parse_newick(obj["pattern"]), obj["k"], assignment)


def is_mono(chi: Coloring, region) -> int | None:
    """Shared color of the pattern-copies inside region, -1 if there are none,
    None if they disagree."""
    s = set(validate_copy(chi.host, region))
    colors = {col for c, col in chi.assignment.items() if s.issuperset(c)}
    if not colors:
        return -1
    if len(colors) == 1:
        return colors.pop()
    return None


def _relabel(rel: CopyRef):
    """The getter that maps a copy c to tuple(c[i] for i in rel): the copy
    rel of a tree, relabeled through c's leaves when c is a copy of that
    tree. itemgetter of one index returns the bare item, so a one-position
    rel gets the one-item slice, which of a tuple is a 1-tuple."""
    return itemgetter(*rel) if len(rel) > 1 else itemgetter(slice(rel[0], rel[0] + 1))


def _least_leafwise(
    host: PlaneTree, target: PlaneTree, leaves, value_of
) -> tuple[CopyRef, object] | None:
    """(least copy of target in host whose leaves are all in leaves and
    take one value, that value), None if no copy qualifies; leaves are host
    positions in increasing order, and value_of((x,)) is the value of leaf x.

    One pass per distinct value held by at least as many leaves as target
    has, in post-order from an explicit stack, over the tree those leaves
    induce in host: a vertex is visited only where they part, as in
    induced_subtree, and a path where they do not part is skipped, so the
    copies come out in host positions. A vertex v gets, for each slot s of
    _split_plan(target) with at most as many leaves as v holds of the
    value, the least copy least(s, v) of s among them, or None; the plan is
    sorted by leaf count, so those slots are one slice of it. That is the
    smaller of least(s, v.left) and least(a, v.left) + least(b, v.right), a
    and b the slots of s's children, where they exist; if neither does, it
    is least(s, v.right). Every left position comes before every right one,
    so concatenation keeps the order. Values are taken in the order of
    their first leaf, and the passes stop once the best copy so far starts
    before the next value's first leaf. The answer is re-checked, under
    python -O too, before it is returned.
    """
    plan, sizes, slot = _split_plan(target)
    whole = slot.get(id(target), 1)
    # by the number of leaves of the value below a vertex: the internal
    # slots that fit them
    fitting: dict[int, list[tuple[int, int, int]]] = {}
    rest = [None] * (len(plan) - 2)
    groups: dict = {}
    for x in leaves:
        groups.setdefault(value_of((x,)), []).append(x)
    best = None
    for value, pos in groups.items():
        if best is not None and best[0][0] < pos[0]:
            break  # every copy of this value or a later one starts later
        if len(pos) < target.leaf_count:
            continue
        out: list[list] = []
        # (vertex, its first position, i, j) with pos[i:j] inside it, or
        # the number of those positions once both children's lists are on out
        stack: list = [(host, 0, 0, len(pos))]
        while stack:
            item = stack.pop()
            if item.__class__ is int:
                fits = fitting.get(item)
                if fits is None:
                    fits = fitting[item] = plan[2:bisect_right(sizes, item)]
                r = out.pop()
                l = out[-1]
                least = l[:]
                for s, a, b in fits:
                    x, y = l[a], r[b]
                    if x is not None and y is not None:
                        x += y
                        if least[s] is None or x < least[s]:
                            least[s] = x
                    elif least[s] is None:
                        least[s] = r[s]
                out[-1] = least
                continue
            v, lo, i, j = item
            v, lo, _ = _parting(v, lo, pos[i], pos[j - 1])
            if v.left is None:
                out.append([None, (lo,)] + rest)
            else:
                mid = lo + v.left.leaf_count
                k = bisect_left(pos, mid, i, j)
                stack += (j - i, (v.right, mid, k, j), (v.left, lo, i, k))
        found = out[0][whole]
        if found is not None and (best is None or found < best[0]):
            best = found, value
    if best is not None:
        copy, value = best
        pos = groups[value]
        # each leaf of copy must be a position of value: the first position
        # not below it, found by bisect, is that leaf
        if not (
            is_copy(host, copy, target)
            and all(pos[bisect_left(pos, x, 0, len(pos) - 1)] == x for x in copy)
        ):
            raise RuntimeError(
                f"internal error: leaf pass returned {list(copy)}, "
                "not a copy of the target in one value"
            )
    return best


def _least_agreeing(
    host: PlaneTree, region: CopyRef | None, target: PlaneTree, pattern: PlaneTree, value
) -> tuple[CopyRef, int] | None:
    """(least copy of target inside region (the whole host if None) whose
    copies of pattern all take one value(), that value or -1 if target
    holds no copy of pattern), None if no copy qualifies. This is the one
    search inside a region, and its copies are in host positions.

    For a single-leaf pattern a copy qualifies when its leaves all take one
    value: _least_leafwise reads value() once per leaf of region and walks
    the host at region's own positions. Otherwise the candidates are the
    copies of target in the tree region induces, mapped to host positions
    through region, which is increasing and so keeps their order; the
    search stops at the first that qualifies. A candidate's copies of
    pattern are read through one _relabel getter per copy of the template
    enumerate_copies(target, pattern), built at the first candidate: a
    search that meets no copy of target never enumerates the template."""
    if pattern.left is None:
        leaves = range(host.leaf_count) if region is None else region
        return _least_leafwise(host, target, leaves, value)
    if region is None:
        inside = _copies(host, target)
    else:
        inside = (_relabel(c)(region) for c in _copies(induced_subtree(host, region), target))
    getters: list | None = None
    shared = -1

    def agrees(cand: CopyRef) -> bool:
        nonlocal getters, shared
        if getters is None:
            getters = [_relabel(rel) for rel in enumerate_copies(target, pattern)]
        if not getters:
            return True
        rest = iter(getters)
        shared = value(next(rest)(cand))
        for get in rest:
            if value(get(cand)) != shared:
                return False
        return True

    # the stream stops at the first accepted candidate, so shared is its value
    found = next(filter(agrees, inside), None)
    return None if found is None else (found, shared)


def find_mono_copy(
    chi: Coloring, target: PlaneTree, region: CopyRef | None = None
) -> tuple[CopyRef, int] | None:
    """Lexicographically least monochromatic copy of target (with its color,
    -1 when target holds no copy of chi.pattern, as in is_mono), among the
    copies inside region if it is given; None if no copy qualifies.

    Under a single-leaf pattern, a copy is monochromatic when its leaves
    share one color, and one pass per color, over the tree that color's
    leaves in region induce, gives the least copy of target among them; no
    copy is listed. Under a larger pattern, the candidates are
    read in order from the copy stream, up to the first hit, so an answer
    found early is cheap and the list of all copies of target is never
    built: the enumeration cap counts only the lists of subpatterns the
    stream builds before the hit. When no copy qualifies, every copy is
    still checked once.
    """
    if region is not None:
        region = validate_copy(chi.host, region)
    return _least_agreeing(chi.host, region, target, chi.pattern, chi.assignment.__getitem__)
