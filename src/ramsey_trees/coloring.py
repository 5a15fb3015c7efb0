"""Colorings of pattern-copies and monochromatic-copy search.

A Coloring assigns one of k colors to every copy of a pattern inside a host
(totality is mandatory). A region (leaf subset) is monochromatic when all
pattern-copies whose leaves lie inside it share one color; a region with no
pattern-copies at all counts as monochromatic with sentinel color -1.

find_mono_copy and find_psi_mono return the lexicographically least
qualifying copy of a target. Both search the host by the split rule of copy
counting and stop at the first hit (embedding._least_copy); neither lists
all copies of the target, so the enumeration cap counts only the lists of
the target's root children that the search builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError
from .tree import PlaneTree, leaf, parse_newick, to_newick
from .embedding import (
    CopyRef,
    _least_copy,
    _parting,
    enumerate_copies,
    induced_subtree,
    validate_copy,
)


@dataclass(frozen=True, eq=True)
class Coloring:
    """A total k-coloring of the copies of pattern inside host.

    The assignment maps every CopyRef from enumerate_copies(host, pattern)
    to a color in range(k); the stored dict is in lexicographic copy order.
    """

    host: PlaneTree
    pattern: PlaneTree
    k: int
    assignment: dict[CopyRef, int] = field(compare=True)

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"number of colors must be a positive integer, got {self.k!r}")
        copies = enumerate_copies(self.host, self.pattern)
        given = self.assignment
        if len(given) != len(copies) or any(c not in given for c in copies):
            missing = [c for c in copies if c not in given]
            extra = [c for c in given if c not in set(copies)]
            parts = []
            if missing:
                parts.append(f"missing copies {missing[:3]}{'...' if len(missing) > 3 else ''}")
            if extra:
                parts.append(f"unknown copies {extra[:3]}{'...' if len(extra) > 3 else ''}")
            raise ValueError("assignment must cover every copy exactly once: " + "; ".join(parts))
        for c in copies:
            col = given[c]
            if not isinstance(col, int) or isinstance(col, bool) or not 0 <= col < self.k:
                raise ValueError(f"color of copy {list(c)} must be in [0, {self.k}), got {col!r}")
        object.__setattr__(self, "assignment", {c: given[c] for c in copies})

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

    def copies(self) -> list[CopyRef]:
        return list(self.assignment)

    def to_json_obj(self) -> dict:
        return {
            "host": to_newick(self.host),
            "pattern": to_newick(self.pattern),
            "k": self.k,
            "assignment": [
                {"copy": list(c), "color": col} for c, col in self.assignment.items()
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


def _least_within(
    host: PlaneTree, region: CopyRef | None, target: PlaneTree, accept
) -> CopyRef | None:
    """The least copy of target inside region (the whole host if None) that
    passes accept, in host positions: the copies of the tree region induces,
    mapped through region (increasing, so the order is kept)."""
    if region is None or len(region) == host.leaf_count:
        # the host itself keeps its shared subtrees, which the search reuses
        return _least_copy(host, target, accept)
    found = _least_copy(
        induced_subtree(host, region),
        target,
        lambda c: accept(tuple([region[i] for i in c])),
    )
    return None if found is None else tuple([region[i] for i in found])


def _agreement(target: PlaneTree, pattern: PlaneTree, value):
    """common(cand) for a copy cand of target: the one value that value()
    takes on the copies of pattern inside cand, -1 if there are none, None
    if they differ. Those copies are enumerate_copies(target, pattern)
    relabeled through cand's leaves; that template is built on the first
    call, so a search that meets no copy of target never needs it."""
    template: list[CopyRef] | None = None

    def common(cand: CopyRef):
        nonlocal template
        if template is None:
            template = enumerate_copies(target, pattern)
        if not template:
            return -1
        rels = iter(template)
        shared = value(tuple([cand[i] for i in next(rels)]))
        for rel in rels:
            if value(tuple([cand[i] for i in rel])) != shared:
                return None
        return shared

    return common


def find_mono_copy(
    chi: Coloring, target: PlaneTree, region: CopyRef | None = None
) -> tuple[CopyRef, int] | None:
    """Lexicographically least monochromatic copy of target (with its color).

    When region is given, only copies whose leaves lie inside it are
    considered. The pattern-copies inside a candidate are
    enumerate_copies(target, chi.pattern) relabeled through its leaves, so
    that template is enumerated once and each candidate's colors are looked
    up directly; the color is -1 when the template is empty, as in is_mono.
    Returns None if no copy of target is monochromatic.

    The candidates come from a search that stops at the first hit
    (embedding._least_copy), so the list of all copies of target is never
    built: the enumeration cap counts only the lists of target's two root
    children that the search builds, and an answer found early is cheap.
    When no copy qualifies, every copy is still checked once.
    """
    if region is not None:
        region = validate_copy(chi.host, region)
    color = _agreement(target, chi.pattern, chi.assignment.__getitem__)
    found = _least_within(chi.host, region, target, lambda c: color(c) is not None)
    return None if found is None else (found, color(found))


def _root_split_check(host: PlaneTree, a: CopyRef, b: CopyRef) -> None:
    """Require a common vertex whose left subtree spans a and right spans b:
    the vertex where a[0] and b[-1] part must split them between a and b."""
    if a[-1] < b[0]:
        v, lo, _ = _parting(host, 0, a[0], b[-1])
        if a[-1] < lo + v.left.leaf_count <= b[0]:
            return
    raise ValueError("not root-split")


def _fusion(
    chi: Coloring, region: CopyRef, partner: CopyRef, side: str
) -> tuple[PlaneTree, PlaneTree, list[CopyRef], object]:
    """(sub-host induced by partner, the other pattern child, its copies in
    that sub-host, image). image maps a copy of one pattern child inside
    region, in host positions, to the colors of its joins with those
    partner-side copies, a tuple in their order; images are computed on
    request and memoized."""
    if chi.pattern.is_leaf:
        raise ValueError("pattern must have at least two leaves to split at the root")
    if side == "left":
        _root_split_check(chi.host, region, partner)
        other_pattern = chi.pattern.right
    else:
        _root_split_check(chi.host, partner, region)
        other_pattern = chi.pattern.left
    sub_partner = induced_subtree(chi.host, partner)
    partner_copies = enumerate_copies(sub_partner, other_pattern)
    joins = [tuple([partner[i] for i in pc]) for pc in partner_copies]
    assignment = chi.assignment
    memo: dict[CopyRef, tuple[int, ...]] = {}

    def image(own: CopyRef) -> tuple[int, ...]:
        img = memo.get(own)
        if img is None:
            if side == "left":
                img = tuple([assignment[own + pc] for pc in joins])
            else:
                img = tuple([assignment[pc + own] for pc in joins])
            memo[own] = img
        return img

    return sub_partner, other_pattern, partner_copies, image


def psi_map(chi: Coloring, a, b) -> dict[CopyRef, Coloring]:
    """Fusion images: for each copy P1 of pattern's left child inside a, the
    coloring P2 -> chi(P1 joined with P2) over the sub-host induced by b.

    a and b must be root-split in chi.host (a under the left subtree and b
    under the right subtree of a common vertex), so every join is a copy of
    the full pattern. Keys are in host coordinates; each image is a Coloring
    over induced_subtree(chi.host, b), whose leaf i is host leaf b[i].
    """
    a = validate_copy(chi.host, a)
    b = validate_copy(chi.host, b)
    sub_b, other_pattern, b_copies, image = _fusion(chi, a, b, "left")
    out: dict[CopyRef, Coloring] = {}
    for own in enumerate_copies(induced_subtree(chi.host, a), chi.pattern.left):
        own = tuple([a[i] for i in own])
        out[own] = Coloring(sub_b, other_pattern, chi.k, dict(zip(b_copies, image(own))))
    return out


def find_psi_mono(
    chi: Coloring, region, target: PlaneTree, side: str, partner
) -> CopyRef | None:
    """Lexicographically least copy of target inside region all of whose
    pattern-child copies (left child if side='left', else right) have equal
    fusion images against partner; None if no copy qualifies.

    The candidates come from the same stop-at-first-hit search as
    find_mono_copy, and a child-copy's fusion image is computed only when a
    candidate holds it, as a tuple of colors in partner-copy order."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    region = validate_copy(chi.host, region)
    partner = validate_copy(chi.host, partner)
    image = _fusion(chi, region, partner, side)[3]
    own_pattern = chi.pattern.left if side == "left" else chi.pattern.right
    common = _agreement(target, own_pattern, image)
    return _least_within(chi.host, region, target, lambda c: common(c) is not None)
