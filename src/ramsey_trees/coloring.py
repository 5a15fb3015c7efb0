"""Colorings of pattern-copies and monochromatic-copy search.

A Coloring assigns one of k colors to every copy of a pattern inside a host
(totality is mandatory). A region (leaf subset) is monochromatic when all
pattern-copies whose leaves lie inside it share one color; a region with no
pattern-copies at all counts as monochromatic with sentinel color -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError
from .tree import PlaneTree, iso, parse_newick, to_newick
from .embedding import CopyRef, enumerate_copies, induced_subtree, validate_copy


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
        from .tree import leaf

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


def _copies_within(host: PlaneTree, region: CopyRef, target: PlaneTree) -> list[CopyRef]:
    """The copies of target in host whose leaves lie inside region, in
    lexicographic order: the copies in the tree region induces, mapped
    through region (increasing, so the order is kept)."""
    if len(region) == host.leaf_count:
        # the host itself keeps its shared subtrees, which enumeration reuses
        return enumerate_copies(host, target)
    sub = induced_subtree(host, region)
    return [tuple([region[i] for i in c]) for c in enumerate_copies(sub, target)]


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
    """
    if region is None:
        candidates = enumerate_copies(chi.host, target)
    else:
        candidates = _copies_within(chi.host, validate_copy(chi.host, region), target)
    if not candidates:  # no template needed, as in arrows._arrow_edges
        return None
    template = enumerate_copies(target, chi.pattern)
    assignment = chi.assignment
    for cand in candidates:
        colors = {assignment[tuple([cand[i] for i in rel])] for rel in template}
        if len(colors) <= 1:
            return cand, colors.pop() if colors else -1
    return None


def _root_split_check(host: PlaneTree, a: CopyRef, b: CopyRef) -> None:
    """Require a common vertex whose left subtree spans a and right spans b."""
    if a[-1] >= b[0]:
        raise ValueError("not root-split")
    t = host
    lo = 0
    while not t.is_leaf:
        mid = lo + t.left.leaf_count
        if a[-1] < mid <= b[0]:
            return
        if b[-1] < mid:
            t = t.left
        elif a[0] >= mid:
            t = t.right
            lo = mid
        else:
            break
    raise ValueError("not root-split")


def _psi_images(
    chi: Coloring, region: CopyRef, partner: CopyRef, side: str
) -> dict[CopyRef, Coloring]:
    """For each copy of one pattern child inside region, the coloring its
    joins with partner-side copies induce on the partner sub-host."""
    if chi.pattern.is_leaf:
        raise ValueError("pattern must have at least two leaves to split at the root")
    if side == "left":
        _root_split_check(chi.host, region, partner)
        own_pattern, other_pattern = chi.pattern.left, chi.pattern.right
    else:
        _root_split_check(chi.host, partner, region)
        own_pattern, other_pattern = chi.pattern.right, chi.pattern.left
    sub_region = induced_subtree(chi.host, region)
    sub_partner = induced_subtree(chi.host, partner)
    partner_copies = enumerate_copies(sub_partner, other_pattern)
    out: dict[CopyRef, Coloring] = {}
    for own in enumerate_copies(sub_region, own_pattern):
        own_host = tuple(region[i] for i in own)
        assignment = {}
        for pc in partner_copies:
            pc_host = tuple(partner[i] for i in pc)
            join = own_host + pc_host if side == "left" else pc_host + own_host
            assignment[pc] = chi.assignment[join]
        out[own_host] = Coloring(sub_partner, other_pattern, chi.k, assignment)
    return out


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
    return _psi_images(chi, a, b, "left")


def find_psi_mono(
    chi: Coloring, region, target: PlaneTree, side: str, partner
) -> CopyRef | None:
    """Lexicographically least copy of target inside region all of whose
    pattern-child copies (left child if side='left', else right) have equal
    fusion images against partner; None if no copy qualifies."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    region = validate_copy(chi.host, region)
    partner = validate_copy(chi.host, partner)
    images = _psi_images(chi, region, partner, side)
    own_pattern = chi.pattern.left if side == "left" else chi.pattern.right
    candidates = _copies_within(chi.host, region, target)
    if not candidates:
        return None
    # the child-copies inside a candidate: one template relabeled per candidate
    template = enumerate_copies(target, own_pattern)
    for cand in candidates:
        inner = [images[tuple([cand[i] for i in rel])] for rel in template]
        if all(img == inner[0] for img in inner[1:]):
            return cand
    return None
