"""Rooted-triple relational encodings of plane trees.

A tree with its left-to-right leaf order is captured, up to isomorphism, by
the ternary relation "ab|c": the LCA of leaves a and b is a proper descendant
of the LCA of a and c. The relation is symmetric in its first two slots and
is stored over a linearly ordered domain of leaf identities (labels where
present, otherwise decimal positions).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentTriplesError, FormatError
from .limits import check_enumeration
from .tree import PlaneTree, leaf, node
from .embedding import leaf_labels, leaf_lca_depth

Triple = tuple[str, str, str]


def _check_identity(ident: str) -> None:
    if not isinstance(ident, str) or ident == "":
        raise ValueError(f"leaf identity must be a nonempty string, got {ident!r}")
    if any(ch in ident for ch in "(),"):
        raise ValueError(f"leaf identity may not contain '(' ')' ',': {ident!r}")
    if ident.strip() != ident:
        raise ValueError(f"leaf identity may not have surrounding whitespace: {ident!r}")


@dataclass(frozen=True)
class TripleStructure:
    """Ordered domain of leaf identities plus a symmetric triple relation.

    The constructor checks symmetry, distinctness and domain membership; it
    does not check that the relation is realizable by a tree (reconstruct
    decides that) nor that every 3-subset is oriented.
    """

    domain: tuple[str, ...]
    triples: frozenset[Triple]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "triples", frozenset(tuple(t) for t in self.triples))
        if not self.domain:
            raise ValueError("domain must be nonempty")
        seen = set()
        for ident in self.domain:
            _check_identity(ident)
            if ident in seen:
                raise ValueError(f"duplicate leaf identity: {ident!r}")
            seen.add(ident)
        for t in self.triples:
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"triple must have three distinct entries: {t!r}")
            for x in t:
                if x not in seen:
                    raise ValueError(f"triple entry {x!r} is not in the domain")
            a, b, c = t
            if (b, a, c) not in self.triples:
                raise ValueError(f"triple relation must be symmetric in the first two slots: {t!r}")

    def to_json_obj(self) -> dict:
        pos = {x: i for i, x in enumerate(self.domain)}
        ordered = sorted(self.triples, key=lambda t: (pos[t[0]], pos[t[1]], pos[t[2]]))
        return {"domain": list(self.domain), "triples": [list(t) for t in ordered]}

    @classmethod
    def from_json_obj(cls, obj) -> "TripleStructure":
        if not isinstance(obj, dict) or set(obj) != {"domain", "triples"}:
            raise FormatError('structure JSON must be an object with keys "domain" and "triples"')
        domain = obj["domain"]
        triples = obj["triples"]
        if not isinstance(domain, list) or not all(isinstance(x, str) for x in domain):
            raise FormatError('"domain" must be an array of strings')
        if not isinstance(triples, list):
            raise FormatError('"triples" must be an array')
        out = []
        for t in triples:
            if not isinstance(t, list) or len(t) != 3 or not all(isinstance(x, str) for x in t):
                raise FormatError(f"each triple must be an array of three strings: {t!r}")
            out.append(tuple(t))
        return cls(tuple(domain), frozenset(out))


def structure_of(t: PlaneTree) -> TripleStructure:
    """Encode a tree; leaf identities are labels, or positions where absent."""
    labels = leaf_labels(t)
    n = t.leaf_count
    idents = [lab if lab is not None else str(i) for i, lab in enumerate(labels)]
    if len(set(idents)) != n:
        dupes = sorted({x for x in idents if idents.count(x) > 1})
        raise ValueError(f"leaf identities are not distinct: {dupes}")
    check_enumeration(n * (n - 1) * (n - 2))
    depth = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            depth[a][b] = depth[b][a] = leaf_lca_depth(t, a, b)
    triples: set[Triple] = set()
    for a in range(n):
        for b in range(a + 1, n):
            dab = depth[a][b]
            for c in range(n):
                if c != a and c != b and dab > depth[a][c]:
                    triples.add((idents[a], idents[b], idents[c]))
                    triples.add((idents[b], idents[a], idents[c]))
    return TripleStructure(tuple(idents), frozenset(triples))


def restrict(g: TripleStructure, keep) -> TripleStructure:
    """Induced substructure on a nonempty subset of the domain, order kept."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("restriction subset must be nonempty")
    missing = keep_set - set(g.domain)
    if missing:
        raise ValueError(f"not in the domain: {sorted(missing)}")
    domain = tuple(x for x in g.domain if x in keep_set)
    triples = frozenset(t for t in g.triples if all(x in keep_set for x in t))
    return TripleStructure(domain, triples)


def substructure_iso(g: TripleStructure, h: TripleStructure) -> bool:
    """Isomorphism under the order-preserving domain bijection."""
    if len(g.domain) != len(h.domain):
        return False
    to_h = dict(zip(g.domain, h.domain))
    return {(to_h[a], to_h[b], to_h[c]) for a, b, c in g.triples} == h.triples


def reconstruct(g: TripleStructure) -> PlaneTree:
    """The unique plane tree realizing g, leaves labeled by their identities.

    Root split rule: the left block is the first domain element together with
    everything sharing a triple with it; the block must be a proper prefix of
    the domain, and recursion proceeds on both blocks. The candidate is then
    re-encoded and compared with g, so any unrealizable relation (including
    missing or surplus orientations) is rejected.
    """
    n = len(g.domain)
    check_enumeration(n * (n - 1) * (n - 2))
    pos = {x: i for i, x in enumerate(g.domain)}
    rel = {(pos[a], pos[b], pos[c]) for a, b, c in g.triples}

    def build(indices: list[int]) -> PlaneTree:
        if len(indices) == 1:
            return leaf(g.domain[indices[0]])
        head = indices[0]
        members = set(indices)
        block = {head}
        for x in indices[1:]:
            if any((head, x, z) in rel for z in members if z != head and z != x):
                block.add(x)
        size = len(block)
        if size == len(indices) or set(indices[:size]) != block:
            raise InconsistentTriplesError("inconsistent")
        return node(build(indices[:size]), build(indices[size:]))

    candidate = build(list(range(len(g.domain))))
    if structure_of(candidate) != g:
        raise InconsistentTriplesError("inconsistent")
    return candidate
