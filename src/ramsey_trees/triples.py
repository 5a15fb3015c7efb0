"""Rooted-triple relational encodings of plane trees.

A tree with its left-to-right leaf order is captured, up to isomorphism, by
the ternary relation "ab|c": the LCA of leaves a and b is a proper descendant
of the LCA of a and c. The relation is symmetric in its first two slots and
is stored over a linearly ordered domain of leaf identities (labels where
present, otherwise decimal positions).

A tree on n leaves has exactly 2*C(n, 3) triples: each 3-set of leaves has
one pair that parts below the third leaf, in both orders. Encoding emits
one tuple per triple and nothing else: at each internal vertex, every leaf
of one child with every leaf of the other and every leaf outside the
vertex. Decoding splits each block of consecutive leaves at its root with
one membership test per leaf: x goes with the block's first leaf h iff
hx|z holds for the block's last leaf z. The candidate tree is then
re-encoded against the input, one lookup per triple, so a relation no tree
realizes is rejected. Both directions charge the enumeration cap 2*C(n, 3)
items.

structure_of and restrict build relations that are well-formed by
construction, so they check only the domain and, for structure_of, that it
emitted exactly 2*C(n, 3) triples. Every structure from outside (the
constructor, from_json_obj) gets the four whole-set checks.
"""

from __future__ import annotations

from itertools import chain, product
from math import comb
from operator import itemgetter

from .errors import InconsistentTriplesError, FormatError
from .limits import _Value, check_enumeration
from .tree import PlaneTree, _check_label, leaf, leaf_labels, node

Triple = tuple[str, str, str]

_swap = itemgetter(1, 0, 2)


def _check_domain(domain: tuple[str, ...]) -> set[str]:
    """Raise ValueError unless domain is a nonempty tuple of distinct valid
    leaf identities; return its set."""
    if not domain:
        raise ValueError("domain must be nonempty")
    seen = set()
    for ident in domain:
        _check_label("leaf identity", ident)
        if ident in seen:
            raise ValueError(f"duplicate leaf identity: {ident!r}")
        seen.add(ident)
    return seen


class TripleStructure(_Value):
    """Ordered domain of leaf identities plus a symmetric triple relation.

    The constructor checks the domain and then, over the whole set, that
    every triple is a 3-tuple of distinct domain entries and that the
    relation is symmetric. It does not check that the relation is
    realizable by a tree (reconstruct decides that) nor that every 3-subset
    is oriented. structure_of and restrict, whose relations are well-formed
    by construction, skip the whole-set checks.
    """

    _fields = ("domain", "triples")

    def __init__(self, domain: tuple[str, ...], triples: frozenset[Triple]):
        domain = tuple(domain)
        # A frozenset of tuples (what from_json_obj builds) is kept as given.
        if not (type(triples) is frozenset and {*map(type, triples)} <= {tuple}):
            triples = frozenset(map(tuple, triples))
        seen = _check_domain(domain)
        # Whole-set checks; a loop looks for the offending triple only once
        # one has failed.
        if not {*map(len, triples)} <= {3} or any(
            a == b or b == c or a == c for a, b, c in triples
        ):
            bad = next(t for t in triples if len(t) != 3 or len(set(t)) != 3)
            raise ValueError(f"triple must have three distinct entries: {bad!r}")
        if not seen.issuperset(chain.from_iterable(triples)):
            bad = next(x for t in triples for x in t if x not in seen)
            raise ValueError(f"triple entry {bad!r} is not in the domain")
        if not triples.issuperset(map(_swap, triples)):
            bad = next(t for t in triples if _swap(t) not in triples)
            raise ValueError(f"triple relation must be symmetric in the first two slots: {bad!r}")
        self.__dict__.update(domain=domain, triples=triples)

    @classmethod
    def _built(cls, domain: tuple[str, ...], triples: frozenset[Triple]) -> "TripleStructure":
        """A structure on a relation this module has just built well-formed:
        a frozenset of tuples of three distinct domain entries, symmetric in
        the first two slots. Only the domain is checked, as __init__ checks
        it; the triples are stored as given."""
        _check_domain(domain)
        g = cls.__new__(cls)
        g.__dict__.update(domain=domain, triples=triples)
        return g

    def to_json_obj(self) -> dict:
        """The domain, and the triples in order of their entries' positions."""
        n = len(self.domain)
        pos = {x: i for i, x in enumerate(self.domain)}
        triples = list(self.triples)
        # one int per triple, its positions in base n, so the sort compares
        # ints rather than tuples
        keys = [(pos[a] * n + pos[b]) * n + pos[c] for a, b, c in triples]
        ordered = map(triples.__getitem__, sorted(range(len(triples)), key=keys.__getitem__))
        return {"domain": list(self.domain), "triples": list(map(list, ordered))}

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
        # Whole-list checks first; the loop names the first bad triple and
        # takes what they reject for a subclass of list or str.
        if (
            {*map(type, triples)} <= {list}
            and {*map(len, triples)} <= {3}
            and {*map(type, chain.from_iterable(triples))} <= {str}
        ):
            return cls(tuple(domain), frozenset(map(tuple, triples)))
        out = []
        for t in triples:
            if not isinstance(t, list) or len(t) != 3 or not all(isinstance(x, str) for x in t):
                raise FormatError(f"each triple must be an array of three strings: {t!r}")
            out.append(tuple(t))
        return cls(tuple(domain), frozenset(out))


def _split_products(t: PlaneTree, idents):
    """For each internal vertex of t, the triples whose first two leaves
    part there: one product per order of its two children, with every leaf
    outside the vertex as the third. idents lists t's leaves in order."""
    stack = [(t, 0)]
    while stack:
        v, lo = stack.pop()
        if v.is_leaf:
            continue
        mid, hi = lo + v.left.leaf_count, lo + v.leaf_count
        left, right, outside = idents[lo:mid], idents[mid:hi], idents[:lo] + idents[hi:]
        yield product(left, right, outside)
        yield product(right, left, outside)
        stack += ((v.left, lo), (v.right, mid))


def structure_of(t: PlaneTree) -> TripleStructure:
    """Encode a tree; leaf identities are labels, or positions where absent."""
    labels = leaf_labels(t)
    n = t.leaf_count
    idents = [lab if lab is not None else str(i) for i, lab in enumerate(labels)]
    if len(set(idents)) != n:
        dupes = sorted({x for x in idents if idents.count(x) > 1})
        raise ValueError(f"leaf identities are not distinct: {dupes}")
    size = 2 * comb(n, 3)
    check_enumeration(size)
    # The products draw on three disjoint slices of distinct identities, in
    # both orders of each vertex's children; the size certifies that none
    # was lost or put in another's place.
    triples = frozenset(chain.from_iterable(_split_products(t, idents)))
    if len(triples) != size:
        raise RuntimeError(f"internal error: encoded {len(triples)} triples, expected {size}")
    return TripleStructure._built(tuple(idents), triples)


def restrict(g: TripleStructure, keep) -> TripleStructure:
    """Induced substructure on a nonempty subset of the domain, order kept."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("restriction subset must be nonempty")
    missing = keep_set - set(g.domain)
    if missing:
        raise ValueError(f"not in the domain: {sorted(missing)}")
    # A subset of g's relation on a subset of its domain stays well-formed.
    domain = tuple(x for x in g.domain if x in keep_set)
    return TripleStructure._built(domain, frozenset(filter(keep_set.issuperset, g.triples)))


def substructure_iso(g: TripleStructure, h: TripleStructure) -> bool:
    """Isomorphism under the order-preserving domain bijection."""
    if len(g.domain) != len(h.domain):
        return False
    to_h = dict(zip(g.domain, h.domain))
    return {(to_h[a], to_h[b], to_h[c]) for a, b, c in g.triples} == h.triples


def reconstruct(g: TripleStructure) -> PlaneTree:
    """The unique plane tree realizing g, leaves labeled by their identities.

    Root split rule: a leaf x strictly inside a block goes with the block's
    first leaf h iff hx|z holds for the block's last leaf z, that is iff h
    and x part below the block's root. That side must be a prefix of the
    block, and recursion proceeds on both sides. The candidate is then
    re-encoded and compared with g: g must have exactly the candidate's
    2*C(n, 3) triples, so any unrealizable relation (including missing or
    surplus orientations) is rejected.
    """
    domain, triples = g.domain, g.triples
    n = len(domain)
    size = 2 * comb(n, 3)
    check_enumeration(size)
    if len(triples) != size:
        raise InconsistentTriplesError("inconsistent")

    def build(lo: int, hi: int) -> PlaneTree:
        if hi - lo == 1:
            return leaf(domain[lo])
        h, z = domain[lo], domain[hi - 1]
        with_h = [(h, x, z) in triples for x in domain[lo + 1 : hi - 1]]
        mid = lo + 1 + sum(with_h)
        if not all(with_h[: mid - lo - 1]):
            raise InconsistentTriplesError("inconsistent")
        return node(build(lo, mid), build(mid, hi))

    candidate = build(0, n)
    # Equal sizes, so containment is equality.
    if not triples.issuperset(chain.from_iterable(_split_products(candidate, domain))):
        raise InconsistentTriplesError("inconsistent")
    return candidate
