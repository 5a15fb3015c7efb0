"""The four benchmark workloads: search, construct, large-host and cli.

Each workload generates its inputs from the seed when it is constructed
(set-up), then exposes a fixed list of operations. One pass runs every
operation once; the harness times passes, and afterwards checks the first
pass's outputs and compares every pass's exact counters with the first.

Inputs the library sees are only the generated trees, colorings and files.
Checks use the untraced library plus independent definitional oracles
written here; none of them rely on `assert`, so they still run under -O.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Every arrow query sets a fixed node budget; the time budget is far above any
# run, so only node budgets bind and verdicts and node counts are deterministic.
NO_TIME_LIMIT_MS = 10**9

CAT = "((,),)"
MIRROR = "(,(,))"
CHERRY = "(,)"
P2 = "((,),(,))"
LEAF = ""


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def digest_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@dataclass
class Op:
    """One operation of a pass. `run(lib, state)` returns its result; `state`
    is a per-pass dict through which later operations may use earlier results.
    `seeded` marks results that depend on the seed (their counters are then
    compared only between runs with the same seed)."""

    name: str
    run: Callable[[Any, dict], Any]
    seeded: bool = False
    arrow: tuple | None = None  # (host, target, pattern, k, max_nodes) of a check_arrow op
    truth: str | None = None  # independently confirmed verdict of that arrow query
    info: Any = None  # what the op's check needs to know about its input


class Workload:
    name = ""

    def __init__(self, mods: dict, lib, seed: int, workdir: Path):
        self.m = mods  # untraced modules, for checks and counters
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    # -- per-op hooks; arrow ops are handled here for every workload --

    def counter(self, op: Op, result) -> Any:
        if op.arrow is not None:
            return {"verdict": result.status, "nodes": result.nodes,
                    "witness": None if result.witness is None
                    else digest(result.witness.to_json_obj())}
        return self.op_counter(op, result)

    def check(self, op: Op, result) -> list[str]:
        if op.arrow is not None:
            return self.check_arrow_result(op, result)
        return self.op_check(op, result)

    def verdict(self, op: Op, result) -> str | None:
        """Verdict of an arrow query, None for other operations."""
        return result.status if op.arrow is not None else None

    def op_counter(self, op: Op, result) -> Any:
        raise NotImplementedError

    @staticmethod
    def op_time(samples: list[float]) -> float:
        """An operation's time in a run from its untraced repetitions: the
        fastest, the one other load on the machine disturbed least."""
        return min(samples)

    def op_check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, tracer, phase: str, counters: dict) -> dict[str, float]:
        """Workload-specific per-layer metrics of one traced pass, from its
        spans and the exact counters of its outputs."""
        return {}

    def close(self) -> None:
        pass

    # -- shared arrow machinery --

    def arrow_op(self, name: str, host, target, pattern, k: int, max_nodes: int, truth: str) -> Op:
        budget = self.m["arrows"].SearchBudget(max_nodes, NO_TIME_LIMIT_MS)
        return Op(name, lambda lib, st: lib.check_arrow(host, target, pattern, k, budget),
                  arrow=(host, target, pattern, k, max_nodes), truth=truth)

    def check_arrow_result(self, op: Op, v) -> list[str]:
        host, target, pattern, k, max_nodes = op.arrow
        errors = []
        if v.status not in ("holds", "fails", "unknown"):
            return [f"{op.name}: unexpected status {v.status!r}"]
        if v.status != "unknown" and v.status != op.truth:
            errors.append(f"{op.name}: verdict {v.status} contradicts the known truth {op.truth}")
        if v.status == "unknown" and v.nodes != max_nodes:
            errors.append(f"{op.name}: unknown after {v.nodes} nodes, budget {max_nodes}")
        if v.nodes > max_nodes:
            errors.append(f"{op.name}: {v.nodes} nodes over the budget {max_nodes}")
        if v.status == "fails":
            errors += self.check_witness(op.name, host, target, pattern, k, v.witness)
        elif v.witness is not None:
            errors.append(f"{op.name}: {v.status} verdict carries a witness")
        return errors

    def check_witness(self, name, host, target, pattern, k, w) -> list[str]:
        """A bad coloring by definition: total on the P-copies, k colors, and
        every H-copy sees at least two colors among its inner P-copies."""
        emb, tree = self.m["embedding"], self.m["tree"]
        if w is None:
            return [f"{name}: fails without a witness"]
        if not (tree.iso(w.host, host) and tree.iso(w.pattern, pattern) and w.k == k):
            return [f"{name}: witness colors a different host, pattern or k"]
        variables = emb.enumerate_copies(host, pattern)
        if sorted(w.assignment) != variables or not all(0 <= c < k for c in w.assignment.values()):
            return [f"{name}: witness is not a total {k}-coloring of the pattern copies"]
        h_copies = emb.enumerate_copies(host, target)
        if len(h_copies) != emb.count_copies(host, target):
            return [f"{name}: enumerated H-copies disagree with count_copies"]
        for hc in h_copies:
            inside = set(hc)
            colors = {col for c, col in w.assignment.items() if inside.issuperset(c)}
            if len(colors) < 2:
                return [f"{name}: witness leaves H-copy {list(hc)} monochromatic"]
        return []

    def arrow_sizes(self) -> tuple[dict, list[str]]:
        """Problem size of each arrow query, (variables, H-copies), counted and
        checked against the enumeration."""
        emb = self.m["embedding"]
        sizes, errors = {}, []
        for op in self.ops:
            if op.arrow is None:
                continue
            host, target, pattern = op.arrow[:3]
            sizes[op.name] = (emb.count_copies(host, pattern), emb.count_copies(host, target))
            listed = (len(emb.enumerate_copies(host, pattern)), len(emb.enumerate_copies(host, target)))
            if listed != sizes[op.name]:
                errors.append(f"{op.name}: copy counts {sizes[op.name]} disagree with enumeration {listed}")
        return sizes, errors


def _perfect_shape_induced(height: int, leaves: list[int]) -> str:
    """Oracle: shape key of the tree a leaf set induces in a perfect tree."""
    if len(leaves) == 1:
        return ""
    half = 1 << (height - 1)
    lo = [x for x in leaves if x < half]
    hi = [x - half for x in leaves if x >= half]
    if not lo:
        return _perfect_shape_induced(height - 1, hi)
    if not hi:
        return _perfect_shape_induced(height - 1, lo)
    return f"({_perfect_shape_induced(height - 1, lo)},{_perfect_shape_induced(height - 1, hi)})"


def _comb_shape(n: int) -> str:
    """Shape key of the left comb with n leaves: any leaf set of a left comb
    induces a left comb."""
    text = ""
    for _ in range(n - 1):
        text = f"({text},)"
    return text


def random_tree_text(rng: random.Random, n: int, prefix: str) -> str:
    """Newick text of a random labeled tree with n leaves (uniform root splits)."""
    labels = iter(f"{prefix}{i}" for i in rng.sample(range(n), n))

    def build(size: int) -> str:
        if size == 1:
            return next(labels)
        k = rng.randint(1, size - 1)
        return f"({build(k)},{build(size - k)})"

    return build(n)


def triple_count(t) -> int:
    """Oracle: ab|c holds, in both orders of a and b, for every c outside the
    split vertex of a and b, so each vertex v adds 2 * |left| * |right| * (n - |v|)."""
    n, total, stack = t.leaf_count, 0, [t]
    while stack:
        v = stack.pop()
        if not v.is_leaf:
            total += 2 * v.left.leaf_count * v.right.leaf_count * (n - v.leaf_count)
            stack += [v.left, v.right]
    return total


# ---------------------------------------------------------------- search


class Search(Workload):
    """Arrow queries on a 16-leaf host: backtracking takes most of the time."""

    name = "search"
    # name, host height, target, pattern, k, node budget, true verdict. Every
    # query takes at most about 150 ms, so a run repeats each one many times.
    # The first three are left unknown by the backtracking engine within any
    # budget tried (up to 200k nodes); their truths were confirmed with an
    # exact MILP solve. The decided ones are certain by counting: a 3-colored
    # or 2-colored P4 has 6 or 8 leaves of one color, and a leaf set of a
    # perfect tree of height h without a caterpillar or without a P2 copy has
    # at most h + 1 leaves; P4 has 16 leaves, more than 7 colors.
    QUERIES = [
        ("P4-cat-cherry-2", 4, CAT, CHERRY, 2, 20_000, "holds"),
        ("P4-mirror-cherry-2", 4, MIRROR, CHERRY, 2, 20_000, "holds"),
        ("P4-P2-cherry-2", 4, P2, CHERRY, 2, 5_000, "fails"),
        ("P4-cat-cherry-3", 4, CAT, CHERRY, 3, 20_000, "fails"),
        ("P4-P2-leaf-2", 4, P2, LEAF, 2, 20_000, "holds"),
        ("P4-cat-leaf-3", 4, CAT, LEAF, 3, 20_000, "holds"),
        ("P4-cherry-leaf-7", 4, CHERRY, LEAF, 7, 20_000, "holds"),
    ]

    def __init__(self, mods, lib, seed, workdir):
        super().__init__(mods, lib, seed, workdir)
        hosts = {h: lib.perfect_tree(h) for h in {q[1] for q in self.QUERIES}}
        trees = {s: lib.parse_newick(s) for q in self.QUERIES for s in q[2:4]}
        queries = list(self.QUERIES)
        self.rng.shuffle(queries)  # the seed fixes the order; verdicts must not depend on it
        self.ops = [self.arrow_op(name, hosts[h], trees[t], trees[p], k, n, truth)
                    for name, h, t, p, k, n, truth in queries]


# ---------------------------------------------------------------- construct


class Construct(Workload):
    """Arrow queries on 16-64-leaf hosts where constraint construction
    dominates, plus height scans, a reduction chain, the two extractors and a
    monochromatic-copy search."""

    name = "construct"
    # Each query takes at most about 150 ms. P4-P2-cat-2 (280 variables, 860
    # H-copies) was confirmed with an exact MILP solve; the leaf-pattern ones
    # hold by counting (see Search) and by pigeonhole.
    QUERIES = [
        ("P4-P2-cat-2", 4, P2, CAT, 2, 200_000, "holds"),
        ("P5-cat-leaf-2", 5, CAT, LEAF, 2, 200_000, "holds"),
        ("P5-cat-leaf-3", 5, CAT, LEAF, 3, 200_000, "holds"),
        ("P6-cherry-leaf-3", 6, CHERRY, LEAF, 3, 200_000, "holds"),
    ]
    SCANS = [(P2, LEAF, 2, 4), (CAT, LEAF, 2, 3), (CHERRY, LEAF, 4, 3)]  # ..., least height
    N_COLORINGS = 16
    MONO_HEIGHT = 5
    N_MONO = 8

    def __init__(self, mods, lib, seed, workdir):
        super().__init__(mods, lib, seed, workdir)
        rng = self.rng
        trees = {s: lib.parse_newick(s) for s in (CAT, CHERRY, P2, LEAF)}
        hosts = {h: lib.perfect_tree(h) for h in (4, 5, 6)}
        self.trees, self.hosts = trees, hosts
        self.budget = mods["arrows"].SearchBudget(200_000, NO_TIME_LIMIT_MS)
        ops = [self.arrow_op(name, hosts[h], trees[t], trees[p], k, n, truth)
               for name, h, t, p, k, n, truth in self.QUERIES]
        for t, p, k, least in self.SCANS:
            ops.append(Op(f"scan-{t or 'leaf'}-{p or 'leaf'}-{k}",
                          lambda lib, st, t=t, p=p, k=k: lib.min_arrow_height_scan(
                              trees[t], trees[p], k, self.budget), info=(t, p, k, least)))
        rng.shuffle(ops)
        # The chain for (cherry, leaf, 4) ends in P4, with 16 leaves.
        self.k_colorings = [[rng.randrange(4) for _ in range(16)] for _ in range(self.N_COLORINGS)]
        self.iter_host = lib.iterate(trees[CAT], 6)
        n = self.iter_host.leaf_count
        self.leaf_colorings = []
        for i in range(self.N_COLORINGS):
            # Palette sizes are fixed, so the seed moves colors, not the work.
            palette = rng.sample(range(6), 1 + i % 6)
            self.leaf_colorings.append([rng.choice(palette) for _ in range(n)])
        cherries = list(itertools.combinations(range(hosts[self.MONO_HEIGHT].leaf_count), 2))
        self.mono_colorings = [{c: rng.randrange(2) for c in cherries} for _ in range(self.N_MONO)]
        # extract-mono-k uses the chain built by the operation before it.
        ops += [
            Op("chain-cherry-leaf-4", self._chain),
            Op("extract-mono-k", self._extract_k, seeded=True),
            Op("extract-mono-leafcolor", self._extract_leaf, seeded=True),
            Op(f"find-mono-copy-P{self.MONO_HEIGHT}-P2", self._find_mono, seeded=True),
        ]
        self.ops = ops

    def _chain(self, lib, st):
        st["chain"] = lib.build_reduction_chain(self.trees[CHERRY], self.trees[LEAF], 4, self.budget)
        return st["chain"]

    def _extract_k(self, lib, st):
        chain = st["chain"]
        out = []
        for colors in self.k_colorings:
            chi = lib.Coloring(chain.trees[-1], self.trees[LEAF], 4,
                               {(i,): c for i, c in enumerate(colors)})
            out.append(lib.extract_mono_k(chain, chi))
        return out

    def _extract_leaf(self, lib, st):
        out = []
        for colors in self.leaf_colorings:
            chi = lib.Coloring(self.iter_host, self.trees[LEAF], 6,
                               {(i,): c for i, c in enumerate(colors)})
            out.append(lib.extract_mono_leafcolor(self.trees[CAT], 6, self.iter_host, chi))
        return out

    def _find_mono(self, lib, st):
        out = []
        for assignment in self.mono_colorings:
            chi = lib.Coloring(self.hosts[self.MONO_HEIGHT], self.trees[CHERRY], 2, assignment)
            out.append(lib.find_mono_copy(chi, self.trees[P2]))
        return out

    def op_counter(self, op, result):
        if op.name.startswith("scan-"):
            d, scan = result
            return {"height": d, "scan": [[h, v.status, v.nodes] for h, v in scan]}
        if op.name.startswith("chain-"):
            return [self.m["tree"].to_newick(t) for t in result.trees]
        if op.name.startswith("find-mono-copy"):
            return [None if r is None else [list(r[0]), r[1]] for r in result]
        return [[list(c), col] for c, col in result]

    def op_check(self, op, result):
        tree, emb = self.m["tree"], self.m["embedding"]
        if op.name.startswith("scan-"):
            t, p, k, want = op.info
            d, scan = result
            errors = [] if d == want else [f"{op.name}: least height {d}, expected {want}"]
            for h, v in scan:
                if v.status == "fails":
                    errors += self.check_witness(f"{op.name} height {h}", tree.perfect_tree(h),
                                                 self.trees[t], self.trees[p], k, v.witness)
            return errors
        if op.name.startswith("chain-"):
            want = [CHERRY, P2, tree.to_newick(tree.perfect_tree(4))]
            got = [tree.shape_key(t) for t in result.trees]
            errors = [] if got == want else [f"{op.name}: chain {got}, expected {want}"]
            if not result.certificates or any(c.status != "holds" for c in result.certificates):
                errors.append(f"{op.name}: chain links are not all certified")
            return errors
        if op.name == "extract-mono-k":
            top = tree.perfect_tree(4)
            return self._check_leaf_copies(op.name, top, self.trees[CHERRY], self.k_colorings, result)
        if op.name == "extract-mono-leafcolor":
            return self._check_leaf_copies(op.name, self.iter_host, self.trees[CAT],
                                           self.leaf_colorings, result)
        errors = []
        host = self.hosts[self.MONO_HEIGHT]
        for assignment, r in zip(self.mono_colorings, result):
            if r is None:
                if any(len({assignment[c] for c in itertools.combinations(hc, 2)}) == 1
                       for hc in emb.enumerate_copies(host, self.trees[P2])):
                    errors.append(f"{op.name}: reported no mono copy, but one exists")
                continue
            copy, color = r
            if not emb.is_copy(host, copy, self.trees[P2]):
                errors.append(f"{op.name}: {list(copy)} is not a copy of P2")
            if {assignment[c] for c in itertools.combinations(copy, 2)} != {color}:
                errors.append(f"{op.name}: {list(copy)} is not monochromatic in color {color}")
        return errors

    def _check_leaf_copies(self, name, host, pattern, colorings, result) -> list[str]:
        col, emb = self.m["coloring"], self.m["embedding"]
        errors = []
        for colors, (copy, color) in zip(colorings, result):
            if not emb.is_copy(host, copy, pattern):
                errors.append(f"{name}: {list(copy)} is not a copy of {self.m['tree'].to_newick(pattern)}")
            if {colors[i] for i in copy} != {color}:
                errors.append(f"{name}: {list(copy)} is not monochromatic in color {color}")
            chi = col.Coloring.from_leaf_colors(host, colors, max(colors) + 1)
            if col.is_mono(chi, copy) != color:
                errors.append(f"{name}: is_mono disagrees on {list(copy)}")
        if len(result) != len(colorings):
            errors.append(f"{name}: {len(result)} results for {len(colorings)} colorings")
        return errors


# ---------------------------------------------------------------- large-host


class LargeHost(Workload):
    """Tree, embedding and triples operations on hosts of up to 2^20 leaves.
    Each operation takes at most about 250 ms, so a run repeats each one many
    times; 2^18 leaves is past the size where LCA queries slow down."""

    name = "large-host"
    N_INDUCED = 16
    INDUCED_LEAVES = 8
    CAT_LEAVES = 3002
    NEWICK_HEIGHT = 14
    # (leaves, trees): several small trees, so that the seed's tree shapes
    # average out in the shape-dependent cost of reconstruct.
    TRIPLE_TREES = ((24, 4), (48, 1))

    def __init__(self, mods, lib, seed, workdir):
        super().__init__(mods, lib, seed, workdir)
        rng = self.rng
        self.cat = lib.parse_newick(_comb_shape(self.CAT_LEAVES))
        self.iter_cat = lib.iterate(lib.parse_newick(CAT), 8)
        self.patterns = [p for m in range(1, 6) for p in lib.all_trees(m)]
        self.p7, self.p5, self.p2 = lib.perfect_tree(7), lib.perfect_tree(5), lib.perfect_tree(2)
        self.cat3 = lib.parse_newick(CAT)
        self.newick_text = lib.to_newick(lib.perfect_tree(self.NEWICK_HEIGHT))
        sizes = {"p16": 1 << 16, "p18": 1 << 18, "cat3002": self.CAT_LEAVES}
        self.lca_pair = {h: sorted(rng.sample(range(n), 2)) for h, n in sizes.items()}
        self.leafsets = {h: [sorted(rng.sample(range(n), self.INDUCED_LEAVES))
                             for _ in range(self.N_INDUCED)] for h, n in sizes.items()}
        self.random_trees = {n: [lib.parse_newick(random_tree_text(rng, n, "v"))
                                 for _ in range(count)] for n, count in self.TRIPLE_TREES}
        ops = [
            Op("to-newick-P14", lambda lib, st: lib.to_newick(lib.perfect_tree(self.NEWICK_HEIGHT))),
            Op("parse-newick-P14", lambda lib, st: lib.parse_newick(self.newick_text)),
            Op("count-copies-P20", lambda lib, st: [
                lib.count_copies(lib.perfect_tree(20), p) for p in self.patterns]),
            Op("count-copies-iterate-cat-8", lambda lib, st: [
                lib.count_copies(self.iter_cat, p) for p in self.patterns]),
            Op("enumerate-P7-cat", lambda lib, st: lib.enumerate_copies(self.p7, self.cat3)),
            Op("enumerate-P5-P2", lambda lib, st: lib.enumerate_copies(self.p5, self.p2)),
        ]
        for h in sizes:
            # A fresh root per pass, so its LCA preprocessing is redone.
            ops.append(Op(f"lca-prep-{h}", lambda lib, st, h=h: self._fresh_lca(lib, st, h),
                          seeded=True))
            ops.append(Op(f"induced-{h}", lambda lib, st, h=h: [
                lib.induced_subtree(st[h], s) for s in self.leafsets[h]], seeded=True))
        for n in self.random_trees:
            ops.append(Op(f"structure-of-{n}", lambda lib, st, n=n: st.setdefault(n, [
                lib.structure_of(t) for t in self.random_trees[n]]), seeded=True))
            ops.append(Op(f"reconstruct-{n}", lambda lib, st, n=n: [
                lib.reconstruct(s) for s in st[n]], seeded=True))
        self.ops = ops

    def _fresh_lca(self, lib, st, h):
        if h == "cat3002":
            st[h] = lib.node(self.cat.left, self.cat.right)
        else:
            st[h] = lib.perfect_tree(int(h[1:]))
        a, b = self.lca_pair[h]
        return lib.leaf_lca_depth(st[h], a, b)

    def op_counter(self, op, result):
        tree = self.m["tree"]
        if op.name.startswith("to-newick"):
            return {"bytes": len(result), "text": digest(result)}
        if op.name.startswith("parse-newick"):
            return {"leaves": result.leaf_count, "text": digest(tree.to_newick(result))}
        if op.name.startswith("count-copies"):
            return [str(c) for c in result]
        if op.name.startswith("enumerate"):
            return {"copies": len(result), "list": digest_lines(map(repr, result))}
        if op.name.startswith("lca-prep"):
            return result
        if op.name.startswith("induced"):
            return [tree.shape_key(t) for t in result]
        if op.name.startswith("structure-of"):
            return [{"triples": len(s.triples), "domain": digest(s.domain),
                     "relation": digest_lines(sorted(map("|".join, s.triples)))} for s in result]
        return [tree.to_newick(t) for t in result]

    def op_check(self, op, result):
        tree, emb = self.m["tree"], self.m["embedding"]
        name = op.name
        if name.startswith("to-newick"):
            want = 3 * (1 << self.NEWICK_HEIGHT) - 3  # "(", ",", ")" per internal vertex
            errors = [] if len(result) == want else [f"{name}: {len(result)} bytes, expected {want}"]
            if tree.parse_newick(result) != tree.perfect_tree(self.NEWICK_HEIGHT):
                errors.append(f"{name}: Newick text does not parse back to the tree")
            return errors
        if name.startswith("parse-newick"):
            if result != tree.perfect_tree(self.NEWICK_HEIGHT) or tree.to_newick(result) != self.newick_text:
                return [f"{name}: Newick text does not round-trip"]
            return []
        if name.startswith("count-copies"):
            host = tree.perfect_tree(20) if name.endswith("P20") else self.iter_cat
            errors = []
            # Every m-subset of leaves induces exactly one shape with m leaves.
            for m in range(1, 6):
                got = sum(c for p, c in zip(self.patterns, result) if p.leaf_count == m)
                if got != math.comb(host.leaf_count, m):
                    errors.append(f"{name}: {m}-leaf copies sum to {got}, not C(n, {m})")
            if name.endswith("P20"):  # a perfect host is mirror-symmetric
                counts = {tree.shape_key(p): c for p, c in zip(self.patterns, result)}
                for key, c in counts.items():
                    if counts[key[::-1].translate(str.maketrans("()", ")("))] != c:
                        errors.append(f"{name}: count of {key} differs from its mirror's")
            return errors
        if name.startswith("enumerate"):
            host, pat, want = ((self.p7, self.cat3, 170_688) if name == "enumerate-P7-cat"
                               else (self.p5, self.p2, 16_120))
            errors = [] if len(result) == want == emb.count_copies(host, pat) else [
                f"{name}: {len(result)} copies, expected {want} (= count_copies)"]
            if result != sorted(set(result)):
                errors.append(f"{name}: copies are not distinct and lexicographically ordered")
            elif any(not emb.is_copy(host, c, pat) for c in result[:: max(1, len(result) // 500)]):
                errors.append(f"{name}: a sampled copy is not a copy of the pattern")
            return errors
        h = name.split("-")[-1]
        if name.startswith("lca-prep"):
            a, b = self.lca_pair[h]
            want = (int(h[1:]) - (a ^ b).bit_length() if h != "cat3002"
                    else self.CAT_LEAVES - 1 - b)
            return [] if result == want else [f"{name}: LCA depth {result}, expected {want}"]
        if name.startswith("induced"):
            host = self.cat if h == "cat3002" else tree.perfect_tree(int(h[1:]))
            errors = []
            for s, t in zip(self.leafsets[h], result):
                want = (_comb_shape(len(s)) if h == "cat3002"
                        else _perfect_shape_induced(int(h[1:]), s))
                if tree.shape_key(t) != want:
                    errors.append(f"{name}: induced shape of {s} is wrong")
                elif not emb.is_copy(host, s, t):
                    errors.append(f"{name}: is_copy rejects the induced subtree of {s}")
            return errors
        trees = self.random_trees[int(name.split("-")[-1])]
        if name.startswith("structure-of"):
            return [f"{name}: {len(s.triples)} triples, expected {triple_count(t)}"
                    for t, s in zip(trees, result) if len(s.triples) != triple_count(t)]
        return [] if result == trees else [f"{name}: reconstruct(structure_of(t)) != t"]

    def layer_metrics(self, tracer, phase, counters):
        out = {}
        for h in ("p16", "p18", "cat3002"):
            lca = tracer.durations_ms(phase, "embedding.leaf_lca_depth")
            out[f"embedding.lca_prep_ms.{h}"] = sum(d for q, d in lca if q == f"lca-prep-{h}")
            per = [d for q, d in tracer.durations_ms(phase, "embedding.induced_subtree")
                   if q == f"induced-{h}"]
            out[f"embedding.induced_us.{h}"] = 1000.0 * statistics.median(per) if per else 0.0
        out["tree.parse_newick_bytes"] = len(self.newick_text)
        out["tree.to_newick_bytes"] = (counters.get("to-newick-P14") or {}).get("bytes", 0)
        out["embedding.copies_enumerated"] = sum(
            (counters.get(n) or {}).get("copies", 0) for n in ("enumerate-P7-cat", "enumerate-P5-P2"))
        out["triples.triples"] = sum(s["triples"] for n in self.random_trees
                                     for s in counters.get(f"structure-of-{n}") or ())
        return out


# ---------------------------------------------------------------- cli


class Cli(Workload):
    """`python -m ramsey_trees.cli` invocations, one after another, covering
    every subcommand except selftest on small inputs. Set-up writes the input
    files; the CLI processes see only those files and their arguments."""

    name = "cli"

    def __init__(self, mods, lib, seed, workdir):
        super().__init__(mods, lib, seed, workdir)
        rng = self.rng
        root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env.pop("RAMSEY_MAX_LEAVES", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}

        def write(name: str, text: str) -> str:
            path = workdir / name
            path.write_text(text, encoding="utf-8")
            files[name] = path
            return str(path)

        p4, p6 = lib.perfect_tree(4), lib.perfect_tree(6)
        rand12 = lib.parse_newick(random_tree_text(rng, 12, "x"))
        rand10 = lib.parse_newick(random_tree_text(rng, 10, "y"))
        cat3 = lib.iterate(lib.parse_newick(CAT), 3)
        leaf = lib.parse_newick(LEAF)
        f_p6 = "@" + write("p6.nwk", lib.to_newick(p6))
        f_cat = "@" + write("cat.nwk", CAT)
        f_rand = "@" + write("rand12.nwk", lib.to_newick(rand12))
        f_struct = write("structure.json", json.dumps(lib.structure_of(rand10).to_json_obj()))
        f_bad = write("inconsistent.json", json.dumps(
            {"domain": ["a", "b", "c"], "triples": [["a", "b", "c"], ["b", "a", "c"],
                                                    ["b", "c", "a"], ["c", "b", "a"]]}))
        palette = rng.sample(range(3), rng.randint(1, 3))
        f_col3 = write("cat3-coloring.json", json.dumps(lib.Coloring(
            cat3, leaf, 3, {(i,): rng.choice(palette) for i in range(cat3.leaf_count)}).to_json_obj()))
        f_col4 = write("p4-coloring.json", json.dumps(lib.Coloring(
            p4, leaf, 4, {(i,): rng.randrange(4) for i in range(16)}).to_json_obj()))
        f_chain = write("chain.json", json.dumps({
            "trees": [CHERRY, P2, lib.to_newick(p4)], "pattern": LEAF, "k": 4}))
        ind6 = json.dumps(sorted(rng.sample(range(64), 5))).replace(" ", "")
        p3, p4t = lib.to_newick(lib.perfect_tree(3)), lib.to_newick(p4)
        # (argv, expected exit code, seeded). Exit 1 is a domain error, 2 a budget.
        self.commands = [
            (["gen", "perfect", "5"], 0, False),
            (["gen", "iterate", f_cat, "3"], 0, False),
            (["copies", f_p6, CHERRY, "--count-only"], 0, False),
            (["copies", f_rand, CAT], 0, True),
            (["copies", "(a", CHERRY], 1, False),
            (["induce", f_p6, ind6], 0, True),
            (["encode", f_rand], 0, True),
            (["decode", f_struct], 0, True),
            (["decode", f_bad], 1, False),
            (["check-arrow", p4t, CAT, CHERRY, "3"], 0, False),
            (["check-arrow", p4t, CAT, CHERRY, "2", "--budget-nodes", "2000"], 2, False),
            (["find-bad", CHERRY, CHERRY, LEAF, "2"], 0, False),
            (["find-bad", p3, CAT, LEAF, "2"], 0, False),
            (["min-height", CAT, LEAF, "2"], 0, False),
            (["chain", CHERRY, LEAF, "4"], 0, False),
            (["extract-mono", CAT, "3", f_col3], 0, True),
            (["extract-k", f_chain, f_col4], 0, True),
        ]
        self.files = files
        self.ops = [Op(f"{i:02d}-{argv[0]}", lambda lib, st, argv=argv: self.invoke(lib, argv),
                       seeded=seeded, info=(argv, rc))
                    for i, (argv, rc, seeded) in enumerate(self.commands)]

    @staticmethod
    def op_time(samples: list[float]) -> float:
        """The median invocation: a process start on a shared machine is
        sometimes much faster than usual, so the fastest is a rare outlier."""
        return statistics.median(samples)

    def invoke(self, lib, argv: list[str]) -> tuple[int, str]:
        with lib.span(f"cli.{argv[0]}"):
            proc = subprocess.run([sys.executable, "-m", "ramsey_trees.cli", *argv], env=self.env,
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def close(self) -> None:
        for path in self.files.values():
            path.unlink(missing_ok=True)
        try:
            self.workdir.rmdir()
        except OSError:
            pass

    def verdict(self, op, result):
        argv, _ = op.info
        rc, out = result
        if argv[0] not in ("check-arrow", "find-bad"):
            return None
        if rc == 2:
            return "unknown"
        if argv[0] == "check-arrow":
            return json.loads(out)["verdict"]
        return "holds" if out.strip() == "none" else "fails"

    def op_counter(self, op, result):
        rc, out = result
        return {"exit": rc, "stdout": digest(normalize_stdout(out))}

    def op_check(self, op, result):
        argv, want_rc = op.info
        rc, out = result
        errors = [] if rc == want_rc else [f"{op.name}: exit {rc}, expected {want_rc}"]
        want = normalize_stdout(self.expected_stdout(argv, want_rc))
        if normalize_stdout(out) != want:
            errors.append(f"{op.name}: stdout {out[:200]!r} differs from the library result")
        return errors

    def expected_stdout(self, argv: list[str], rc: int) -> str:
        """What the CLI should print, computed in-process from the library."""
        if rc == 1:
            return ""
        m = self.m
        tree, emb, tri, col, arr = m["tree"], m["embedding"], m["triples"], m["coloring"], m["arrows"]

        def T(text):
            return tree.parse_newick(Path(text[1:]).read_text(encoding="utf-8")
                                     if text.startswith("@") else text)

        def opts(flag, default):
            return argv[argv.index(flag) + 1] if flag in argv else default

        budget = arr.SearchBudget(int(opts("--budget-nodes", arr.SearchBudget().max_nodes)),
                                  arr.SearchBudget().max_millis)
        cmd, args = argv[0], argv[1:]
        if cmd == "gen":
            mode = args[0]
            t = (tree.perfect_tree(int(args[1])) if mode == "perfect"
                 else tree.substitute(T(args[1]), T(args[2])) if mode == "substitute"
                 else tree.iterate(T(args[1]), int(args[2])))
            return tree.to_newick(t) + "\n"
        if cmd == "copies":
            host, pat = T(args[0]), T(args[1])
            if "--count-only" in args:
                return f"{emb.count_copies(host, pat)}\n"
            return "[" + ",".join(emb.format_copy(c) for c in emb.enumerate_copies(host, pat)) + "]\n"
        if cmd == "induce":
            return tree.to_newick(emb.induced_subtree(T(args[0]), emb.parse_copy(args[1]))) + "\n"
        if cmd == "encode":
            return json.dumps(tri.structure_of(T(args[0])).to_json_obj()) + "\n"
        if cmd == "decode":
            s = tri.TripleStructure.from_json_obj(json.loads(Path(args[0]).read_text()))
            return tree.to_newick(tri.reconstruct(s)) + "\n"
        if cmd in ("check-arrow", "find-bad"):
            v = arr.check_arrow(T(args[0]), T(args[1]), T(args[2]), int(args[3]), budget)
            if cmd == "find-bad" and v.status == "fails":
                return json.dumps(v.witness.to_json_obj()) + "\n"
            if cmd == "find-bad" and v.status == "holds":
                return "none\n"
            return json.dumps(v.to_report_obj()) + "\n"
        if cmd == "min-height":
            mh = opts("--max-height", None)
            d, scan = arr.min_arrow_height_scan(T(args[0]), T(args[1]), int(args[2]), budget,
                                                None if mh is None else int(mh))
            return json.dumps({"height": d, "scan": [
                {"height": h, "verdict": v.status, "nodes": v.nodes, "millis": v.millis}
                for h, v in scan]}) + "\n"
        if cmd == "chain":
            chain = arr.build_reduction_chain(T(args[0]), T(args[1]), int(args[2]), budget)
            return json.dumps(chain.to_json_obj()) + "\n"
        if cmd == "extract-mono":
            h, j = T(args[0]), int(args[1])
            chi = col.Coloring.from_json_obj(json.loads(Path(args[2]).read_text()))
            copy, color = arr.extract_mono_leafcolor(h, j, tree.iterate(h, j), chi)
            return json.dumps({"copy": list(copy), "color": color}) + "\n"
        if cmd == "extract-k":
            chain = arr.ReductionChain.from_json_obj(json.loads(Path(args[0]).read_text()), budget)
            chi = col.Coloring.from_json_obj(json.loads(Path(args[1]).read_text()))
            copy, color = arr.extract_mono_k(chain, chi)
            return json.dumps({"copy": list(copy), "color": color}) + "\n"
        raise ValueError(f"no expected output for {cmd}")

    def layer_metrics(self, tracer, phase, counters):
        out = {}
        for sub in {argv[0] for argv, _, _ in self.commands}:
            per = [d for _, d in tracer.durations_ms(phase, f"cli.{sub}")]
            out[f"cli.cmd_ms.{sub}"] = statistics.median(per) if per else 0.0
        return out


def normalize_stdout(text: str) -> str:
    """Stdout with the run-dependent "millis" fields of JSON lines removed."""
    lines = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            lines.append(line)
            continue
        lines.append(json.dumps(_drop_millis(obj), sort_keys=True))
    return "\n".join(lines)


def _drop_millis(obj):
    if isinstance(obj, dict):
        return {k: _drop_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_drop_millis(v) for v in obj]
    return obj


WORKLOADS = {w.name: w for w in (Search, Construct, LargeHost, Cli)}
