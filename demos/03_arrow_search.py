#!/usr/bin/env python3
"""
The arrow relation T -> (H)^P_k and the backtracking decision procedure
=======================================================================

T -> (H)^P_k means: every k-coloring of the copies of P in T contains a
copy of H all of whose inner P-copies got the same color. check_arrow
decides it by searching for a counterexample ("bad") coloring with
not-all-equal constraint propagation; when P is a single leaf it uses a
dynamic program over the host's subtrees instead. A Fails verdict carries
the bad coloring as a checkable witness.
"""

import json

from ramsey_trees import (
    SearchBudget,
    check_arrow,
    leaf,
    min_arrow_height_scan,
    parse_newick,
    perfect_tree,
    to_newick,
)

cherry = parse_newick("(,)")

# Two leaves, two colors: color them differently and no cherry is mono.
v = check_arrow(cherry, cherry, leaf(), 2)
print("cherry -> (cherry)^leaf_2:", v.status)
print("bad coloring:", json.dumps(v.witness.to_json_obj()))

# Four leaves, two colors: pigeonhole forces a repeated color, and any two
# equal-colored leaves form a monochromatic cherry.
v = check_arrow(perfect_tree(2), cherry, leaf(), 2)
# A single-leaf pattern is decided by the subtree dynamic program; its
# nodes count the distinct per-color states it recorded, not search steps.
print("T(2) -> (cherry)^leaf_2:", v.status, f"({v.nodes} subtree states)")

# A substantial instance: the 120 cherries of T(4) are colored with three
# colors, and we ask for a caterpillar ((,),) all of whose 3 cherries
# agree. The backtracker alone would take 3,184 nodes; after its probe of
# 120 nodes, one per cherry, the local search finds a bad coloring in a few
# dozen flips, and every bad coloring is re-checked against each caterpillar.
caterpillar = parse_newick("((,),)")
v = check_arrow(perfect_tree(4), caterpillar, cherry, 3)
print("T(4) -> (((,),))^cherry_3:", v.status,
      f"({v.nodes} nodes, {v.millis} ms)")

# min_arrow_height_scan walks d = height(H), height(H)+1, ... until the
# perfect tree of height d arrows the target, reporting each verdict.
print()
print("least d with T(d) -> (T(2))^leaf_2:")
d, scan = min_arrow_height_scan(perfect_tree(2), leaf(), 2)
for height, verdict in scan:
    print(f"  height {height}: {verdict.status}")
print("answer:", d)

# Budgets make the search interruptible rather than open-ended: verdicts
# degrade to "unknown" instead of hanging. Exit code 2 in the CLI.
tight = SearchBudget(max_nodes=10, max_millis=1000)
v = check_arrow(perfect_tree(4), caterpillar, cherry, 3, budget=tight)
print()
print("same query under a 10-node budget:", v.status)
