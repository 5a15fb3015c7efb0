#!/usr/bin/env python3
"""
Constructive side: pulling monochromatic copies out of colorings
================================================================

Arrow verdicts say a mono copy exists; the extractors actually find one.
Two mechanisms are shown: block descent through iterated self-substitution
for leaf colorings, and a chain of 2-color steps that handles k colors by
splitting them bit by bit.
"""

import json
import random

from ramsey_trees import (
    Coloring,
    build_reduction_chain,
    extract_mono_k,
    extract_mono_leafcolor,
    is_mono,
    iterate,
    leaf,
    parse_newick,
    to_newick,
)

cherry = parse_newick("(,)")

# The k-fold self-substitution iterate(h, k) arrows h under ANY k-coloring
# of single leaves, and the block-descent extractor realizes the copy. With
# h = cherry and k = 2 the host is T(2); leaves colored 0,1,0,1 give the
# mono cherry {0,2}.
host = iterate(cherry, 2)
print("witness host:", to_newick(host))
chi = Coloring.from_leaf_colors(host, [0, 1, 0, 1], 2)
copy, color = extract_mono_leafcolor(cherry, 2, host, chi)
print("leaf colors 0,1,0,1 ->", f"copy {list(copy)} in color {color}")

# Exhaustive sanity: all 512 two-colorings of iterate(cat3, 2).
cat3 = parse_newick("((,),)")
big = iterate(cat3, 2)
import itertools
worst = None
for colors in itertools.product(range(2), repeat=big.leaf_count):
    c, col = extract_mono_leafcolor(cat3, 2, big, Coloring.from_leaf_colors(big, list(colors), 2))
    assert all(colors[i] == col for i in c)
print(f"all {2**big.leaf_count} colorings of iterate(cat3,2): extractor never fails")

# For k colors, ceil(log2 k) two-color steps suffice. build_reduction_chain
# certifies each link T(i) -> (T(i-1))^pattern_2 by search; extract_mono_k
# then descends one color bit at a time.
chain = build_reduction_chain(cherry, leaf(), 4)
print()
print("reduction chain for 4 colors:", json.dumps(chain.to_json_obj()))

top = chain.trees[-1]
rng = random.Random(7)
colors = [rng.randrange(4) for _ in range(top.leaf_count)]
chi = Coloring.from_leaf_colors(top, colors, 4)
copy, color = extract_mono_k(chain, chi)
print("random 4-coloring of the top tree:", colors)
print("extracted mono cherry:", list(copy), "color", color)
assert is_mono(chi, copy) == color
