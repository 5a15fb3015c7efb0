"""Copies, triple encodings and arrow (partition) search on rooted binary
plane trees."""

# The package does not use numpy. It is imported only because the benchmark
# worker reads sys.modules["numpy"] without a default to record its version
# (perfbench/worker.py:263); drop it when the worker reads it with one.
import numpy  # noqa: F401

from .errors import (
    BudgetExhaustedError,
    FormatError,
    InconsistentTriplesError,
    ParseError,
    ResourceError,
    ResourceLimitError,
)
from .limits import (
    max_enumeration,
    max_leaves,
    set_max_enumeration,
    set_max_leaves,
)
from .tree import (
    PlaneTree,
    all_trees,
    catalan,
    iso,
    iterate,
    leaf,
    node,
    parse_newick,
    perfect_tree,
    shape_key,
    substitute,
    to_newick,
)
from .embedding import (
    CopyRef,
    count_copies,
    enumerate_copies,
    format_copy,
    induced_subtree,
    is_copy,
    leaf_labels,
    leaf_lca_depth,
    parse_copy,
    validate_copy,
)
from .triples import (
    TripleStructure,
    reconstruct,
    restrict,
    structure_of,
    substructure_iso,
)
from .coloring import (
    Coloring,
    find_mono_copy,
    find_psi_mono,
    is_mono,
    psi_map,
)
from .arrows import (
    ArrowVerdict,
    ReductionChain,
    SearchBudget,
    build_reduction_chain,
    check_arrow,
    extract_mono_k,
    extract_mono_leafcolor,
    min_arrow_height,
    min_arrow_height_scan,
    prop21_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowVerdict",
    "BudgetExhaustedError",
    "Coloring",
    "CopyRef",
    "FormatError",
    "InconsistentTriplesError",
    "ParseError",
    "PlaneTree",
    "ReductionChain",
    "ResourceError",
    "ResourceLimitError",
    "SearchBudget",
    "TripleStructure",
    "all_trees",
    "build_reduction_chain",
    "catalan",
    "check_arrow",
    "count_copies",
    "enumerate_copies",
    "extract_mono_k",
    "extract_mono_leafcolor",
    "find_mono_copy",
    "find_psi_mono",
    "format_copy",
    "induced_subtree",
    "is_copy",
    "is_mono",
    "iso",
    "iterate",
    "leaf",
    "leaf_labels",
    "leaf_lca_depth",
    "max_enumeration",
    "max_leaves",
    "min_arrow_height",
    "min_arrow_height_scan",
    "node",
    "parse_copy",
    "parse_newick",
    "perfect_tree",
    "prop21_witness",
    "psi_map",
    "reconstruct",
    "restrict",
    "set_max_enumeration",
    "set_max_leaves",
    "shape_key",
    "structure_of",
    "substitute",
    "substructure_iso",
    "to_newick",
    "validate_copy",
]
