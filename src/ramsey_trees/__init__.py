"""Copies, triple encodings and arrow (partition) search on rooted binary
plane trees."""

import importlib.util
import sys

# The package does not use numpy and runs none of its code. The benchmark
# worker reads sys.modules["numpy"].__version__ without a default to record
# the version (perfbench/worker.py:263), so numpy is registered lazily: its
# code runs only when an attribute is read. Delete this block when the worker
# reads the version with a default (ROADMAP item 1).
if "numpy" not in sys.modules and (_spec := importlib.util.find_spec("numpy")):
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["numpy"])

# Each public name maps to the submodule that defines it; the keys are
# __all__. The names are imported on first access (PEP 562), so a process
# loads only the submodules it uses: a CLI command that builds trees never
# compiles the arrow search.
_SUBMODULE = {
    **dict.fromkeys(
        (
            "BudgetExhaustedError",
            "FormatError",
            "InconsistentTriplesError",
            "ParseError",
            "ResourceError",
            "ResourceLimitError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        ("max_enumeration", "max_leaves", "set_max_enumeration", "set_max_leaves"),
        "limits",
    ),
    **dict.fromkeys(
        (
            "PlaneTree",
            "all_trees",
            "catalan",
            "iso",
            "iterate",
            "leaf",
            "leaf_labels",
            "node",
            "parse_newick",
            "perfect_tree",
            "shape_key",
            "substitute",
            "to_newick",
        ),
        "tree",
    ),
    **dict.fromkeys(
        (
            "CopyRef",
            "count_copies",
            "enumerate_copies",
            "format_copy",
            "induced_subtree",
            "is_copy",
            "leaf_lca_depth",
            "parse_copy",
            "validate_copy",
        ),
        "embedding",
    ),
    **dict.fromkeys(
        ("TripleStructure", "reconstruct", "restrict", "structure_of", "substructure_iso"),
        "triples",
    ),
    **dict.fromkeys(
        ("Coloring", "find_mono_copy", "is_mono"),
        "coloring",
    ),
    **dict.fromkeys(
        (
            "ArrowVerdict",
            "ReductionChain",
            "SearchBudget",
            "build_reduction_chain",
            "check_arrow",
            "extract_mono_k",
            "extract_mono_leafcolor",
            "min_arrow_height_scan",
        ),
        "arrows",
    ),
}


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later reads find it without calling this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)
