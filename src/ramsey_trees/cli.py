"""Command-line interface.

Machine-readable output (Newick, JSON, counts) goes to stdout; prose and
errors go to stderr. Exit codes: 0 success, 1 domain error (bad input,
unrealizable request), 2 resource or budget exhaustion. Tree arguments are
Newick literals or @path to read one from a file. The RAMSEY_MAX_LEAVES
environment variable overrides the global tree size guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each command imports the submodules it runs, so a process compiles only
# those: `gen` loads no copy enumeration, and only the arrow commands load
# the arrow search.
from .errors import FormatError, ResourceError
from .limits import set_max_leaves


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage problems are domain errors
        raise _UsageError(message)


def _int_arg(name: str, text: str, minimum: int) -> int:
    try:
        value = int(text, 10)
    except (TypeError, ValueError):
        raise ValueError(f"invalid integer for {name}: {text!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {text!r}")
    return value


def _tree_arg(text: str):
    from .tree import parse_newick

    if text.startswith("@"):
        path = text[1:]
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_newick(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON in {path}: {e}") from None


def _budget(args):
    """The SearchBudget of the budget flags given; an omitted flag keeps its default."""
    from .arrows import SearchBudget

    flags = (
        ("max_nodes", "--budget-nodes", args.budget_nodes),
        ("max_millis", "--budget-ms", args.budget_ms),
    )
    return SearchBudget(
        **{field: _int_arg(flag, text, 0) for field, flag, text in flags if text is not None}
    )


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_gen(args) -> int:
    from .tree import iterate, perfect_tree, substitute, to_newick

    if args.mode == "perfect":
        result = perfect_tree(_int_arg("height", args.height, 0))
    elif args.mode == "substitute":
        result = substitute(_tree_arg(args.outer), _tree_arg(args.inner))
    else:
        result = iterate(_tree_arg(args.tree), _int_arg("count", args.count, 1))
    print(to_newick(result))
    return 0


def _cmd_copies(args) -> int:
    from .embedding import count_copies, enumerate_copies, format_copy

    host = _tree_arg(args.host)
    pattern = _tree_arg(args.pattern)
    if args.count_only:
        print(count_copies(host, pattern))
    else:
        print("[" + ",".join(format_copy(c) for c in enumerate_copies(host, pattern)) + "]")
    return 0


def _cmd_induce(args) -> int:
    from .tree import to_newick
    from .embedding import induced_subtree, parse_copy

    host = _tree_arg(args.host)
    print(to_newick(induced_subtree(host, parse_copy(args.leafset))))
    return 0


def _cmd_encode(args) -> int:
    from .triples import structure_of

    _emit(structure_of(_tree_arg(args.tree)).to_json_obj())
    return 0


def _cmd_decode(args) -> int:
    from .tree import to_newick
    from .triples import TripleStructure, reconstruct

    structure = TripleStructure.from_json_obj(_load_json(args.structure))
    print(to_newick(reconstruct(structure)))
    return 0


def _cmd_check_arrow(args) -> int:
    from .arrows import check_arrow

    verdict = check_arrow(
        _tree_arg(args.host),
        _tree_arg(args.target),
        _tree_arg(args.pattern),
        _int_arg("k", args.k, 1),
        _budget(args),
    )
    _emit(verdict.to_report_obj())
    return 2 if verdict.status == "unknown" else 0


def _cmd_min_height(args) -> int:
    from .arrows import min_arrow_height_scan

    max_height = None if args.max_height is None else _int_arg("--max-height", args.max_height, 0)
    found, scan = min_arrow_height_scan(
        _tree_arg(args.target),
        _tree_arg(args.pattern),
        _int_arg("k", args.k, 1),
        _budget(args),
        max_height,
    )
    _emit(
        {
            "height": found,
            "scan": [
                {"height": d, "verdict": v.status, "nodes": v.nodes, "millis": v.millis}
                for d, v in scan
            ],
        }
    )
    return 0 if found is not None else 2


def _cmd_find_bad(args) -> int:
    from .arrows import check_arrow

    verdict = check_arrow(
        _tree_arg(args.host),
        _tree_arg(args.target),
        _tree_arg(args.pattern),
        _int_arg("k", args.k, 1),
        _budget(args),
    )
    if verdict.status == "fails":
        _emit(verdict.witness.to_json_obj())
        return 0
    if verdict.status == "holds":
        print("none")
        return 0
    _emit(verdict.to_report_obj())
    return 2


def _cmd_extract_mono(args) -> int:
    from .tree import iterate
    from .coloring import Coloring
    from .arrows import extract_mono_leafcolor

    h = _tree_arg(args.target)
    j = _int_arg("j", args.j, 1)
    chi = Coloring.from_json_obj(_load_json(args.coloring))
    copy, color = extract_mono_leafcolor(h, j, iterate(h, j), chi)
    _emit({"copy": list(copy), "color": color})
    return 0


def _cmd_chain(args) -> int:
    from .arrows import build_reduction_chain

    max_height = None if args.max_height is None else _int_arg("--max-height", args.max_height, 0)
    chain = build_reduction_chain(
        _tree_arg(args.target),
        _tree_arg(args.pattern),
        _int_arg("k", args.k, 1),
        _budget(args),
        max_height,
    )
    _emit(chain.to_json_obj())
    return 0


def _cmd_extract_k(args) -> int:
    from .coloring import Coloring
    from .arrows import ReductionChain, extract_mono_k

    chain = ReductionChain.from_json_obj(_load_json(args.chain), _budget(args))
    chi = Coloring.from_json_obj(_load_json(args.coloring))
    copy, color = extract_mono_k(chain, chi)
    _emit({"copy": list(copy), "color": color})
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    summary = selftest.run(sys.stderr)
    _emit(summary)
    return 0 if summary["failed"] == 0 else 1


def _add_budget_flags(sub) -> None:
    sub.add_argument("--budget-nodes")
    sub.add_argument("--budget-ms")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ramsey-trees",
        description="Copies, triple encodings and arrow search on rooted binary plane trees.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="construct trees")
    gen_modes = gen.add_subparsers(dest="mode", required=True)
    gen_perfect = gen_modes.add_parser("perfect", help="complete tree of a given height")
    gen_perfect.add_argument("height")
    gen_sub = gen_modes.add_parser("substitute", help="replace each leaf of outer by inner")
    gen_sub.add_argument("outer")
    gen_sub.add_argument("inner")
    gen_iter = gen_modes.add_parser("iterate", help="iterated self-substitution")
    gen_iter.add_argument("tree")
    gen_iter.add_argument("count")
    gen.set_defaults(func=_cmd_gen)

    copies = commands.add_parser("copies", help="list or count copies of a pattern")
    copies.add_argument("host")
    copies.add_argument("pattern")
    copies.add_argument("--count-only", action="store_true")
    copies.set_defaults(func=_cmd_copies)

    induce = commands.add_parser("induce", help="induced subtree of a leaf subset")
    induce.add_argument("host")
    induce.add_argument("leafset", help='copy reference like "[0,1,3]"')
    induce.set_defaults(func=_cmd_induce)

    encode = commands.add_parser("encode", help="tree to triple-structure JSON")
    encode.add_argument("tree")
    encode.set_defaults(func=_cmd_encode)

    decode = commands.add_parser("decode", help="triple-structure JSON file to tree")
    decode.add_argument("structure")
    decode.set_defaults(func=_cmd_decode)

    arrow = commands.add_parser("check-arrow", help="decide host -> (target)^pattern_k")
    for name in ("host", "target", "pattern", "k"):
        arrow.add_argument(name)
    _add_budget_flags(arrow)
    arrow.set_defaults(func=_cmd_check_arrow)

    minh = commands.add_parser("min-height", help="least perfect-tree height that arrows target")
    for name in ("target", "pattern", "k"):
        minh.add_argument(name)
    _add_budget_flags(minh)
    minh.add_argument("--max-height", default=None)
    minh.set_defaults(func=_cmd_min_height)

    bad = commands.add_parser("find-bad", help="search for a coloring with no mono target-copy")
    for name in ("host", "target", "pattern", "k"):
        bad.add_argument(name)
    _add_budget_flags(bad)
    bad.set_defaults(func=_cmd_find_bad)

    extract = commands.add_parser("extract-mono", help="mono copy under a bounded leaf coloring")
    extract.add_argument("target")
    extract.add_argument("j")
    extract.add_argument("coloring", help="coloring JSON file")
    extract.set_defaults(func=_cmd_extract_mono)

    chain = commands.add_parser("chain", help="build a k-to-2 reduction chain")
    for name in ("target", "pattern", "k"):
        chain.add_argument(name)
    _add_budget_flags(chain)
    chain.add_argument("--max-height", default=None)
    chain.set_defaults(func=_cmd_chain)

    extractk = commands.add_parser("extract-k", help="mono copy via a reduction chain")
    extractk.add_argument("chain", help="chain JSON file")
    extractk.add_argument("coloring", help="coloring JSON file")
    _add_budget_flags(extractk)
    extractk.set_defaults(func=_cmd_extract_k)

    self_p = commands.add_parser("selftest", help="run the built-in oracle suite")
    self_p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        raw_limit = os.environ.get("RAMSEY_MAX_LEAVES")
        if raw_limit is not None:
            set_max_leaves(_int_arg("RAMSEY_MAX_LEAVES", raw_limit, 1))
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
