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


def _max_height(args):
    """The --max-height flag as an integer, None when omitted."""
    return None if args.max_height is None else _int_arg("--max-height", args.max_height, 0)


def _arrow_query(args):
    """check_arrow on the host, target, pattern, k and budget arguments,
    read in that order, so the first bad one names the error."""
    from .arrows import check_arrow

    return check_arrow(
        _tree_arg(args.host),
        _tree_arg(args.target),
        _tree_arg(args.pattern),
        _int_arg("k", args.k, 1),
        _budget(args),
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
    verdict = _arrow_query(args)
    _emit(verdict.to_report_obj())
    return 2 if verdict.status == "unknown" else 0


def _cmd_min_height(args) -> int:
    from .arrows import min_arrow_height_scan

    max_height = _max_height(args)
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
    verdict = _arrow_query(args)
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

    max_height = _max_height(args)
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


_BUDGET_FLAGS = ("--budget-nodes", "--budget-ms")

# Each command's help, arguments in order and handler. An argument is a
# name or a (name, keyword arguments of add_argument) pair; a dict of modes,
# each with its help and arguments, gives the command a required mode.
_COMMANDS = {
    "gen": (
        "construct trees",
        {
            "perfect": ("complete tree of a given height", ("height",)),
            "substitute": ("replace each leaf of outer by inner", ("outer", "inner")),
            "iterate": ("iterated self-substitution", ("tree", "count")),
        },
        _cmd_gen,
    ),
    "copies": (
        "list or count copies of a pattern",
        ("host", "pattern", ("--count-only", {"action": "store_true"})),
        _cmd_copies,
    ),
    "induce": (
        "induced subtree of a leaf subset",
        ("host", ("leafset", {"help": 'copy reference like "[0,1,3]"'})),
        _cmd_induce,
    ),
    "encode": ("tree to triple-structure JSON", ("tree",), _cmd_encode),
    "decode": ("triple-structure JSON file to tree", ("structure",), _cmd_decode),
    "check-arrow": (
        "decide host -> (target)^pattern_k",
        ("host", "target", "pattern", "k", *_BUDGET_FLAGS),
        _cmd_check_arrow,
    ),
    "min-height": (
        "least perfect-tree height that arrows target",
        ("target", "pattern", "k", *_BUDGET_FLAGS, "--max-height"),
        _cmd_min_height,
    ),
    "find-bad": (
        "search for a coloring with no mono target-copy",
        ("host", "target", "pattern", "k", *_BUDGET_FLAGS),
        _cmd_find_bad,
    ),
    "extract-mono": (
        "mono copy under a bounded leaf coloring",
        ("target", "j", ("coloring", {"help": "coloring JSON file"})),
        _cmd_extract_mono,
    ),
    "chain": (
        "build a k-to-2 reduction chain",
        ("target", "pattern", "k", *_BUDGET_FLAGS, "--max-height"),
        _cmd_chain,
    ),
    "extract-k": (
        "mono copy via a reduction chain",
        (
            ("chain", {"help": "chain JSON file"}),
            ("coloring", {"help": "coloring JSON file"}),
            *_BUDGET_FLAGS,
        ),
        _cmd_extract_k,
    ),
    "selftest": ("run the built-in oracle suite", (), _cmd_selftest),
}


def _add_arguments(parser: _Parser, arguments) -> None:
    if isinstance(arguments, dict):
        modes = parser.add_subparsers(dest="mode", required=True)
        for mode, (help_text, mode_arguments) in arguments.items():
            _add_arguments(modes.add_parser(mode, help=help_text), mode_arguments)
        return
    for argument in arguments:
        name, options = (argument, {}) if isinstance(argument, str) else argument
        parser.add_argument(name, **options)


def build_parser(*names: str) -> _Parser:
    """The parser of the named commands, or of every command when none is named."""
    parser = _Parser(
        prog="ramsey-trees",
        description="Copies, triple encodings and arrow search on rooted binary plane trees.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name in names or _COMMANDS:
        help_text, arguments, func = _COMMANDS[name]
        sub = commands.add_parser(name, help=help_text)
        _add_arguments(sub, arguments)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked command's subparser is built. Anything else (--help,
    # no command, an unknown one) gets every command, so that its help and
    # usage errors list them all.
    parser = build_parser(*[name for name in argv[:1] if name in _COMMANDS])
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
