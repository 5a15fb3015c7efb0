import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_trees
from ramsey_trees import (
    ArrowVerdict,
    Coloring,
    SearchBudget,
    is_copy,
    iterate,
    node,
    parse_newick,
    perfect_tree,
    set_max_enumeration,
    set_max_leaves,
    to_newick,
)
from ramsey_trees import cli, selftest
from ramsey_trees.cli import _budget, build_parser, main
from ramsey_trees.limits import DEFAULT_MAX_ENUMERATION
from helpers import check_witness, labeled

CAT3 = "((,),)"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_readme_cli_examples_print_what_they_show(capsys):
    # Every line of README's CLI block whose comment shows an output, a
    # tree or a list, must print exactly that.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        comment = comment.strip()
        if comment[:1] in ("(", "["):
            program, *argv = shlex.split(command)
            assert program == "ramsey-trees", line
            assert run(capsys, *argv)[:2] == (0, comment + "\n"), line
            shown.append(argv[0])
    assert shown == ["gen", "copies", "induce"]


def test_gen_perfect(capsys):
    rc, out, _ = run(capsys, "gen", "perfect", "2")
    assert rc == 0
    assert out == "((,),(,))\n"


def test_gen_substitute(capsys):
    rc, out, _ = run(capsys, "gen", "substitute", "((,),)", "(,)")
    assert rc == 0
    assert out == "(((,),(,)),(,))\n"


def test_gen_iterate(capsys):
    rc, out, _ = run(capsys, "gen", "iterate", "(,)", "3")
    assert rc == 0
    assert parse_newick(out.strip()) == perfect_tree(3)


def test_gen_rejects_bad_integers(capsys):
    rc, _, err = run(capsys, "gen", "perfect", "xyz")
    assert rc == 1
    assert "invalid integer for height: 'xyz'" in err
    rc, _, err = run(capsys, "gen", "iterate", "(,)", "0")
    assert rc == 1
    assert "count must be >= 1" in err


def test_copies_listing_and_count(capsys):
    rc, out, _ = run(capsys, "copies", "((,),(,))", CAT3)
    assert rc == 0
    assert out == "[[0,1,2],[0,1,3]]\n"
    rc, out, _ = run(capsys, "copies", "((,),(,))", "(,)", "--count-only")
    assert rc == 0
    assert out == "6\n"


def test_induce(capsys):
    rc, out, _ = run(capsys, "induce", "((a,b),(c,d))", "[0,2,3]")
    assert rc == 0
    assert out == "(a,(c,d))\n"
    rc, _, err = run(capsys, "induce", "(a,b)", "[0,7]")
    assert rc == 1
    assert "out of range" in err


def test_tree_args_from_file(capsys, tmp_path):
    p = tmp_path / "host.nwk"
    p.write_text("((a,b),(c,d))\n", encoding="utf-8")
    rc, out, _ = run(capsys, "copies", f"@{p}", "(,)", "--count-only")
    assert rc == 0
    assert out == "6\n"
    rc, _, err = run(capsys, "copies", f"@{tmp_path}/absent.nwk", "(,)")
    assert rc == 1
    assert "absent.nwk" in err


def test_parse_errors_carry_byte_offsets(capsys):
    rc, _, err = run(capsys, "copies", "(a", "(,)")
    assert rc == 1
    assert "at byte 2" in err
    rc, _, err = run(capsys, "encode", "(a,b))")
    assert rc == 1
    assert "')' at byte 5" in err
    # a non-UTF-8 argument byte arrives as a lone surrogate
    rc, _, err = run(capsys, "copies", "(a,\udcff)", "(,)")
    assert rc == 1
    assert "not encodable as UTF-8: '\\udcff' at byte 3" in err


def test_encode_decode_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, "encode", "((a,b),c)")
    assert rc == 0
    obj = json.loads(out)
    assert obj["domain"] == ["a", "b", "c"]
    assert obj["triples"] == [["a", "b", "c"], ["b", "a", "c"]]
    f = tmp_path / "structure.json"
    f.write_text(out, encoding="utf-8")
    rc, out, _ = run(capsys, "decode", str(f))
    assert rc == 0
    assert out == "((a,b),c)\n"


def test_encode_decode_roundtrip_forty_leaves(capsys, tmp_path):
    # A labeled 40-leaf tree of uneven shape: 2 * C(40, 3) = 19760 triples.
    text = to_newick(labeled(node(node(perfect_tree(5), perfect_tree(2)), perfect_tree(2))))
    rc, out, _ = run(capsys, "encode", text)
    assert rc == 0
    obj = json.loads(out)
    pos = {x: i for i, x in enumerate(obj["domain"])}
    assert len(obj["triples"]) == 19760
    assert obj["triples"] == sorted(obj["triples"], key=lambda t: [pos[x] for x in t])
    f = tmp_path / "structure.json"
    f.write_text(out, encoding="utf-8")
    rc, out, _ = run(capsys, "decode", str(f))
    assert rc == 0
    assert out == text + "\n"


def test_decode_rejects_inconsistent_relation(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"domain": ["a", "b", "c"], "triples": []}), encoding="utf-8")
    rc, out, err = run(capsys, "decode", str(f))
    assert rc == 1
    assert out == ""
    assert "inconsistent" in err


def test_decode_rejects_malformed_json(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json", encoding="utf-8")
    rc, _, err = run(capsys, "decode", str(f))
    assert rc == 1
    assert "invalid JSON" in err


def test_check_arrow_verdicts(capsys):
    rc, out, _ = run(capsys, "check-arrow", "((,),(,))", "(,)", "", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "holds" and obj["witness"] is None

    rc, out, _ = run(capsys, "check-arrow", "(,)", "(,)", "", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "fails"
    assert obj["witness"]["assignment"] == [
        {"copy": [0], "color": 0},
        {"copy": [1], "color": 1},
    ]


def test_check_arrow_settles_without_listing_copies(capsys):
    rc, out, _ = run(capsys, "check-arrow", to_newick(perfect_tree(12)), "(,)", "(,)", "2")
    assert rc == 0
    obj = json.loads(out)
    assert (obj["verdict"], obj["witness"], obj["nodes"]) == ("holds", None, 0)


def test_check_arrow_budget_exit_code(capsys):
    rc, out, _ = run(capsys, "check-arrow", "((,),(,))", "(,)", "", "2", "--budget-nodes", "0")
    assert rc == 2
    assert json.loads(out)["verdict"] == "unknown"


def test_check_arrow_on_the_benchmark_host(capsys):
    # The benchmark's cli workload runs both commands and expects these exit
    # codes: the first is a query that holds, which no engine may decide in
    # 2000 nodes; the second fails with a witness checked by definition.
    p4 = to_newick(perfect_tree(4))
    rc, out, _ = run(capsys, "check-arrow", p4, CAT3, "(,)", "2", "--budget-nodes", "2000")
    obj = json.loads(out)
    assert (rc, obj["verdict"], obj["witness"], obj["nodes"]) == (2, "unknown", None, 2000)
    rc, out, _ = run(capsys, "check-arrow", p4, CAT3, "(,)", "3")
    obj = json.loads(out)
    assert (rc, obj["verdict"]) == (0, "fails")
    witness = Coloring.from_json_obj(obj["witness"])
    assert check_witness(perfect_tree(4), parse_newick(CAT3), witness)


def test_budget_flags_keep_their_meaning(capsys):
    query = ["check-arrow", "((,),(,))", "(,)", "", "2"]
    assert _budget(build_parser().parse_args(query)) == SearchBudget()
    given = build_parser().parse_args([*query, "--budget-ms", "7"])
    assert _budget(given) == SearchBudget(max_millis=7)
    rc, out, err = run(capsys, *query, "--budget-nodes", "-1")
    assert (rc, out) == (1, "")
    assert "error: --budget-nodes must be >= 0, got '-1'" in err
    rc, out, err = run(capsys, *query, "--budget-ms", "abc")
    assert (rc, out) == (1, "")
    assert "error: invalid integer for --budget-ms: 'abc'" in err
    with pytest.raises(SystemExit) as exit_info:
        main(["check-arrow", "--help"])
    assert exit_info.value.code == 0
    assert "--budget-nodes" in capsys.readouterr().out


def test_min_height(capsys):
    rc, out, _ = run(capsys, "min-height", "(,)", "", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["height"] == 2
    assert [(e["height"], e["verdict"]) for e in obj["scan"]] == [
        (1, "fails"),
        (2, "holds"),
    ]


def test_min_height_capped_is_resource_exit(capsys):
    rc, out, _ = run(capsys, "min-height", "(,)", "", "2", "--max-height", "1")
    assert rc == 2
    obj = json.loads(out)
    assert obj["height"] is None
    assert [e["verdict"] for e in obj["scan"]] == ["fails"]


def test_enumeration_cap_mid_scan_is_resource_exit(capsys):
    # Height 4 has more caterpillar or cherry copies than the cap allows.
    set_max_enumeration(100)
    rc, out, _ = run(capsys, "min-height", CAT3, "(,)", "2")
    assert rc == 2
    obj = json.loads(out)
    assert obj["height"] is None
    assert [(e["height"], e["verdict"]) for e in obj["scan"]] == [(2, "fails"), (3, "fails")]
    rc, out, err = run(capsys, "chain", CAT3, "(,)", "2")
    assert rc == 2 and out == ""
    assert "could not certify chain link 1" in err


def test_min_height_says_why_a_scan_stopped(capsys):
    # A scan with no height writes one stderr line with the reason the scan
    # gives; stdout and the exit code stay those of the trail.
    def stopped(*argv):
        rc, out, err = run(capsys, "min-height", *argv)
        assert rc == 2
        obj = json.loads(out)
        assert obj["height"] is None
        return [(e["height"], e["verdict"]) for e in obj["scan"]], err

    assert stopped("(,)", "", "2", "--budget-nodes", "0") == (
        [(1, "unknown")], "min-height: stopped: height 1 is unknown within the budget\n")
    assert stopped(CAT3, "(,)", "2", "--max-height", "3") == (
        [(2, "fails"), (3, "fails")],
        "min-height: stopped: no height up to the max height 3 arrows the target\n")
    assert stopped(CAT3, "(,)", "2", "--max-height", "1") == (
        [], "min-height: stopped: no height up to the max height 1 arrows the target\n")
    # a scan that finds its height writes nothing to stderr
    assert run(capsys, "min-height", "(,)", "", "2")[::2] == (0, "")
    set_max_enumeration(100)  # height 4 has more copies than that
    assert stopped(CAT3, "(,)", "2") == ([(2, "fails"), (3, "fails")], (
        "min-height: stopped: height 4: enumeration would produce 280 items,"
        " over the configured limit 100\n"))
    set_max_enumeration(DEFAULT_MAX_ENUMERATION)
    set_max_leaves(8)  # perfect_tree(4) has 16 leaves
    assert stopped(CAT3, "(,)", "2") == ([(2, "fails"), (3, "fails")], (
        "min-height: stopped: height 4: tree would have 16 leaves, over the configured limit 8\n"))


def test_leaf_pattern_scans_enumerate_no_copies(capsys):
    # Leaf-pattern arrows are decided without listing copies, so neither the
    # 8-color chain nor a small enumeration cap stops these scans.
    rc, out, _ = run(capsys, "chain", "(,)", "", "8")
    assert rc == 0
    trees = json.loads(out)["trees"]
    assert [parse_newick(t) for t in trees] == [perfect_tree(d) for d in (1, 2, 4, 8)]
    set_max_enumeration(500)
    rc, out, _ = run(capsys, "min-height", "((,),(,))", "", "2")
    assert rc == 0
    assert json.loads(out)["height"] == 4


def test_find_bad(capsys):
    rc, out, _ = run(capsys, "find-bad", "(,)", "(,)", "", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["assignment"] == [
        {"copy": [0], "color": 0},
        {"copy": [1], "color": 1},
    ]
    rc, out, _ = run(capsys, "find-bad", "((,),(,))", "(,)", "", "2")
    assert rc == 0
    assert out == "none\n"
    rc, out, _ = run(capsys, "find-bad", "((,),(,))", "(,)", "", "2", "--budget-nodes", "0")
    assert rc == 2
    assert json.loads(out)["verdict"] == "unknown"


def test_extract_mono(capsys, tmp_path):
    host = iterate(parse_newick("(,)"), 2)
    chi = Coloring.from_leaf_colors(host, [0, 1, 0, 1], 2)
    f = tmp_path / "coloring.json"
    f.write_text(json.dumps(chi.to_json_obj()), encoding="utf-8")
    rc, out, _ = run(capsys, "extract-mono", "(,)", "2", str(f))
    assert rc == 0
    assert json.loads(out) == {"copy": [0, 2], "color": 0}


def test_extract_mono_rejects_non_integer_positions(capsys, tmp_path):
    f = tmp_path / "coloring.json"
    positions = [[0], [True], [2.0], [3]]
    obj = {
        "host": "((,),(,))",
        "pattern": "",
        "k": 2,
        "assignment": [{"copy": p, "color": 0} for p in positions],
    }
    f.write_text(json.dumps(obj), encoding="utf-8")
    rc, out, err = run(capsys, "extract-mono", "(,)", "2", str(f))
    assert (rc, out) == (1, "")
    assert "assignment entries must look like" in err


def test_chain_and_extract_k(capsys, tmp_path):
    rc, out, _ = run(capsys, "chain", "(,)", "", "4")
    assert rc == 0
    chain_obj = json.loads(out)
    assert chain_obj["trees"][0] == "(,)"
    assert len(chain_obj["trees"]) == 3
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(chain_obj), encoding="utf-8")

    top = parse_newick(chain_obj["trees"][-1])
    colors = [i % 4 for i in range(top.leaf_count)]
    chi = Coloring.from_leaf_colors(top, colors, 4)
    chi_file = tmp_path / "coloring.json"
    chi_file.write_text(json.dumps(chi.to_json_obj()), encoding="utf-8")

    rc, out, _ = run(capsys, "extract-k", str(chain_file), str(chi_file))
    assert rc == 0
    got = json.loads(out)
    i, j = got["copy"]
    assert colors[i] == colors[j] == got["color"]


def test_chain_and_extract_k_with_eight_colors(capsys, tmp_path):
    # The top tree has 256 leaves; its first bit round looks for a one-bit
    # copy of the 16-leaf tree in it under the default enumeration cap.
    rc, out, _ = run(capsys, "chain", "(,)", "", "8")
    assert rc == 0
    chain_obj = json.loads(out)
    assert len(chain_obj["trees"]) == 4
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(out, encoding="utf-8")
    top = parse_newick(chain_obj["trees"][-1])
    rng = random.Random(8)
    colors = [rng.randrange(8) for _ in range(top.leaf_count)]
    chi_file = tmp_path / "coloring.json"
    chi_file.write_text(json.dumps(Coloring.from_leaf_colors(top, colors, 8).to_json_obj()),
                        encoding="utf-8")
    rc, out, _ = run(capsys, "extract-k", str(chain_file), str(chi_file))
    assert rc == 0
    got = json.loads(out)
    assert is_copy(top, got["copy"], parse_newick("(,)"))
    assert {colors[i] for i in got["copy"]} == {got["color"]}


def test_extract_k_rejects_broken_chain(capsys, tmp_path):
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(
        json.dumps({"trees": ["(,)", "(,)"], "pattern": "", "k": 2}), encoding="utf-8"
    )
    chi_file = tmp_path / "coloring.json"
    chi = Coloring.from_leaf_colors(parse_newick("(,)"), [0, 1], 2)
    chi_file.write_text(json.dumps(chi.to_json_obj()), encoding="utf-8")
    rc, _, err = run(capsys, "extract-k", str(chain_file), str(chi_file))
    assert rc == 1
    assert "chain link 1 does not hold" in err


def test_usage_errors_exit_1(capsys):
    rc, _, err = run(capsys, "no-such-command")
    assert rc == 1
    assert "usage error:" in err
    rc, _, err = run(capsys, "copies", "(,)")
    assert rc == 1
    assert "usage error:" in err


COMMANDS = ["gen", "copies", "induce", "encode", "decode", "check-arrow", "min-height",
            "find-bad", "extract-mono", "chain", "extract-k", "selftest"]

PARSER_CASES = [
    ["--help"],
    ["no-such-command"],
    ["check-arrow"],
    ["check-arrow", "a", "b", "c", "d", "extra"],
    ["gen", "no-such-mode"],
    ["gen", "perfect", "--help"],
    *([name, "--help"] for name in COMMANDS),
]


def _outcome(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exit_info:
        rc = ("exit", exit_info.code)
    return (rc, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_of_one_command_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    full_parser = cli.build_parser
    built = []

    def narrowed_parser(*names):
        built.append(names)
        return full_parser(*names)

    monkeypatch.setattr(cli, "build_parser", narrowed_parser)
    narrowed = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", lambda *names: full_parser())
    assert narrowed == _outcome(capsys, argv)
    assert built == [tuple(argv[:1]) if argv[0] in COMMANDS else ()]
    rc, out, err = narrowed
    if argv[-1] == "--help":
        assert (rc, err) == (("exit", 0), "") and out.startswith("usage: ramsey-trees")
    else:
        assert (rc, out) == (1, "") and err.startswith("usage error: ")


def test_env_leaf_guard(capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_MAX_LEAVES", "8")
    rc, _, err = run(capsys, "gen", "perfect", "4")
    assert rc == 2
    assert "over the configured limit 8" in err
    rc, out, _ = run(capsys, "gen", "perfect", "3")
    assert rc == 0
    assert parse_newick(out.strip()) == perfect_tree(3)
    monkeypatch.setenv("RAMSEY_MAX_LEAVES", "many")
    rc, _, err = run(capsys, "gen", "perfect", "1")
    assert rc == 1
    assert "RAMSEY_MAX_LEAVES" in err


def test_stdout_is_deterministic(capsys):
    first = run(capsys, "encode", "((a,(b,c)),d)")
    second = run(capsys, "encode", "((a,(b,c)),d)")
    assert first == second
    a = run(capsys, "copies", "(((,),(,)),((,),(,)))", CAT3)
    b = run(capsys, "copies", "(((,),(,)),((,),(,)))", CAT3)
    assert a == b


def test_selftest(capsys):
    rc, out, err = run(capsys, "selftest")
    assert rc == 0
    summary = json.loads(out)
    assert summary["failed"] == 0
    assert summary["passed"] >= 8
    assert "ok" in err


def _changing_cherry_query(change):
    """selftest's check_arrow, except that the failing query
    (,) -> ((,))^leaf_2 comes back changed."""
    real, cherry = selftest.check_arrow, parse_newick("(,)")

    def check_arrow(host, target, pattern, k, budget=None):
        verdict = real(host, target, pattern, k, budget)
        if host == target == cherry and pattern.is_leaf and k == 2:
            return change(verdict)
        return verdict

    return check_arrow


def _flip_verdict(v):
    return ArrowVerdict("holds", None, v.nodes, v.millis)


def _spoil_witness(v):
    w = v.witness
    return ArrowVerdict(v.status, Coloring.uniform(w.host, w.pattern, w.k, 0), v.nodes, v.millis)


def _dropping_last_copy():
    real = selftest.enumerate_copies
    return lambda host, pattern: real(host, pattern)[:-1]


@pytest.mark.parametrize(
    "attr, make, failing",
    [
        ("check_arrow", lambda: _changing_cherry_query(_flip_verdict), "arrow-vs-exhaustion"),
        ("check_arrow", lambda: _changing_cherry_query(_spoil_witness), "arrow-vs-exhaustion"),
        ("enumerate_copies", _dropping_last_copy, "copy-enumeration"),
    ],
    ids=["flipped-verdict", "bad-witness", "dropped-copy"],
)
def test_selftest_fails_on_a_broken_fast_path(capsys, monkeypatch, attr, make, failing):
    monkeypatch.setattr(selftest, attr, make())
    rc, out, err = run(capsys, "selftest")
    assert rc == 1
    summary = json.loads(out)
    assert summary["failed"] >= 1
    assert [c["name"] for c in summary["checks"] if not c["ok"]] == [failing]
    assert f"FAIL {failing}:" in err


def test_selftest_under_optimize():
    # python -O strips assert statements; the witness checks must still run.
    src = str(Path(ramsey_trees.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ramsey_trees.cli", "selftest"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failed"] == 0
