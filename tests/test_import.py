"""The import contract: the package runs none of numpy's code, and a process
loads only the submodules it uses.

The package registers numpy lazily, only so that the benchmark worker can
read its version; importing the package or running a CLI command must not
execute numpy, and the package must work where numpy is missing or broken.
Its public names are imported from their submodules on first access, and
each CLI command imports only what it runs.
"""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ramsey_trees
from ramsey_trees import Coloring, build_reduction_chain, iterate, leaf, parse_newick, structure_of

SRC = pathlib.Path(ramsey_trees.__file__).resolve().parent.parent


def _python(*args, first=None):
    """Run a fresh interpreter with src (after `first`, if given) on PYTHONPATH."""
    parts = [str(p) for p in (first, SRC) if p] + [os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in parts if p)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PACKAGE_FILES = list(pathlib.Path(ramsey_trees.__file__).parent.glob("*.py"))


def _top_level_imports(path):
    """The top-level packages of the modules that a file's import statements name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    return {m.split(".")[0] for m in imported}


def test_no_file_imports_numpy():
    files = PACKAGE_FILES + list(pathlib.Path(__file__).parent.rglob("*.py"))
    assert len(files) > 15
    for path in files:
        assert "numpy" not in _top_level_imports(path), path


def test_every_file_parses_at_the_declared_python_floor():
    """Every .py file under src/, tests/ and demos/ parses with the grammar
    of the oldest Python that pyproject.toml's requires-python admits. This
    checks grammar only, not the standard-library names a file uses. The
    floor is read with a regex, as tomllib is new in 3.11."""
    root = SRC.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    version = (int(floor[1]), int(floor[2]))
    files = [p for d in ("src", "tests", "demos") for p in sorted((root / d).rglob("*.py"))]
    assert len(files) > 25
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


# Standard-library names that parse at Python 3.10 but do not exist there.
NEWER_THAN_FLOOR = {
    ("operator", "call"),
    ("itertools", "batched"),
    ("tomllib", None),
    ("typing", "Self"),
    ("enum", "StrEnum"),
    ("math", "sumprod"),
}


def _module_names(source):
    """(module, None) for each module that source imports, and (module,
    name) for each `from module import name` and each attribute read
    `alias.name` of an `import module [as alias]`."""
    tree = ast.parse(source)
    aliases = {}
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                used.add((a.name, None))
                aliases[a.asname or a.name] = a.name
        elif isinstance(n, ast.ImportFrom) and n.module:
            used.add((n.module, None))
            used |= {(n.module, a.name) for a in n.names}
    used |= {
        (aliases[n.value.id], n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
    }
    return used


def test_no_module_uses_a_stdlib_name_newer_than_the_floor():
    # The grammar check above passes these names, which fail only when a
    # 3.10 interpreter runs the line. The package and the demos use none.
    probe = "import itertools as it\nfrom operator import call\nimport tomllib\nit.batched(x, 2)\n"
    assert _module_names(probe) & NEWER_THAN_FLOOR == {
        ("itertools", "batched"), ("operator", "call"), ("tomllib", None)}
    files = PACKAGE_FILES + sorted((SRC.parent / "demos").glob("*.py"))
    assert len(files) > 12
    for path in files:
        assert not _module_names(path.read_text(encoding="utf-8")) & NEWER_THAN_FLOOR, path


def test_no_package_module_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, in every CLI
    # process that loads the module that imports it.
    assert len(PACKAGE_FILES) > 8
    for path in PACKAGE_FILES:
        assert not _top_level_imports(path) & {"dataclasses", "inspect"}, path


def test_import_registers_numpy_without_running_it():
    out = _python("-c", """if True:
        import importlib.metadata, json, sys
        import ramsey_trees.cli
        loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
        version = sys.modules["numpy"].__version__
        import numpy
        print(json.dumps([loaded, version, importlib.metadata.version("numpy"),
                          int(numpy.arange(4).sum())]))
    """)
    loaded, version, installed, total = json.loads(out)
    assert loaded == []
    assert version == installed
    assert total == 6


def test_numpy_imported_first_is_left_alone():
    out = _python("-c", """if True:
        import sys
        import numpy
        import ramsey_trees
        print(sys.modules["numpy"] is numpy)
    """)
    assert out == "True\n"


def test_cli_runs_with_a_broken_numpy(tmp_path):
    fake = tmp_path / "numpy"
    fake.mkdir()
    (fake / "__init__.py").write_text("raise ImportError('numpy code ran')\n", encoding="utf-8")
    assert _python("-m", "ramsey_trees.cli", "gen", "perfect", "2", first=tmp_path) == "((,),(,))\n"


def test_cli_runs_without_numpy():
    # -S leaves site-packages, and with it numpy, off the path; -E ignores
    # PYTHONPATH, so only the package source is added; -B writes no bytecode.
    out = _python("-S", "-E", "-B", "-c", """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from ramsey_trees.cli import main
        main(["gen", "perfect", "2"])
        print("numpy" in sys.modules)
    """, str(SRC))
    assert out == "((,),(,))\nFalse\n"


def test_public_names_resolve_to_their_submodules():
    for name in ramsey_trees.__all__:
        module = importlib.import_module(f"ramsey_trees.{ramsey_trees._SUBMODULE[name]}")
        assert getattr(ramsey_trees, name) is getattr(module, name), name


def test_lazy_table_holds_the_public_names():
    assert sorted(ramsey_trees._SUBMODULE) == sorted(set(ramsey_trees.__all__))
    assert len(set(ramsey_trees.__all__)) == len(ramsey_trees.__all__)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from ramsey_trees import *", namespace)
    for name in ramsey_trees.__all__:
        assert namespace[name] is getattr(ramsey_trees, name), name
    assert set(ramsey_trees.__all__) | {"__version__"} <= set(dir(ramsey_trees))


def test_unknown_name_raises_attribute_error():
    # removed public names stay removed
    for name in ("nope", "psi_map", "find_psi_mono"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(ramsey_trees, name)
        assert not hasattr(ramsey_trees, name)


def test_bare_import_loads_no_submodule():
    out = _python("-c", """if True:
        import sys
        import ramsey_trees
        print(sorted(m for m in sys.modules if m.startswith("ramsey_trees.")))
    """)
    assert out == "[]\n"


_ARROW = {"tree", "embedding", "coloring", "arrows"}

# One invocation of each subcommand and the submodules it loads besides
# errors and limits, which cli.py imports for every command.
_COMMAND_LOADS = [
    (["gen", "perfect", "2"], {"tree"}),
    (["copies", "((,),(,))", "(,)"], {"tree", "embedding"}),
    (["induce", "((,),(,))", "[0,1,3]"], {"tree", "embedding"}),
    (["encode", "((a,b),c)"], {"tree", "triples"}),
    (["decode", "{structure}"], {"tree", "triples"}),
    (["check-arrow", "((,),(,))", "(,)", "", "2"], _ARROW),
    (["min-height", "(,)", "", "2"], _ARROW),
    (["find-bad", "((,),(,))", "(,)", "", "2"], _ARROW),
    (["extract-mono", "(,)", "2", "{coloring}"], _ARROW),
    (["chain", "(,)", "", "4"], _ARROW),
    (["extract-k", "{chain}", "{chain_coloring}"], _ARROW),
    (["selftest"], _ARROW | {"triples", "selftest"}),
]


@pytest.mark.parametrize("argv, loads", _COMMAND_LOADS, ids=[a[0] for a, _ in _COMMAND_LOADS])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loads):
    chain = build_reduction_chain(parse_newick("(,)"), leaf(), 4)
    top = chain.trees[-1]
    inputs = {
        "structure": structure_of(parse_newick("((a,b),c)")).to_json_obj(),
        "coloring": Coloring.from_leaf_colors(iterate(parse_newick("(,)"), 2), [0, 1, 0, 1], 2)
        .to_json_obj(),
        "chain": chain.to_json_obj(),
        "chain_coloring": Coloring.from_leaf_colors(
            top, [i % 4 for i in range(top.leaf_count)], 4
        ).to_json_obj(),
    }
    for name, obj in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    argv = [a.format(**{n: tmp_path / f"{n}.json" for n in inputs}) for a in argv]
    # -S keeps site's own imports (typing among them on some installs) out of
    # the count; -E and -B as in test_cli_runs_without_numpy.
    out = _python("-S", "-E", "-B", "-c", """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from ramsey_trees.cli import main
        rc = main(json.loads(sys.argv[2]))
        print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("ramsey_trees")),
                          sorted({"dataclasses", "inspect"} & set(sys.modules)),
                          "typing" in sys.modules]))
    """, str(SRC), json.dumps(argv))
    rc, loaded, costly, typing_loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    base = {"ramsey_trees", "ramsey_trees.cli", "ramsey_trees.errors", "ramsey_trees.limits"}
    assert set(loaded) == base | {f"ramsey_trees.{m}" for m in loads}
    assert costly == []
    if "selftest" not in loads:
        assert not typing_loaded
