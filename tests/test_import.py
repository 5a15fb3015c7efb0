"""The import contract: the package runs none of numpy's code.

The package registers numpy lazily, only so that the benchmark worker can
read its version; importing the package or running a CLI command must not
execute numpy, and the package must work where numpy is missing or broken.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import ramsey_trees

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


def test_no_file_imports_numpy():
    package = pathlib.Path(ramsey_trees.__file__).parent
    files = list(package.glob("*.py")) + list(pathlib.Path(__file__).parent.rglob("*.py"))
    assert len(files) > 15
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], path


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
