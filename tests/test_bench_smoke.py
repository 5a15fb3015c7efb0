import importlib.metadata
import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


# One untimed-length pass of each workload: the worker checks every verdict
# against its known truth, re-verifies every witness and expects "unknown"
# exactly at the node budget, and counts what fails. The cli workload starts
# one process per command and checks each exit code and stdout against the
# library. The worker also records the installed numpy version, which it
# reads from the package's lazy registration.
@pytest.mark.parametrize("workload", ["search", "construct", "large-host", "cli"])
def test_benchmark_workload_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=WORKER.parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
    assert result["env"]["numpy"] == importlib.metadata.version("numpy")
