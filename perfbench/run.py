"""Benchmark runner for ramsey_trees.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are listed in BENCHMARK.json with
the reason each was chosen; perfbench/README.md maps each per-layer metric to
the end-to-end metric and workload it moves.

Each run starts worker processes one at a time: SETUP_REPEATS - 1 that only
set up, then the measured one, each after a bare interpreter start. Set-up
time is the median over all of them, each timed from spawn until the worker
has imported the package and generated its seeded inputs, scaled by
reference.SPAWN_REF_MS over the median bare start. Exact counters from the worker (verdicts, node counts,
copy counts, digests of outputs) are stored under perfbench/out/counters and
must be identical for every run of the same code: the seed-independent ones
across all seeds, the others per seed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import SPAWN_REF_MS, spawn_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
TIMEOUT_S = 170  # the whole run, set-up included


def code_digest() -> str:
    """Digest of the package and benchmark sources: counters are compared
    only between runs of the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "ramsey_trees", HERE):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Worker:
    """One worker process; `ready_s` is the time from spawn to READY."""

    def __init__(self, argv: list[str], deadline: float):
        t0 = time.perf_counter()
        # Its own process group, so a timeout also stops the CLI processes it started.
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                     start_new_session=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker did not finish set-up (exit {self.proc.returncode})")

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def compare_counters(workload: str, seed: int, counters: dict) -> list[str]:
    """Store the run's counters, or compare them with a stored earlier run."""
    digest = code_digest()
    store = OUT / "counters"
    store.mkdir(parents=True, exist_ok=True)
    diffs = []
    for kind, name in (("fixed", f"{workload}-{digest}.json"),
                       ("seeded", f"{workload}-seed{seed}-{digest}.json")):
        path = store / name
        if path.exists():
            before = json.loads(path.read_text(encoding="utf-8"))
            diffs += [f"counter {op} differs from an earlier run of the same code"
                      for op in sorted(set(before) | set(counters[kind]))
                      if before.get(op) != counters[kind].get(op)]
        else:
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(counters[kind], sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ramsey_trees" / "__init__.py").is_file():
        print("perfbench: no src/ramsey_trees here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup, bare = [], []  # s; a bare interpreter start before each set-up
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            bare.append(spawn_ms("pass") / 1000.0)
            w = Worker(argv + ["--setup-only"], deadline)
            setup.append(w.ready_s)
            w.finish()
        bare.append(spawn_ms("pass") / 1000.0)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        argv += ["--spans", str(OUT / f"spans-{tag}.json")]
    w = Worker(argv, deadline)
    setup.append(w.ready_s)
    result = json.loads(w.finish().splitlines()[-1])

    diffs = compare_counters(args.workload, args.seed, result["counters"])
    errors = result["errors"] + diffs
    failed = result["failed"] + len(diffs)
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup) * SPAWN_REF_MS / 1000.0
                              / statistics.median(bare))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    if not args.trace:
        missing = {m["name"] for m in declared} - set(metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    # A per-layer metric of a layer this workload does not call reads 0.
    out_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": result["env"], "setup_samples_s": setup,
              "bare_start_samples_s": bare,
              "untraced_walls_s": result["untraced_walls_s"],
              "traced_walls_s": result["traced_walls_s"],
              "untraced_op_ms": result["untraced_op_ms"],
              "attempted": result["attempted"], "failed": failed,
              "error_frac": failed / result["attempted"], "errors": errors,
              "metrics": out_metrics, "counters": result["counters"]}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}, reference {env['reference_ms']:.2f} ms, "
          f"scale {env.get('time_scale', 1.0):.3f}")
    print(f"  attempted {result['attempted']}, failed {failed}, "
          f"error_frac {failed / result['attempted']:.4f}")
    for e in errors[:20]:
        print(f"  error: {e}")
    for name, m in out_metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
