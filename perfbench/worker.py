"""One benchmark process for one workload: set-up, timed passes, checks.

Started by run.py, which times it from spawn until it prints READY (set-up:
interpreter start, package import, seeded input generation) and reads its
result, one JSON line, from stdout. With --setup-only it exits after READY.

Passes of the workload's fixed operation list repeat until the next pass
would end past --seconds of measuring. With --trace 1, untraced and traced
passes alternate: end-to-end numbers come from the untraced ones, per-layer
numbers from the traced ones, and the difference of their fastest timed
totals is the tracing overhead.

An operation's time in a run comes from its untraced repetitions: the
fastest one for in-process operations, the median one for CLI invocations
(see Workload.op_time). Operations are kept short (at most a few hundred ms),
so a run repeats each many times. In-process times are then scaled by
CALIB_REF_MS over the run's fastest calibration loop, which takes out most of
a slowdown of the whole machine that lasts the whole run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ramsey_trees  # noqa: E402
from ramsey_trees import arrows, coloring, embedding, tree, triples  # noqa: E402

from reference import CALIB_REF_MS, SPAWN_REF_MS, calibrate, spawn_ms  # noqa: E402
from spans import Tracer, bind  # noqa: E402
from workloads import NO_TIME_LIMIT_MS, WORKLOADS  # noqa: E402

MODULES = {"tree": tree, "embedding": embedding, "triples": triples,
           "coloring": coloring, "arrows": arrows}

# Span name -> per-layer metric (self time summed over one traced pass).
SPAN_METRICS = {
    "tree.parse_newick": "tree.parse_newick_ms",
    "tree.to_newick": "tree.to_newick_ms",
    "embedding.count_copies": "embedding.count_copies_ms",
    "embedding.enumerate_copies": "embedding.enumerate_copies_ms",
    "triples.structure_of": "triples.structure_of_ms",
    "triples.reconstruct": "triples.reconstruct_ms",
    "coloring.Coloring": "coloring.coloring_init_ms",
    "coloring.find_mono_copy": "coloring.find_mono_copy_ms",
    "arrows.min_arrow_height_scan": "arrows.scan_ms",
    "arrows.build_reduction_chain": "arrows.chain_ms",
    "arrows.extract_mono_k": "arrows.extract_ms",
    "arrows.extract_mono_leafcolor": "arrows.extract_ms",
}


class Run:
    def __init__(self, wl, lib, raw, tracer, reference):
        self.wl, self.lib, self.raw, self.tracer = wl, lib, raw, tracer
        self.reference = reference  # times the reference work, ms
        self.first: dict | None = None  # counters of the first pass
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = {op.name: [] for op in wl.ops}
        self.verdicts: list[str] = []
        self.calib: list[float] = []  # reference work before every operation, ms

    def run_pass(self, phase: str, traced: bool) -> tuple[float, dict]:
        """Run every operation once; return the pass's timed total, s, and
        the exact counters of its outputs. Each operation starts after a full
        garbage collection and the reference work, and its output is checked
        or compared, then dropped, before the next one starts: the collector
        then does the same work in an operation on every repetition."""
        lib, tracer = (self.lib if traced else self.raw), self.tracer
        if tracer is not None:
            tracer.phase = phase
        state, counters, timed = {}, {}, 0.0
        for op in self.wl.ops:
            if tracer is not None:
                tracer.query = op.name
            gc.collect()
            self.calib.append(self.reference())
            result, error = None, None
            t0 = time.perf_counter()
            try:
                with lib.span(f"bench.{op.name}"):
                    result = op.run(lib, state)
            except Exception as e:  # an operation that raises is counted as failed
                error = f"raised {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - t0
            timed += elapsed
            if not traced:
                self.latencies[op.name].append(1000.0 * elapsed)
            if tracer is not None:
                tracer.query = None
            counters[op.name] = self.settle(phase, op, result, error)
            del result
        if self.first is None:
            self.first = counters
        return timed, counters

    def settle(self, phase: str, op, result, error: str | None):
        """Outside the timed region: check the first pass's output of an
        operation, or compare a later one's counter with the first pass's."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{phase} {op.name}: {error}")
            return None
        counter, verdict = None, None
        try:
            counter = self.wl.counter(op, result)
            errs = self.wl.check(op, result) if self.first is None else []
            verdict = self.wl.verdict(op, result)
        except Exception as e:  # a malformed result can break its own check
            errs = [f"{op.name}: check raised {type(e).__name__}: {e}"]
        if self.first is not None and counter != self.first.get(op.name):
            errs = [f"{op.name}: counters differ from the first pass"]
        if verdict is not None:
            self.verdicts.append(verdict)
        if errs:
            self.failed += 1
            self.errors += [f"{phase} {e}" for e in errs]
        return counter


def arrow_layer_metrics(wl, tracer, phase, counters, probe_ms, sizes) -> dict:
    full = dict((q, d) for q, d in tracer.durations_ms(phase, "arrows.check_arrow"))
    arrow_ops = [op for op in wl.ops if op.arrow is not None and counters.get(op.name)]
    out = {"arrows.holds": 0, "arrows.fails": 0, "arrows.unknown": 0}
    if not arrow_ops:
        return out
    construct = sum(probe_ms.get(op.name, 0.0) for op in arrow_ops)
    # Where search takes a few nodes (construct), the difference is within the
    # noise of the two timings and can come out below 0.
    search = max(0.0, sum(full.get(op.name, 0.0) for op in arrow_ops) - construct)
    nodes = sum(counters[op.name]["nodes"] for op in arrow_ops)
    for op in arrow_ops:
        out[f"arrows.{counters[op.name]['verdict']}"] += 1
    out.update({
        "arrows.construct_ms": construct,
        "arrows.search_ms": search,
        "arrows.nodes": nodes,
        "arrows.nodes_per_s": nodes / (search / 1000.0) if search > 0 else 0.0,
        "arrows.leaf_pattern_ms": sum(full.get(op.name, 0.0) for op in arrow_ops
                                      if op.arrow[2].is_leaf),
        "arrows.variables": sum(sizes[op.name][0] for op in arrow_ops),
        "arrows.h_copies": sum(sizes[op.name][1] for op in arrow_ops),
    })
    return out


def probe_construction(run: Run, phase: str) -> dict[str, float]:
    """check_arrow with a zero node budget times constraint construction alone."""
    run.tracer.phase = phase
    out = {}
    for op in run.wl.ops:
        if op.arrow is None:
            continue
        host, target, pattern, k, _ = op.arrow
        run.tracer.query = op.name
        v = run.lib.check_arrow(host, target, pattern, k,
                                arrows.SearchBudget(0, NO_TIME_LIMIT_MS))
        if v.nodes != 0:
            run.errors.append(f"{phase} {op.name}: construction probe searched {v.nodes} nodes")
            run.failed += 1
        out[op.name] = run.tracer.durations_ms(phase, "arrows.check_arrow")[-1][1]
    run.tracer.query = None
    return out


def fastest_layers(per_pass: list[dict]) -> dict:
    names = {k for m in per_pass for k in m}
    return {k: min(m.get(k, 0.0) for m in per_pass) for k in sorted(names)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    raw = bind(MODULES, None)
    lib = bind(MODULES, tracer) if tracer else raw
    workdir = Path(__file__).resolve().parent / "out" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](MODULES, lib, args.seed, workdir)
    print("READY", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    # The inputs made in set-up stay alive for the whole run; moved out of the
    # collector's generations, they add nothing to the collections inside
    # operations or before them.
    gc.collect()
    gc.freeze()

    try:
        peak_rss_mb = None
        if args.workload != "cli":
            # One pass, neither timed nor checked: lazy set-up in the library
            # is done before timing, and peak memory is that of the set-up
            # and one pass, not of the checks that follow. An operation that
            # raises here fails again, and is counted, in the first pass.
            state = {}
            for op in wl.ops:
                gc.collect()
                try:
                    op.run(raw, state)
                except Exception:
                    pass
            del state
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "cli":
            reference, ref_ms = (lambda: spawn_ms("pass", wl.env)), SPAWN_REF_MS
        else:
            reference, ref_ms = calibrate, CALIB_REF_MS
        run = Run(wl, lib, raw, tracer, reference)
        untraced, traced, layers = [], [], []
        interp, imported = [], []  # cli only: bare interpreter and package import, ms
        sizes, errs = wl.arrow_sizes()
        run.errors += errs
        run.failed += len(errs)
        t_start, pass_s = time.perf_counter(), []
        while True:
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            phase = f"pass{len(untraced) + len(traced)}"
            t_pass = time.perf_counter()
            wall, counters = run.run_pass(phase, is_traced)
            (traced if is_traced else untraced).append(wall)
            if is_traced and args.workload == "cli":
                for _ in range(3):
                    interp.append(spawn_ms("pass", wl.env))
                    imported.append(spawn_ms("import ramsey_trees", wl.env))
            if is_traced:
                probe = probe_construction(run, phase + "-probe")
                totals = tracer.totals_ms(phase)
                m = {metric: 0.0 for metric in SPAN_METRICS.values()}
                for span, metric in SPAN_METRICS.items():
                    m[metric] += totals.get(span, 0.0)
                m.update(arrow_layer_metrics(wl, tracer, phase, counters, probe, sizes))
                m.update(wl.layer_metrics(tracer, phase, counters))
                layers.append(m)
            # Stop before the next pass would end past --seconds of measuring.
            now = time.perf_counter()
            pass_s.append(now - t_pass)
            done = now - t_start + statistics.median(pass_s) > args.seconds
            if done and (not args.trace or traced):
                break

        env = {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
               "nproc": os.cpu_count(), "ramsey_trees": ramsey_trees.__version__,
               "reference_ms": wl.op_time(run.calib)}
        if args.trace:
            metrics = fastest_layers(layers)
            metrics["tree.build_ms"] = sum(v for k, v in tracer.totals_ms("setup").items()
                                           if k.startswith("tree."))
            metrics["bench.calib_ms"] = env["reference_ms"]
            metrics["bench.trace_overhead_s"] = min(traced) - min(untraced)
            if interp:
                metrics["cli.interp_ms"] = min(interp)
                metrics["cli.import_ms"] = min(imported) - min(interp)
            if args.spans:
                tracer.write(Path(args.spans))
        else:
            scale = ref_ms / env["reference_ms"]
            env["time_scale"] = scale
            lat = sorted(wl.op_time(v) * scale for v in run.latencies.values())
            metrics = {
                "wall_s": sum(lat) / 1000.0,
                "peak_rss_mb": peak_rss_mb or resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                "decided_frac": (sum(v != "unknown" for v in run.verdicts) / len(run.verdicts)
                                 if run.verdicts else 1.0),
                "op_p50_ms": statistics.median(lat),
                "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
            }
        result = {
            "attempted": run.attempted, "failed": run.failed, "errors": run.errors[:50],
            "metrics": metrics, "env": env, "untraced_walls_s": untraced,
            "traced_walls_s": traced, "untraced_op_ms": run.latencies,
            "counters": {"fixed": {op.name: run.first.get(op.name) for op in wl.ops if not op.seeded},
                         "seeded": {op.name: run.first.get(op.name) for op in wl.ops if op.seeded}},
        }
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
