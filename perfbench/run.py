"""Benchmark of the `sgd` command path: time to a proven, checked answer.

    python3 perfbench/run.py --workload brute|bnb|certify-io --seed N --seconds S --trace 0|1

Run from the repository root; it imports sgdom from ./src and nothing else of
the repository. The inputs are built from --seed (see workloads.py and
corpus.py) and written under perfbench/work/. One client runs the ops of a
pass one after another through `sgdom.cli.main(argv)` in this process (a
closed loop), and passes repeat until the run's time is within half a pass
of --seconds, so that a run measures --seconds on average, and until at least
100 op latencies are pooled. Every answer is checked by check.py against the
pinned reference.json; a wrong answer counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, writes the spans to perfbench/results/, and prints per-layer
metrics per pass plus the tracing overhead. The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import check
from spans import SpanStats, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
SETUP_REPEATS = 7
MIN_SAMPLES = 100
# Explicit flags replace these in every op; they are also dropped from the
# environment so that a stray value cannot change a workload.
SGD_ENV = ("SGD_MAX_BRUTE_N", "SGD_NODE_BUDGET", "SGD_THREADS")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sgdom.cli; "
                "print(time.perf_counter() - t)")

E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ok_frac": "frac",
             "proven_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "solve.brute_s": "s", "solve.brute_upper_s": "s", "solve.assignments": "count",
    "solve.s_per_2e20_assignments": "s", "solve.bnb_s": "s", "solve.bnb_nodes": "count",
    "solve.bnb_nodes_per_s": "1/s", "solve.bnb_proven_ratio": "ratio",
    "bounds.lower_bound_s": "s", "bounds.gap_sum": "count",
    "graph.parse_s": "s", "graph.parse_bytes": "bytes", "graph.emit_s": "s",
    "graph.union_regularize_s": "s",
    "certify.verify_s": "s", "certify.verify_calls": "count", "certify.minimal_s": "s",
    "certify.parse_cert_s": "s",
    "extremal.build_s": "s", "extremal.vertices": "count",
    "reductions.reduce_s": "s", "reductions.lift_s": "s", "reductions.project_s": "s",
    "reductions.gadget_vertices": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def prepare_environment() -> None:
    for name in SGD_ENV:
        os.environ.pop(name, None)
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def time_import() -> float:
    """Seconds to import sgdom.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "openblas": openblas,
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


class Runner:
    """Runs passes over the ops and checks every answer."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.checked: dict[str, dict] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def run_pass(self, number: int, traced: bool) -> dict:
        # Keep the benchmark's own objects out of the collector's scans, so a
        # collection inside an op costs what it would in a standalone `sgd`.
        gc.collect()
        gc.freeze()
        latencies, facts = [], []
        for index, op in enumerate(self.ops):
            if traced:
                self.tracer.begin_op(f"{number}:{index}", op.name)
            start = perf_counter()
            try:
                out = op.run()
            except Exception:
                out = traceback.format_exc(limit=3)
            latencies.append(perf_counter() - start)
            if traced:
                self.tracer.end_op()
            facts.append(self.check(op, out, number))
        return {"latencies": latencies, "facts": facts, "wall": sum(latencies)}

    def check(self, op, out, number: int) -> dict | None:
        self.attempted += 1
        if isinstance(out, str):
            return self.fail(op, number, f"exception: {out}")
        h = hashlib.sha256(f"{op.name}\0{out.rc}\0{out.stdout}\0{out.payload!r}".encode())
        for path in op.files:
            h.update(path.read_bytes() if path.exists() else b"\0missing")
        key = h.hexdigest()
        if key not in self.checked:
            try:
                self.checked[key] = op.check(out)
            except check.CheckError as exc:
                return self.fail(op, number, str(exc))
            except Exception:
                return self.fail(op, number, "checker error: " + traceback.format_exc(limit=3))
        return self.checked[key]

    def fail(self, op, number: int, reason: str) -> None:
        self.failures.append({"op": op.name, "pass": number, "reason": reason})
        return None


def end_to_end(passes: list[dict], checked: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Metrics from the untraced `passes`; failed and capped shares count
    every `checked` pass."""
    latencies = [x * 1000 for p in passes for x in p["latencies"]]
    facts = [f for p in checked for f in p["facts"]]
    attempted = len(facts)
    capped = sum(1 for f in facts if f and f.get("capped"))
    failed = sum(1 for f in facts if f is None)
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "ok_frac": 1 - failed / attempted,
        "proven_frac": 1 - capped / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"samples": len(latencies), "passes": len(passes),
             "beyond_p90": sum(1 for x in latencies if x > metrics["op_p90_ms"]),
             "failed_frac": failed / attempted, "capped_frac": capped / attempted}
    return metrics, extra


REDUCERS = ("reductions.reduce_mds", "reductions.reduce_mtds", "reductions.reduce_1in3")


def per_layer(traced: list[dict], untraced: list[dict], spans, ops) -> dict:
    from sgdom import bounds
    from sgdom.certify import Mode

    s = SpanStats(spans)
    per = len(traced)

    def facts_of(algo):
        return [(op, f) for p in traced for op, f in zip(ops, p["facts"])
                if f and f.get("algo") == algo]

    brute = facts_of("brute") + facts_of("upper")
    bnb = facts_of("bnb")
    assignments = sum(f["nodes"] for _, f in brute) / per
    brute_s = s.busy("solve.brute_force_sigma") / per
    upper_s = s.busy("solve.brute_force_upper") / per
    bnb_s = s.busy("solve.bnb_sigma") / per
    bnb_nodes = sum(f["nodes"] for _, f in bnb) / per
    gap = 0
    for op, f in bnb:
        if f["status"] == "optimal":
            n, delta, Delta = op.meta["profile"]
            profile = bounds.DegreeProfile(n, delta, Delta, op.meta["k"])
            gap += f["value"] - bounds.effective_bound(profile, Mode(op.meta["mode"]))
    bounds_names = [name for name in {sp[1] for sp in spans} if name.startswith("bounds.")]
    return {
        "solve.brute_s": brute_s,
        "solve.brute_upper_s": upper_s,
        "solve.assignments": assignments,
        "solve.s_per_2e20_assignments": (brute_s + upper_s) / (assignments / 2**20)
        if assignments else 0.0,
        "solve.bnb_s": bnb_s,
        "solve.bnb_nodes": bnb_nodes,
        "solve.bnb_nodes_per_s": bnb_nodes / bnb_s if bnb_s else 0.0,
        "solve.bnb_proven_ratio": sum(f["status"] == "optimal" for _, f in bnb) / len(bnb)
        if bnb else 0.0,
        "bounds.lower_bound_s": s.busy(*bounds_names) / per,
        "bounds.gap_sum": gap / per,
        "graph.parse_s": s.busy("graph.parse_graph") / per,
        "graph.parse_bytes": s.counted("graph.parse_graph") / per,
        "graph.emit_s": s.busy("graph.emit_graph") / per,
        "graph.union_regularize_s":
            s.busy("graph.disjoint_union", "graph.regularize_independent_set") / per,
        "certify.verify_s": s.busy("certify.verify") / per,
        "certify.verify_calls": s.calls("certify.verify") / per,
        "certify.minimal_s": s.busy("certify.is_minimal_skdf") / per,
        "certify.parse_cert_s": s.busy("certify.parse_certificate") / per,
        "extremal.build_s": s.busy("extremal.build_extremal") / per,
        "extremal.vertices": s.counted("extremal.build_extremal") / per,
        "reductions.reduce_s": s.busy(*REDUCERS) / per,
        "reductions.lift_s": s.busy("reductions.lift_solution") / per,
        "reductions.project_s": s.busy("reductions.project_solution") / per,
        "reductions.gadget_vertices": s.counted(*REDUCERS) / per,
        "cli.main_s": s.busy("cli.main") / per,
        "cli.self_s": s.self_time("cli.main") / per,
        "trace.overhead_s": statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in untraced),
        "trace.spans": len(spans) / per,
    }


def main(argv=None, max_ops: int | None = None) -> int:
    """Run one benchmark; `max_ops` trims each pass for the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgdom" / "cli.py").is_file():
        sys.stderr.write(f"error: no sgdom sources under {SRC}; run from a full checkout\n")
        return 2
    prepare_environment()
    import sgdom.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sgdom":
        sys.stderr.write(f"error: sgdom imported from {cli.__file__}, not from {SRC}\n")
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            import_s = time_import()
            shutil.rmtree(workdir, ignore_errors=True)
            start = perf_counter()
            workdir.mkdir(parents=True)
            ops = WORKLOADS[args.workload](cli, args.seed, workdir, reference)
            setup_times.append(import_s + perf_counter() - start)
        ops = ops[:max_ops]
        tracer = Tracer() if args.trace else None
        runner = Runner(ops, tracer)
        untraced, traced = [], []
        origin = perf_counter()
        while True:
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            if trace_this:
                tracer.install()
            try:
                (traced if trace_this else untraced).append(
                    runner.run_pass(len(traced) + len(untraced), trace_this))
            finally:
                if trace_this:
                    tracer.uninstall()
            # Stop once the next pass would end more than half a pass after
            # --seconds, and the latency pool is large enough for a p90 with
            # ten samples beyond it.
            elapsed = perf_counter() - origin
            done = len(untraced) + len(traced)
            samples = sum(len(p["latencies"]) for p in untraced)
            enough = args.trace or max_ops is not None or samples >= MIN_SAMPLES
            if (enough and len(traced) >= args.trace
                    and elapsed * (done + 0.5) / done > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = end_to_end(untraced, untraced + traced, statistics.median(setup_times))
    if args.trace:
        layers = per_layer(traced, untraced, tracer.spans, ops)
        printed = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
    else:
        printed = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    failed = len(runner.failures)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine_info()
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": info, "ops_per_pass": len(ops),
               "tiers": {t: sum(op.tier == t for op in ops) for t in {op.tier for op in ops}},
               "pass_walls_untraced": [p["wall"] for p in untraced],
               "pass_walls_traced": [p["wall"] for p in traced],
               **extra, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
               "end_to_end": metrics, "failures": runner.failures[:50],
               "op_latency_ms": {op.name: [round(p["latencies"][i] * 1000, 3) for p in untraced]
                                 for i, op in enumerate(ops)}}
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl", origin)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, closed loop, one client")
    print("machine " + json.dumps(info))
    print(f"latency samples {extra['samples']} pooled over {extra['passes']} untraced passes, "
          f"{extra['beyond_p90']} beyond p90")
    print(f"failed_frac {extra['failed_frac']:.6g} capped_frac {extra['capped_frac']:.6g} "
          f"(attempted {runner.attempted}, failed {failed})")
    print("all work is single-threaded and queue-free: no layer has a wait-time metric")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure['op']} (pass {failure['pass']}): {failure['reason']}")
    for name, (value, unit) in printed.items():
        print(f"{name} = {value:.10g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
