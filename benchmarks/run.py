#!/usr/bin/env python3
"""Benchmark of the itercdma receiver loop and its per-stage samplers.

Run from the repository root:

    python3 benchmarks/run.py --workload loop_turbo --seed 0 --seconds 50 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Each workload is a closed loop with one caller: ops run back to back until
``--seconds`` of timed wall time would be exceeded.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics.  The line before it is a JSON record of the environment,
the workload parameters, op-time percentiles and every problem found.

Nothing here sets a ``*_NUM_THREADS`` variable or imports numpy before
``itercdma``, so a thread policy adopted by the package is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3          # fresh processes whose set-up time is the median
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10           # the tail percentile keeps at least this many ops above it

# Per-layer metrics exempt from the nonzero check: counters of exceptional events,
# zero on a healthy run, and the tracing overhead, which noise can put at zero.
ZERO_ALLOWED = {"solvers.rank_errors", "detector.lmmse_ridge_fallbacks",
                "trace.overhead_frac"}
LOOP_ONLY = {"estimator.ml_estimate.calls", "estimator.ml_estimate.self_s",
             "solvers.condition.p50", "solvers.condition.max",
             "detector.lmmse_detect_frame.calls", "detector.lmmse_detect_frame.self_s",
             "pipeline.run_iterative_receiver.self_s", "pipeline.iterations_run",
             "pipeline.useful_iteration_ratio"}
STAGE_ONLY = {"estimator.decompose_error.self_s",
              "estimator.leave_one_out_estimates_fast.self_s",
              "estimator.empirical_estimation_stats.self_s",
              "detector.measure_pic_stats.self_s", "codec.estimate_gcurve.self_s",
              "rmt.empirical_eigen_moments.self_s"}


def load_package():
    """Import itercdma from this checkout's src/, then the benchmark modules."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import itercdma
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import itercdma from {src}: {exc}")
    if not Path(itercdma.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: itercdma resolved to {itercdma.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


def run_op(workload, i):
    """Run op i; returns (summary or None, error or None, wall seconds, ridge warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            summary, error = workload.run(i), None
        except Exception as exc:          # a raising op is a failed op, not a crash
            summary, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    ridge = sum("LMMSE covariance singular" in str(w.message) for w in caught)
    return summary, error, wall, ridge


class Checker:
    """Output checks: invariants for every op; for default-seed ops the golden
    record and, for op 0, the exact digest of the warm-up run."""

    def __init__(self, wl_mod, name, warm_digest):
        self.wl_mod, self.warm_digest = wl_mod, warm_digest
        with open(GOLDEN_PATH) as fh:
            self.golden = json.load(fh)["ops"][name]

    def problems(self, workload, i, summary, error):
        if error is not None:
            return [error]
        errs = workload.invariants(summary)
        if workload.seed == DEFAULT_SEED and i < len(self.golden):
            mismatch = self.wl_mod.golden_mismatch(summary, self.golden[i])
            if mismatch:
                errs.append(f"golden: {mismatch}")
        if (workload.seed == DEFAULT_SEED and i == 0
                and self.wl_mod.exact_digest(summary) != self.warm_digest):
            errs.append("op 0 differs from the warm-up run of op 0")
        return errs


def measure_setup(args, wl_mod):
    """Set-up of this process: import, build configs and codecs, and warm up.

    The warm-up is op 0 of the default seed whatever ``--seed`` is, so every
    run sets up the same work and the warm-up output can be checked against
    the golden record and across processes.
    """
    warm = wl_mod.make(args.workload, DEFAULT_SEED)
    summary, error, _, _ = run_op(warm, 0)
    workload = warm if args.seed == DEFAULT_SEED else wl_mod.make(args.workload, args.seed)
    return workload, warm, time.perf_counter() - T_START, summary, error


def fresh_setups(args, count):
    """Set-up times and warm-up digests measured in ``count`` fresh processes."""
    out = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            out.append({"error": f"set-up process ran over {SETUP_TIMEOUT_S} s"})
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            out.append({"error": f"set-up process exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}"})
        else:
            out.append(json.loads(lines[-1]))
    return out


def tail_stat(times):
    """Highest nearest-rank percentile with TAIL_BEYOND ops above it, never below p50."""
    ordered = sorted(times)
    n = len(ordered)
    j = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[j], 100.0 * (j + 1) / n, n - 1 - j


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return info.get("openblas configuration") or f"{info['name']} {info['version']}"
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def per_layer_metrics(tr_mod, traced, n_ops, ridge, overhead_frac):
    """Per-op means of the traced spans and counters, keyed by metric name."""
    calls, self_s = {}, {}
    conditions, iterations = [], []
    flop = rank_errors = codewords = 0
    for tracer in traced:
        for span, own in zip(tracer.spans, tr_mod.self_times(tracer.spans)):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + own
        conditions += tracer.conditions
        iterations += tr_mod.receiver_iterations(tracer)
        flop += tracer.gram_flop
        rank_errors += tracer.rank_errors
        codewords += tracer.codewords_decoded
    m = {}
    for name in set(calls) - {tr_mod.ROOT_SPAN}:
        m[f"{name}.calls"] = calls[name] / n_ops
        m[f"{name}.self_s"] = self_s[name] / n_ops
    m["analysis.calls"] = sum(v for k, v in calls.items() if k.startswith("analysis.")) / n_ops
    m["analysis.self_s"] = sum(v for k, v in self_s.items() if k.startswith("analysis.")) / n_ops
    m["estimator.gram_gflop"] = flop / 1e9 / n_ops
    m["solvers.condition.p50"] = statistics.median(conditions) if conditions else 0.0
    m["solvers.condition.max"] = max(conditions, default=0.0)
    m["solvers.rank_errors"] = rank_errors
    m["detector.lmmse_ridge_fallbacks"] = ridge
    m["codec.codewords_decoded"] = codewords / n_ops
    m["codec.decode_us_per_codeword"] = (
        1e6 * self_s.get("codec.decode", 0.0) / codewords if codewords else 0.0)
    run = sum(r for r, _ in iterations)
    m["pipeline.iterations_run"] = run / len(iterations) if iterations else 0.0
    m["pipeline.useful_iteration_ratio"] = (
        sum(c for _, c in iterations) / run if run else 0.0)
    m["trace.overhead_frac"] = overhead_frac
    return m, {k: round(v / n_ops, 6) for k, v in sorted(self_s.items())}


def traced_loop(args, wl_mod, tr_mod, workload, checker, problems):
    """Alternate untraced and traced runs of each op until the time is up."""
    untraced, traced_walls, traced = [], [], []
    attempted = failed = ridge = 0
    t0 = time.perf_counter()
    i = 0
    while True:
        summary_u, error_u, wall_u, _ = run_op(workload, i)
        with tr_mod.Tracer() as tracer:
            summary_t, error_t, _, ridge_t = tracer.wrap(run_op, tr_mod.ROOT_SPAN)(workload, i)
        root = tracer.spans[0]
        ridge += ridge_t
        wall_t = root[2] - root[1]
        errs_u = checker.problems(workload, i, summary_u, error_u)
        errs_t = checker.problems(workload, i, summary_t, error_t)
        if not errs_u + errs_t and (wl_mod.exact_digest(summary_t)
                                    != wl_mod.exact_digest(summary_u)):
            errs_t.append("traced output differs from untraced output")
        split = sum(tr_mod.self_times(tracer.spans))
        if abs(split - wall_t) > 1e-6 * wall_t + 1e-6:
            errs_t.append(f"self times sum to {split:.6f} s, op wall time is {wall_t:.6f} s")
        for kind, errs in (("untraced", errs_u), ("traced", errs_t)):
            attempted += 1
            if errs:
                failed += 1
                problems.append(f"{kind} op {i}: " + "; ".join(errs))
        untraced.append(wall_u)
        traced_walls.append(wall_t)
        traced.append(tracer)
        i += 1
        if time.perf_counter() - t0 + wall_u + wall_t > args.seconds:
            break
    overhead = statistics.median(traced_walls) / statistics.median(untraced) - 1.0
    metrics, self_table = per_layer_metrics(tr_mod, traced, len(traced), ridge, overhead)
    return metrics, attempted, failed, {"traced_ops": len(traced), "self_s_per_op": self_table,
                                        "op_s_p50_untraced": statistics.median(untraced),
                                        "op_s_p50_traced": statistics.median(traced_walls)}


def timed_loop(args, workload, checker, problems):
    """Untraced closed loop; returns op wall times and the failed-op count."""
    times, failed = [], 0
    t0 = time.perf_counter()
    i = 0
    while True:
        summary, error, wall, _ = run_op(workload, i)
        errs = checker.problems(workload, i, summary, error)
        if errs:
            failed += 1
            problems.append(f"op {i}: " + "; ".join(errs))
        times.append(wall)
        i += 1
        if time.perf_counter() - t0 + wall > args.seconds:
            break
    return times, time.perf_counter() - t0, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one fresh-process set-up and print it as JSON")
    args = parser.parse_args(argv)

    wl_mod, tr_mod = load_package()
    if args.workload not in wl_mod.WORKLOADS:
        parser.error(f"--workload must be one of {wl_mod.WORKLOADS}")
    workload, warm, setup_s, warm_summary, warm_error = measure_setup(args, wl_mod)
    warm_digest = wl_mod.exact_digest(warm_summary) if warm_summary is not None else None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "digest": warm_digest, "error": warm_error}))
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    checker = Checker(wl_mod, args.workload, warm_digest)
    problems = [f"warm-up: {p}" for p in checker.problems(warm, 0, warm_summary, warm_error)]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "params": workload.describe(), "closed_loop_callers": 1}

    if args.trace:
        values, attempted, failed, extra = traced_loop(args, wl_mod, tr_mod, workload,
                                                       checker, problems)
        record.update(extra)
        wanted = spec["per_layer"]
        other = STAGE_ONLY if args.workload.startswith("loop_") else LOOP_ONLY
        for m in wanted:
            name = m["name"]
            if name not in values:
                values[name] = 0.0
            if name not in ZERO_ALLOWED | other and not values[name] > 0:
                problems.append(f"per-layer metric {name} is zero on a workload where it runs")
    else:
        setups = [{"setup_s": setup_s, "digest": warm_digest}]
        setups += fresh_setups(args, SETUP_SAMPLES - 1)
        for s in setups[1:]:
            if "error" in s and s["error"]:
                problems.append(f"fresh set-up: {s['error']}")
            elif s["digest"] != warm_digest:
                problems.append("warm-up output differs between fresh processes")
        times, timed_wall, failed = timed_loop(args, workload, checker, problems)
        attempted = len(times)
        tail, tail_pct, beyond = tail_stat(times)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups if "setup_s" in s),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail,
            "ops_per_s": len(times) / timed_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        record.update({"ops": len(times), "timed_wall_s": timed_wall,
                       "op_times_s": [round(t, 4) for t in times],
                       "op_s": {"p50": values["op_s.p50"], "tail": tail,
                                "tail_percentile": round(tail_pct, 1),
                                "ops_beyond_tail": beyond, "samples": len(times)},
                       "setup_samples_s": [s.get("setup_s") for s in setups]})

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    record["problems"] = problems
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
