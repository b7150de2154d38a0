"""Closed-loop benchmark of catspectra: one client, one process, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Each op starts when the previous one
has returned.  Ops run until their summed wall time reaches S seconds, and
never fewer than MIN_OPS, so that the 90th percentile has at least ten
samples beyond it.  Output checks run after the timed loop.

--trace 0 prints the end-to-end metrics: throughput, per-op p50 and p90,
peak RSS, and set-up time (the median over SETUP_PROBES fresh processes that
import catspectra and run one op on the workload's fixed reference spec).

--trace 1 runs each op twice, untraced and with every traced function wrapped
in spans (see spans.py), until the untraced runs sum to S/2 seconds; the
ratio of the two times is the tracing overhead.  It checks the trace against
the code's structure, prints the per-layer metrics and writes the spans to
perfbench/out/spans-<workload>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  BENCHMARK.json at the root lists the metrics each mode
must print.  Outside a checkout that holds src/catspectra the script exits 2
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 110
SETUP_PROBES = 7

# Runs in a fresh interpreter: import catspectra (and numpy under it), run one
# op, report the time both took, then check the op's output.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
spec = workloads.make_spec(w.reference)
out = w.op(spec)
print(time.perf_counter() - t0)
sys.exit(1 if w.check(0, spec, out) else 0)
"""


def timed_op(workload, spec, tracer=None, index=0) -> tuple[float, object]:
    """Wall time of one op and its output; an op that raises yields its traceback."""
    t0 = time.perf_counter()
    try:
        with tracer.op(index) if tracer else nullcontext():
            out = workload.op(spec)
    except Exception:       # a failed op is counted, never dropped
        out = RuntimeError(traceback.format_exc())
    return time.perf_counter() - t0, out


def check_outputs(workload, done) -> int:
    """Runs the workload's independent checks; prints and counts the failures."""
    failed = 0
    for i, (spec, _, out) in enumerate(done):
        problem = str(out) if isinstance(out, Exception) else workload.check(i, spec, out)
        if problem:
            failed += 1
            print(f"FAIL op {i} T{spec.q}: {problem}", file=sys.stderr)
    return failed


def setup_seconds(name: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name],
            capture_output=True, text=True, timeout=30, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(workload, seed, seconds, cache) -> tuple[dict, list, dict]:
    """Closed loop until the ops' summed time reaches `seconds` and MIN_OPS have run."""
    setup = setup_seconds(workload.name)
    cache.cache_clear()
    done, busy = [], 0.0
    for spec in workload.specs(seed):
        if busy >= seconds and len(done) >= MIN_OPS:
            break
        dt, out = timed_op(workload, spec)
        busy += dt
        done.append((spec, dt, out))
    times = [dt for _, dt, _ in done]
    metrics = {
        "throughput_ops_s": (len(times) / busy, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = cache.cache_info()
    return metrics, done, {"hits": info.hits, "misses": info.misses}


def per_layer(workload, seed, seconds, cache) -> tuple[dict, list, dict, list[str]]:
    """Runs each op twice back to back, untraced and traced, in alternating order.

    Pairing the two runs of a spec keeps the host's drifting CPU speed out of
    the overhead ratio.  The cache is cleared before each run; every spec is
    distinct, so no op loses a hit it would otherwise get.
    """
    tracer = spans.Tracer()
    done, untraced, hits, misses = [], 0.0, 0, 0
    for spec in workload.specs(seed):
        if untraced >= seconds / 2 and len(done) >= MIN_OPS:
            break
        for traced in ((False, True) if len(done) % 2 == 0 else (True, False)):
            cache.cache_clear()
            if not traced:
                untraced += timed_op(workload, spec)[0]
                continue
            with tracer:
                dt, out = timed_op(workload, spec, tracer, len(done))
            info = cache.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        done.append((spec, dt, out))
    metrics = spans.layer_metrics(tracer.spans, len(done))
    metrics["oracle.mu_oracle.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                             "ratio")
    metrics["trace_overhead"] = (sum(dt for _, dt, _ in done) / untraced, "ratio")
    metrics["trace.ops"] = (len(done), "count")
    mu_specs = 0 if workload.mu_min_k is None else sum(
        spec.k >= workload.mu_min_k for spec, _, _ in done)
    problems = spans.self_check(tracer.spans, misses, mu_specs)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}.jsonl")
    return metrics, done, {"hits": hits, "misses": misses}, problems


def provenance(args, ops: int, cache: dict) -> dict:
    import numpy

    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=ROOT) if (ROOT / ".git").exists() else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "catspectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git.stdout.strip() if git and git.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "mu_oracle_cache": cache,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catspectra" / "__init__.py").is_file():
        print(f"no catspectra sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # The pin must precede the first numpy import, so the package is imported here.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = declared["per_layer" if args.trace else "end_to_end"]

    ref = workloads.make_spec(workload.reference)
    workload.op(ref)            # warm-up: lazy imports and first-call costs before timing
    if args.trace:
        metrics, done, cache, problems = per_layer(workload, args.seed, args.seconds,
                                                   workloads.MU_ORACLE)
    else:
        metrics, done, cache = end_to_end(workload, args.seed, args.seconds, workloads.MU_ORACLE)
        problems = []
    failed = check_outputs(workload, done)
    for msg in problems:
        print(f"TRACE SELF-CHECK: {msg}", file=sys.stderr)

    declared_units = {m["name"]: m["unit"] for m in expected}
    if declared_units != {name: unit for name, (_, unit) in metrics.items()}:
        print("metrics or units differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"{workload.name}: {len(done)} ops, {failed} failed, error_rate {failed / len(done):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("provenance " + json.dumps(provenance(args, len(done), cache)))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
