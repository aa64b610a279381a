#!/usr/bin/env python3
"""Closed-loop, single-client benchmark of the noisecycle library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-report --seed 1 --seconds 20 --trace 0

One client in one process sends each request when the previous one has
returned.  ``--seconds`` sets the number of rounds (``ROUND`` requests each)
from the nominal round time of the workload, so the request count is fixed
for a given setting and the measured time is free to move.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the same requests untraced and then traced, writes the
spans under ``.perfbench_out/`` and reports the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread everywhere, set before numpy loads its BLAS
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NOISECYCLE_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# seconds one round of ROUND requests takes at the baseline (2-core x86 box,
# one thread); rounds = max(1, round(seconds / ROUND_SECONDS))
ROUND_SECONDS = {"steady-report": 9.0, "evolve-mix": 20.0, "classical-ensemble": 21.0}
SHOWN_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import noisecycle, generate the inputs and exit (timed as setup_s)")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import noisecycle and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisecycle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line and ".so" in line})
    found = {}
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(args, rounds: int, n_requests: int) -> dict:
    import numpy
    import scipy

    import noisecycle

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "noisecycle": noisecycle.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "pinned_env": {key: os.environ[key] for key in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "requests_per_pass": n_requests,
        "passes": 2 if args.trace else 1,
        "warmup_requests": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noisecycle" / "__init__.py").is_file():
        print(f"perfbench: no noisecycle sources under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))

    import workloads

    if args.setup_only:
        workloads.make_requests(args.workload, args.seed, rounds)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = None if args.trace else measure_setup(args)

    import noisecycle

    if Path(noisecycle.__file__).resolve().parent != (SRC / "noisecycle").resolve():
        print(f"perfbench: imported noisecycle from {noisecycle.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer

    requests = workloads.make_requests(args.workload, args.seed, rounds)
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, rounds, len(requests))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"env-{tag}.json").write_text(json.dumps(env, indent=2) + "\n")
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    failures: list = []
    try:
        workloads.run_pass(workload, requests[:1], NullTracer(), workdir, [])  # warm-up, not counted
        latencies = workloads.run_pass(workload, requests, NullTracer(), workdir, failures)
        attempted = len(requests)
        if args.trace:
            tracer = Tracer()
            traced = workloads.run_pass(workload, requests, tracer, workdir, failures)
            attempted += len(requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"requests {len(requests)}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        values = dict(tracer.counts)
        values.update(tracer.self_times())
        paths = values.get("sde.simulate_ensemble.paths", 0)
        values["sde.simulate_ensemble.diverged_frac"] = (
            values.get("sde.simulate_ensemble.diverged", 0) / paths if paths else 0.0)
        values["tracing_overhead_s"] = sum(traced) - sum(latencies)
        spans_path = OUT / f"spans-{tag}.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
              f"top-level spans cover {tracer.top_level_time():.4f} s "
              f"of {sum(traced):.4f} s traced wall")
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": sum(latencies),
            "request_p50_s": statistics.median(latencies),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    # per-layer metrics of layers a workload never enters read 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"fail_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} requests)")
    for req, problems in failures[:SHOWN_FAILURES]:
        print(f"FAILED {req}: {problems}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
