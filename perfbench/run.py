#!/usr/bin/env python3
"""Benchmark of the goodwill toolkit, one workload per run.

    python3 perfbench/run.py --workload churn_mc --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Run from the repository root. Every run starts fresh worker processes
(worker.py) on the sources in src/: SETUP_SAMPLES of them build the
inputs, for the set-up time, and the last one also runs the workload in
a closed loop for --seconds and checks its outputs. --trace 1 starts one
worker only and reports the per-layer metrics of a traced repeat instead
of the end-to-end ones.
Human-readable lines start with '#'; the last line of stdout is the
JSON result. See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # pinned for every run; stated in the environment record
SETUP_SAMPLES = 9  # fresh processes whose set-up time setup_s is the median of
# A run, set-up samples included, must end within RUN_LIMIT_S, or within
# three times --seconds plus a minute when that is longer.
RUN_LIMIT_S = 170.0


@functools.cache
def load_spec() -> tuple[tuple[str, ...], dict[str, str], dict[str, str]]:
    """Workload names and the units of the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (tuple(w["name"] for w in spec["workloads"]),
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(RuntimeError):
    """The run could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(args, mode: str, deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up time (spawn to READY) and the process."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _, err = finish(proc, deadline)
        raise BenchError(f"worker failed during set-up:\n{err}")
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run time limit") from None


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "goodwill").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_workload(args) -> dict:
    deadline = time.monotonic() + max(RUN_LIMIT_S, 3 * args.seconds + 60)
    _, end_to_end, per_layer = load_spec()
    trace = args.trace == 1

    def setup_samples(n: int) -> list[float]:
        times = []
        for _ in range(n):
            setup, proc = start_worker(args, "setup", deadline)
            finish(proc, deadline)
            times.append(setup)
        return times

    # The traced run reports no setup_s, so it takes no extra samples. The
    # untraced run takes half of them before and half after the workload, so
    # that setup_s spans the run's whole time, as the operations do.
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = setup_samples(extra // 2)
    setup, proc = start_worker(args, "trace" if trace else "run", deadline)
    setups.append(setup)
    out, err = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}:\n{err}")
    setups += setup_samples(extra - extra // 2)
    res = json.loads(out.strip().splitlines()[-1])

    ops = res["ops"]
    # failed operations are counted, not timed, unless none succeeded
    timed = [o for o in ops if not o["failed"]] or ops
    failed = sum(o["failed"] for o in ops)
    problems = res["problems"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "source_hash": source_hash(), "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, **res["versions"],
        "config_hash": hashlib.sha256(
            json.dumps(res["config"], sort_keys=True).encode()).hexdigest()[:16],
    }
    print(f"# env {json.dumps(report)}")
    for p in problems:
        print(f"# CHECK FAILED {p}")
    print(f"# ops attempted={len(ops)} failed={failed} "
          f"ops_failed_frac={failed / len(ops):.6g}")

    if trace:
        metrics = {k: res["layer_metrics"][k] for k in per_layer}
        units = per_layer
        print(f"# layers called: {' '.join(res['layers_called'])}")
        print(f"# bindings called: {' '.join(res['bindings_called'])}")
    else:
        samples = {"setup_s": setups, "wall_s": [o["wall"] for o in timed],
                   "ref_s": [o["ref"] for o in timed],
                   "wall_rel": [o["wall"] / o["ref"] for o in timed]}
        med = {k: statistics.median(v) for k, v in samples.items()}
        # time to a result of the stated precision: the operation's time
        # scaled by its mean squared standard error over the target squared;
        # an exact result takes one operation
        se = [o["se"] for o in timed if o["se"] is not None]
        scale = (statistics.fmean(v * v for v in se) / res["precision_target"] ** 2
                 if se else 1.0)
        metrics = {"setup_s": med["setup_s"], "wall_rel": med["wall_rel"],
                   "peak_rss_mb": res["peak_rss_mb"],
                   "time_to_precision_rel": med["wall_rel"] * scale}
        metrics = {k: metrics[k] for k in end_to_end}
        units = end_to_end
        for name, vals in samples.items():
            tail = tail_percentile(vals)
            extra = f", p{tail[0]:g}={tail[1]:.6g}" if tail else ", no tail (n < 21)"
            print(f"# {name}: median={med[name]:.6g} n={len(vals)}{extra} "
                  f"samples={' '.join(f'{v:.4g}' for v in vals)}")
        print(f"# time_to_precision_s = {med['wall_s'] * scale:.6g} s")
        if res["work"]:
            print(f"# steps_per_s = {res['work'] / med['wall_s']:.6g} 1/s")
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    workloads = load_spec()[0]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the harness self-test's small inputs")
    args = ap.parse_args()
    if not (SRC / "goodwill" / "__init__.py").is_file():
        print(f"error: no goodwill sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                               "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
