"""One benchmark process: import, set up, run operations, check outputs.

Started by run.py in a fresh interpreter for every run (and for every
set-up sample). It prints READY once the workload's inputs are built,
then, unless --mode setup, runs operations in a closed loop (one caller,
each operation starts when the previous one ends), times a fixed
reference computation between operations, and prints one JSON line with
the raw samples. With --mode trace it first runs untraced
for half the time, then runs the same operations again with every
layer wrapped (spans.py), and reports the layer totals per operation
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

_t0 = time.perf_counter()
import goodwill  # noqa: E402  (timed: this is setup.import_s)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

CAUGHT = (goodwill.BlowupError, goodwill.ConfigurationError)


def run_op(w: wl.Workload, i: int) -> dict:
    t = time.perf_counter()
    try:
        out, err = w.op(i), None
    except CAUGHT as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    return {"i": i, "wall": time.perf_counter() - t, "out": out, "err": err}


def reference_time() -> float:
    """Time of a fixed computation that runs no goodwill code: a pure-Python
    loop and numpy passes over a 2 MB array, updated in place. The host
    this benchmark was made on changes speed by up to 1.8x over minutes; an
    operation's time over the reference time next to it moves far less
    (README.md)."""
    t = time.perf_counter()
    acc = 0
    for k in range(300_000):
        acc += k * k
    a = np.arange(1 << 18, dtype=float)
    for _ in range(40):
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    return time.perf_counter() - t


def run_for(w: wl.Workload, seconds: float) -> list[dict]:
    """Operations 0, 1, ... back to back until `seconds` have passed. Each
    record's `ref` is the mean reference time just before and just after it."""
    deadline = time.perf_counter() + seconds
    ref = reference_time()
    records = []
    while not records or time.perf_counter() < deadline:
        rec = run_op(w, len(records))
        ref_after = reference_time()
        rec["ref"] = (ref + ref_after) / 2
        ref = ref_after
        records.append(rec)
    return records


def check_records(w: wl.Workload, records: list[dict]) -> list[str]:
    problems = []
    for rec in records:
        bad = [rec["err"]] if rec["err"] else w.check(rec["out"])
        rec["failed"] = bool(bad)
        problems += [f"op {rec['i']}: {b}" for b in bad]
    return problems


def layer_metrics(tracer: tr.Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer totals from the traced spans and counters; layers
    and counters a workload does not reach are 0."""
    total, self_t = tracer.self_times()
    c = tracer.counters
    out = {}
    for layer in tr.LAYERS:
        out[f"{layer}.s"] = total.get(layer, 0.0) / n_ops
        out[f"{layer}.self_s"] = self_t.get(layer, 0.0) / n_ops
        out[f"{layer}.calls"] = c.get(f"{layer}.calls", 0) / n_ops
    for layer in tr.KEYED:
        calls = c.get(f"{layer}.calls", 0)
        out[f"{layer}.distinct_ratio"] = c.get(f"{layer}.distinct", 0) / calls if calls else 0.0
    for layer in tr.ALLOC_TRACED:
        out[f"{layer}.peak_alloc_mb"] = tracer.peak_alloc.get(layer, 0) / 2**20
    for name in tr.WORK_COUNTERS:
        out[name] = c.get(name, 0) / n_ops
    out["sdde.noise_reuse_ratio"] = out["sdde.path_normals.distinct_ratio"]
    return out


def traced_run(w: wl.Workload, untraced: list[dict]) -> tuple[list[dict], list[str], dict]:
    """Repeat the untraced operations with every layer wrapped, then run
    the first one once more to take the peak allocations."""
    tracer = tr.Tracer()
    records = []
    with tracer.installed():
        for rec in untraced:
            tracer.begin_op()
            records.append(run_op(w, rec["i"]))
            tracer.end_op()
    alloc = tr.Tracer(alloc_only=True)
    with alloc.installed():
        records.append(run_op(w, untraced[0]["i"]))
    tracer.peak_alloc = alloc.peak_alloc

    problems = []
    for a, b in zip(untraced + untraced[:1], records):
        if json.dumps(a["out"]) != json.dumps(b["out"]):
            problems.append(f"op {a['i']}: traced output differs from untraced")
    for binding in w.bindings:
        if tracer.binding_calls.get(binding, 0) == 0:
            problems.append(f"wrapped binding {binding} saw no call")
    n = len(untraced)
    metrics = layer_metrics(tracer, n)
    metrics["setup.import_s"] = IMPORT_S
    metrics["trace.overhead_frac"] = (
        sum(r["wall"] for r in records[:n]) / sum(r["wall"] for r in untraced) - 1.0
    )
    report = {
        "layer_metrics": metrics,
        "layers_called": sorted({s.name for s in tracer.spans}),
        "bindings_called": sorted(b for b, k in tracer.binding_calls.items() if k),
    }
    return records, problems, report


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    w = wl.WORKLOADS[args.workload](args.seed, args.size)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    records = run_for(w, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"peak_rss_mb": peak_rss_mb, "work": w.work,
              "precision_target": w.precision_target, "config": w.config(),
              "versions": versions()}
    problems = []
    if args.mode == "trace":
        traced, problems, report = traced_run(w, records)
        result.update(report)
        records += traced
    problems = check_records(w, records) + problems
    result["ops"] = [
        {"wall": r["wall"], "ref": r.get("ref"), "failed": r["failed"],
         "se": None if r["out"] is None else w.precision_se(r["out"])}
        for r in records
    ]
    result["problems"] = problems
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
