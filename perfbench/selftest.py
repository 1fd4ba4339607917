#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes; it never gates on time.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced (for one and for two
seconds, so the runs do different numbers of operations) and asserts:
every metric BENCHMARK.json names is printed with its unit for every
workload; every output check passes; every wrapped layer is called by
some workload; the per-operation counts repeat exactly; and, in a
directory holding only BENCHMARK.json and perfbench/, the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("calls", "steps", "ratio", "clip_count", "blowups")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0, proc.stdout
    return res, lines[:-1]


def check_metrics(res: dict, lines: list[str], spec: list[dict]):
    for w in run.load_spec()[0]:
        for m in spec:
            got = res["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"], (w, m, got)
            printed = [ln for ln in lines if ln.startswith(f"# {w} {m['name']} = ")]
            assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}"), (w, m)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.load_spec()[0]) == list(workloads.WORKLOADS), run.load_spec()[0]

    res, lines = result_of(bench("--seconds", "1", "--trace", "0"))
    check_metrics(res, lines, spec["end_to_end"])
    for ln in lines:
        if ln.startswith("# ") and ": median=" in ln:
            assert " n=" in ln, ln

    traced = []
    for seconds in ("1", "2"):
        res, lines = result_of(bench("--seconds", seconds, "--trace", "1"))
        check_metrics(res, lines, spec["per_layer"])
        traced.append(res)
        called = set()
        for ln in lines:
            if ln.startswith("# layers called: "):
                called |= set(ln.split(": ", 1)[1].split())
        missing = set(spans.LAYERS) - called
        assert not missing, f"wrapped layers never called: {sorted(missing)}"
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.rsplit(".", 1)[-1].endswith(COUNTS)} for r in traced]
    assert counts[0] and counts[0] == counts[1], "per-operation counts differ"
    # every layer metric is measured on some workload; no clip or blowup
    # happens on the current code, so those two read 0 everywhere
    for m in spec["per_layer"]:
        if m["name"] not in ("sdde.clip_count", "sdde.blowups"):
            assert any(traced[0]["metrics"][f"{w}.{m['name']}"]["value"] > 0
                       for w in run.load_spec()[0]), f"{m['name']} is 0 on every workload"

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench")
        proc = bench("--seconds", "1", cwd=Path(tmp))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout

    print("selftest: ok")


if __name__ == "__main__":
    main()
