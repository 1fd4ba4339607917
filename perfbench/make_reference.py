#!/usr/bin/env python3
"""Regenerate reference.json, the stored deterministic outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only for a documented change of the numerics (a new quadrature or
step rule); the benchmark's checks compare every run against this file.
"""

import json
from pathlib import Path

import workloads as wl


def main():
    ref = {"churn_mc": {}, "exact_fine": {}}
    churn = wl.ChurnMC(0, "tiny")
    out = churn.crn_pair(churn.both, 2, 0)
    ref["churn_mc"] = {k: out[k] for k in ("w0", "c", "z_star")}
    for size in ("full", "tiny"):
        ex = wl.ExactFine(0, size)
        table = {}
        for a in ex.A1_AMPS:
            table[f"a1={a:g}"] = ex.exact_setting(a, 0.0)
        for b in ex.B1_AMPS:
            table[f"b1={b:g}"] = ex.exact_setting(0.0, b)
            table[f"b1={b:g}"]["sensitivity"] = [ex.sensitivity(r, b) for r in ex.R_GRID]
        ref["exact_fine"][size] = table
    Path(wl.REFERENCE).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
