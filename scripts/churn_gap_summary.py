#!/usr/bin/env python3
"""Print the memoryless-vs-optimal gap table for both churn axes.

Library-level version of the fig2 subcommand, handy for quick parameter
sweeps without writing CSV files.

    python3 scripts/churn_gap_summary.py --paths 5000 --amplitudes 0 2.5 5
"""

import argparse

from goodwill.cli import churn_gap, load_defaults


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=5000)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--amplitudes", type=float, nargs="+", default=[0.0, 1.0, 2.5, 5.0])
    args = ap.parse_args()

    cfg = load_defaults()
    cfg.update(n_paths=args.paths, dt=args.dt, seed=args.seed)

    print(f"{'axis':<12}{'amp':>6}{'V*':>12}{'V0':>12}{'gap':>10}{'stderr':>10}")
    for axis in ("a1", "b1"):
        for amp in args.amplitudes:
            signed = -abs(amp) if axis == "a1" else abs(amp)
            kw = {"a1_amp": signed, "b1_amp": 0.0} if axis == "a1" else {
                "a1_amp": 0.0, "b1_amp": signed
            }
            v_opt, v_mem, g = churn_gap(cfg, **kw)
            print(
                f"{axis:<12}{signed:>6.2f}{v_opt.mean:>12.4f}"
                f"{v_mem.mean:>12.4f}{g.gap:>10.4f}{g.stderr:>10.4f}"
            )


if __name__ == "__main__":
    main()
