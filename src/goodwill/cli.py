"""Command-line front end for the goodwill experiments.

Subcommands build scenarios from a JSON config merged over the shipped
defaults file and emit CSV (or JSON) results. Every CSV starts with a
comment line carrying a hash of the fully merged config, so outputs are
traceable and re-runs are byte-identical.

    goodwill fig1 --out fig1.csv
    goodwill fig2 --axis a1_amplitude --out fig2a.csv
    goodwill sensitivity --out sens.csv
    goodwill feedback-check --a0 -1 --a1 -2
    goodwill costate --out costate.csv
    goodwill evaluate --out value.json
    goodwill approx --out table.csv

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import approximation, lq, sdde, state_delay
from .hilbert import ExponentialKernel, ProfileX, SegmentGrid
from .lifting import lift_M
from .sdde import BlowupError, ConfigurationError, HistoryPair, ModelParams

REAL_KEYS = {
    "a0", "b0", "sigma", "beta", "gamma", "T", "r",
    "delta_a", "delta_b", "a1_amp", "b1_amp",
    "u_min", "u_max", "x0", "x1_decay", "dt", "t_eval",
}
INT_KEYS = {"n_paths", "seed", "n_nodes"}
LIST_KEYS = {"amplitudes", "r_grid", "eps1_list", "eps2_list"}
KNOWN_KEYS = REAL_KEYS | INT_KEYS | LIST_KEYS
# the most segment-grid nodes a config may ask for, checked before any grid
# is built. The value is a chosen sanity limit (50x the shipped 201), not a
# resource bound: `evaluate` and `sensitivity` cost about the same at 10^4
# nodes as at 201, but `approx` steps at most the grid spacing, so its step
# count and its (paths x nodes) arrays still grow with n_nodes up to the cap
MAX_NODES = 10**4
# the most Monte Carlo paths a config may ask for, a sanity limit chosen the
# same way (50x the shipped 20,000). The path simulators keep a few floats
# per path, but `approx` keeps (paths x nodes) arrays: 80 GB at both caps
MAX_PATHS = 10**6
# fig2's --axis choices: the config key each sweep sets (the other churn
# amplitude is 0) and the amplitudes it sweeps when the config has none
AXES = {
    "a1_amplitude": ("a1_amp", [0.0, -1.0, -2.0, -3.0, -4.0, -5.0]),
    "b1_amplitude": ("b1_amp", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
}


def load_defaults() -> dict:
    with resources.files("goodwill").joinpath("defaults.json").open() as fh:
        return json.load(fh)


def merged_config(config_path: str | None, overrides: dict) -> dict:
    cfg = load_defaults()
    if config_path:
        with open(config_path) as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigurationError(str(exc)) from exc
        if not isinstance(user, dict):
            raise ConfigurationError(
                f"config file must hold a JSON object, got {type(user).__name__}"
            )
        unknown = set(user) - KNOWN_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key in (REAL_KEYS | INT_KEYS) & cfg.keys():
        value, integer = cfg[key], key in INT_KEYS
        kinds = int if integer else (int, float)
        # bool is an int subclass, but true/false is no number of paths
        if isinstance(value, bool) or not isinstance(value, kinds):
            kind = "an integer" if integer else "a number"
            raise ConfigurationError(f"{key} must be {kind}, got {value!r}")
        # json reads NaN and Infinity; only u_max = +Infinity means something
        if isinstance(value, float) and not math.isfinite(value) and (
            key != "u_max" or value != math.inf
        ):
            raise ConfigurationError(f"{key} must be finite, got {value!r}")
    for key in LIST_KEYS & cfg.keys():
        value = cfg[key]
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ConfigurationError(f"{key} must be a list of numbers, got {value!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in value):
            raise ConfigurationError(f"{key} entries must be finite, got {value!r}")
    if "n_nodes" in cfg and not 2 <= cfg["n_nodes"] <= MAX_NODES:
        raise ConfigurationError(
            f"n_nodes must be in [2, {MAX_NODES}], got {cfg['n_nodes']}"
        )
    if "n_paths" in cfg and cfg["n_paths"] > MAX_PATHS:
        raise ConfigurationError(f"n_paths must be at most {MAX_PATHS}")
    if "seed" in cfg:
        sdde._check_seed(cfg["seed"])
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def build_params(cfg: dict, a1_amp=None, b1_amp=None) -> ModelParams:
    for key in ("delta_a", "delta_b"):  # an error that names the key to fix
        if not cfg[key] > 0:
            raise ConfigurationError(f"{key} must be positive, got {cfg[key]}")
    a1_amp = cfg["a1_amp"] if a1_amp is None else a1_amp
    b1_amp = cfg["b1_amp"] if b1_amp is None else b1_amp
    return ModelParams(
        a0=cfg["a0"],
        a1=ExponentialKernel(a1_amp, cfg["delta_a"]),
        b0=cfg["b0"],
        b1=ExponentialKernel(b1_amp, cfg["delta_b"]),
        sigma=cfg["sigma"],
        r=cfg["r"],
        T=cfg["T"],
        u_min=cfg["u_min"],
        u_max=cfg["u_max"],
    )


def build_history(cfg: dict, grid: SegmentGrid) -> HistoryPair:
    if not cfg["x1_decay"] > 0:
        raise ConfigurationError(f"x1_decay must be positive, got {cfg['x1_decay']}")
    with np.errstate(over="ignore"):  # a lag over the decay past 1e308: exp(-inf) = 0
        x1 = cfg["x0"] * np.exp(-np.abs(grid.nodes) / cfg["x1_decay"])
    return HistoryPair(grid=grid, x0=cfg["x0"], x1=x1, delta=np.zeros(grid.n_nodes))


def _model(cfg: dict, **changes) -> tuple[ModelParams, SegmentGrid, HistoryPair]:
    """Parameters, segment grid and initial history of the config with the
    given keys changed."""
    cfg = dict(cfg, **changes)
    params = build_params(cfg)
    grid = SegmentGrid(cfg["r"], cfg["n_nodes"])
    return params, grid, build_history(cfg, grid)


def _costate(cfg: dict, params: ModelParams) -> lq.CostateSolution:
    return lq.solve_costate(params, cfg["gamma"], cfg["beta"], cfg["dt"])


def build_objective(cfg: dict) -> sdde.ObjectiveSpec:
    return sdde.ObjectiveSpec(
        phi0=sdde.LinearReward(cfg["gamma"]),
        h0=sdde.QuadraticCost(cfg["beta"]),
    )


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_out(path: str):
    """Raise, before the run, the OSError that open(path, "w") would raise
    for a directory or a missing or non-directory parent; creates nothing."""
    parent = os.path.dirname(path) or "."
    if not path or not os.path.exists(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.path.isdir(parent):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _table(cfg: dict, columns: dict) -> str:
    """CSV of named, equal-length columns under a config-hash comment line:
    the column names, then one row per index, each value to 10 significant
    digits. Empty columns give the hash line and the header alone."""
    lines = [f"# config_hash={config_hash(cfg)}", ",".join(columns)]
    lines += [
        ",".join(f"{v:.10g}" for v in row)
        for row in zip(*columns.values(), strict=True)
    ]
    return "\n".join(lines) + "\n"


# --- subcommands ------------------------------------------------------------


def run_fig1(cfg: dict) -> str:
    """Optimal policy trajectories in the four churn settings."""
    settings = [
        ("z_no_churn", 0.0, 0.0),
        ("z_goodwill_churn", cfg["a1_amp"], 0.0),
        ("z_advertising_churn", 0.0, cfg["b1_amp"]),
        ("z_both", cfg["a1_amp"], cfg["b1_amp"]),
    ]
    columns = {}
    for name, a_amp, b_amp in settings:
        params, _, _ = _model(cfg, a1_amp=a_amp, b1_amp=b_amp)
        cs = _costate(cfg, params)
        columns[name] = lq.optimal_policy_lq(cs, params).z
    return _table(cfg, {"t": cs.t, **columns})


def churn_gap(cfg: dict) -> tuple[sdde.MCEstimate, sdde.MCEstimate, sdde.GapEstimate]:
    """Optimal and memoryless policy values on common random numbers at the
    config's churn amplitudes, and the relative gap between them."""
    params, _, history = _model(cfg)
    obj = build_objective(cfg)
    cs = _costate(cfg, params)
    zstar = lq.optimal_policy_lq(cs, params)
    zmem = lq.memoryless_policy(params, cfg["gamma"], cfg["beta"])
    v_opt = sdde.evaluate_policy(
        params, history, zstar, obj, cfg["dt"], cfg["n_paths"], cfg["seed"]
    )
    v_mem = sdde.evaluate_policy(
        params, history, zmem, obj, cfg["dt"], cfg["n_paths"], cfg["seed"]
    )
    return v_opt, v_mem, sdde.relative_gap(v_opt, v_mem)


def run_fig2(cfg: dict, axis: str) -> str:
    """Relative performance gap of the memoryless policy vs churn amplitude."""
    if cfg["gamma"] == 0:
        raise ConfigurationError(
            "fig2 needs gamma != 0: the gap is relative to the optimal value, "
            "which is 0 at gamma = 0"
        )
    key, default = AXES[axis]
    amplitudes = cfg.get("amplitudes", default)
    results = [
        churn_gap({**cfg, "a1_amp": 0.0, "b1_amp": 0.0, key: amp})
        for amp in amplitudes
    ]
    return _table(cfg, {
        "amplitude": amplitudes,
        "V_hat": [v_opt.mean for v_opt, _, _ in results],
        "V0_hat": [v_mem.mean for _, v_mem, _ in results],
        "gap": [gap.gap for _, _, gap in results],
        "gap_stderr": [gap.stderr for _, _, gap in results],
    })


def run_sensitivity(cfg: dict) -> str:
    """Delay-sensitivity formula vs central finite difference over r.

    Runs with a1 = 0 regardless of the configured amplitude: that is the
    regime where the sensitivity formula is exact (the costate w0 is then
    independent of r), so the finite-difference check is meaningful.
    """
    cfg = dict(cfg, a1_amp=0.0)
    r_grid = cfg.get("r_grid", [round(0.25 + 0.05 * i, 10) for i in range(10)])
    t_eval = cfg.get("t_eval", 0.0)
    formula, fd = [], []
    for r in r_grid:
        h = r / 50.0
        formula.append(_sensitivity_at(cfg, r, t_eval))
        v_plus = _value_at(cfg, r + h, t_eval)
        v_minus = _value_at(cfg, r - h, t_eval)
        fd.append((v_plus - v_minus) / (2.0 * h))
    return _table(cfg, {
        "r": r_grid,
        "dV_dr_formula": formula,
        "dV_dr_finite_difference": fd,
        "abs_diff": [abs(f - d) for f, d in zip(formula, fd)],
    })


def _sensitivity_at(cfg: dict, r: float, t_eval: float) -> float:
    params, _, h = _model(cfg, r=r)
    return lq.sensitivity_dV_dr(
        t_eval, ProfileX(h.x0, h.x1), params, cfg["gamma"], cfg["beta"], cfg["dt"]
    )


def _value_at(cfg: dict, r: float, t_eval: float) -> float:
    params, grid, h = _model(cfg, r=r)
    return lq.value_lq(t_eval, ProfileX(h.x0, h.x1), _costate(cfg, params), grid)


def run_feedback_check(a0: float, a1: float) -> str:
    # the condition is checked at the model's delay, the shipped r
    r = load_defaults()["r"]
    report = state_delay.invariant_measure_condition(a0, a1, r)
    return json.dumps({"r": r, **dataclasses.asdict(report)}) + "\n"


def run_costate(cfg: dict) -> str:
    params, _, _ = _model(cfg)
    cs = _costate(cfg, params)
    zmem = lq.memoryless_policy(params, cfg["gamma"], cfg["beta"])
    return _table(cfg, {
        "t": cs.t,
        "w0": cs.w0,
        "c": cs.c,
        "z_star": lq.optimal_policy_lq(cs, params).z,
        "z_memoryless": sdde.open_loop_controls(zmem, params, cs.t, "costate"),
    })


def run_evaluate(cfg: dict) -> str:
    params, grid, history = _model(cfg)
    cs = _costate(cfg, params)
    policy = lq.optimal_policy_lq(cs, params)
    est = sdde.evaluate_policy(
        params, history, policy, build_objective(cfg),
        cfg["dt"], cfg["n_paths"], cfg["seed"],
    )
    xbar = lift_M(history.x0, history.x1, history.delta, params, grid)
    analytic = lq.value_lq(0.0, xbar, cs, grid)
    # a one-path stderr is undefined (NaN), which JSON writes as null; so
    # is the z-score of the mean against the analytic value then, and when
    # the paths have no spread (stderr 0)
    stderr = None if math.isnan(est.stderr) else est.stderr
    z_score = (est.mean - analytic) / stderr if stderr else None
    return json.dumps(
        {
            "config_hash": config_hash(cfg),
            "mc": {
                "mean": est.mean, "stderr": stderr,
                "n_paths": est.n_paths, "seed": est.seed, "z_score": z_score,
            },
            "analytic_value": analytic,
        },
        allow_nan=False,
    ) + "\n"


def run_approx(cfg: dict) -> str:
    params, grid, history = _model(cfg)
    cs = _costate(cfg, params)
    policy = lq.optimal_policy_lq(cs, params)
    xbar = lift_M(history.x0, history.x1, history.delta, params, grid)
    baseline = lq.value_lq(0.0, xbar, cs, grid)
    # the fewest steps that divide T and pass the lifted scheme's CFL check
    steps = max(1, round(params.T / min(cfg["dt"], grid.spacing)))
    if params.T / steps > grid.spacing * (1 + approximation.CFL_RTOL):
        steps += 1
    dt = params.T / steps
    rows = approximation.convergence_study(
        params, xbar, policy, cfg["gamma"], cfg["beta"], baseline,
        cfg.get("eps1_list", [0.0, 0.1]),
        cfg.get("eps2_list", [0.4, 0.2, 0.1, 0.05]),
        grid, dt, cfg["n_paths"], cfg["seed"],
    )
    return _table(cfg, {
        "eps1": [row.eps1 for row in rows],
        "eps2": [row.eps2 for row in rows],
        "J_eps": [row.j_eps for row in rows],
        "stderr": [row.stderr for row in rows],
        "gap": [row.gap for row in rows],
    })


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="goodwill", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def config_command(name, run, help, monte_carlo=False):
        # a subcommand that runs on the merged config; only the Monte Carlo
        # ones take a seed and a path count
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run, seed=None, paths=None)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if monte_carlo:
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--paths", type=int, default=None)
        return sp

    config_command("fig1", run_fig1, "optimal policies in four churn settings")
    fig2 = config_command("fig2", run_fig2, "memoryless-policy performance gap", True)
    fig2.add_argument("--axis", choices=list(AXES), default="a1_amplitude")
    config_command("sensitivity", run_sensitivity, "delay-sensitivity table")
    config_command("costate", run_costate, "export the costate solution")
    config_command("evaluate", run_evaluate, "MC value of the optimal policy", True)
    config_command("approx", run_approx, "regularization convergence table", True)
    fc = sub.add_parser("feedback-check", help="invariant-measure condition")
    fc.add_argument("--a0", type=float, required=True)
    fc.add_argument("--a1", type=float, required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "feedback-check":
            sys.stdout.write(run_feedback_check(args.a0, args.a1))
            return 0
        if args.out != "-":
            _check_out(args.out)
        cfg = merged_config(
            args.config, {"seed": args.seed, "n_paths": args.paths, "dt": args.dt}
        )
        # fig2's runner also takes its --axis
        out = args.run(cfg, args.axis) if "axis" in args else args.run(cfg)
        _write(args.out, out)
        return 0
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
