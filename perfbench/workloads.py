"""The benchmark's workloads: inputs, one timed operation, output checks.

Each workload builds its inputs from the workload seed (`__init__`, part
of set-up), runs one operation per `op(i)` call (timed by the caller),
and checks the collected outputs afterwards (`check`, untimed).

Monte Carlo outputs are checked against exact values computed from the
lifting (`lq.trajectory_mean` or the point-delay ODE), never against
stored Monte Carlo numbers, so the checks hold for any RNG stream. The
allowed distance is K_SE reported standard errors plus a stated
discretization allowance: the Euler-Maruyama simulation and the lifted
upwind scheme are not the same discretization as the exact route.
Deterministic outputs are compared with `reference.json`.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from goodwill import approximation, cli, lifting, lq, sdde, state_delay
from goodwill.hilbert import SegmentGrid

REFERENCE = Path(__file__).with_name("reference.json")

K_SE = 6.0  # allowed multiple of the reported Monte Carlo standard error
# Allowances between the simulated and the exact discretization, about
# three times the largest gap measured with sigma = 0 at dt = 1e-3
# (0.09 % for sdde, 0.53 % for the lifted scheme, 3.6e-4 on the gap).
MC_REL_ALLOWANCE = 3e-3
GAP_ABS_ALLOWANCE = 1.5e-3
LIFTED_REL_ALLOWANCE = 1.5e-2
REF_RTOL = 1e-9  # deterministic outputs against reference.json
EXACT_DT = 2.5e-4  # step of the exact e1 delay-ODE solve used by checks

# Indices at which long deterministic arrays are compared with the reference.
SAMPLES = 11


def _sample(a) -> list[float]:
    a = np.asarray(a, dtype=float)
    idx = np.linspace(0, len(a) - 1, SAMPLES).round().astype(int)
    return [float(v) for v in a[idx]]


def op_seed(seed: int, i: int) -> int:
    """Program seed of operation i, distinct per operation."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    name = ""
    # size -> instance attributes; "full" is what the benchmark measures,
    # "tiny" is what the harness self-test runs
    sizes: dict[str, dict] = {}
    precision_target = 0.0  # target standard error for time_to_precision_rel
    work: int | None = None  # simulated steps per operation, for steps_per_s
    # bindings (module.name) the traced run must see called; several are
    # names imported from another module, which a trace of the defining
    # module alone would miss
    bindings: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        for k, v in self.sizes[size].items():
            setattr(self, k, v)
        self.cfg = cli.load_defaults()
        self.gamma, self.beta = self.cfg["gamma"], self.cfg["beta"]
        self.dt = self.cfg["dt"]
        self.grid = SegmentGrid(self.cfg["r"], self.cfg["n_nodes"])
        self.history = cli.build_history(self.cfg, self.grid)
        self.objective = cli.build_objective(self.cfg)

    def config(self) -> dict:
        return {"workload": self.name, "size": self.size, "seed": self.seed,
                **self.sizes[self.size], "defaults": self.cfg}

    def params(self, a1_amp: float, b1_amp: float) -> sdde.ModelParams:
        return cli.build_params(self.cfg, a1_amp=a1_amp, b1_amp=b1_amp)

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def precision_se(self, out: dict) -> float | None:
        """Standard error that time_to_precision_rel scales; None when exact."""
        return None

    def check(self, out: dict) -> list[str]:
        """Problems with one operation's outputs; empty when correct."""
        raise NotImplementedError

    # --- shared pieces -------------------------------------------------------

    def crn_pair(self, params, n_paths: int, seed: int) -> dict:
        """Optimal vs memoryless policy on common random numbers (fig2)."""
        cs = lq.solve_costate(params, self.gamma, self.beta, self.dt)
        zstar = lq.optimal_policy_lq(cs, params)
        zmem = lq.memoryless_policy(params, self.gamma, self.beta)
        v_opt = sdde.evaluate_policy(
            params, self.history, zstar, self.objective, self.dt, n_paths, seed)
        v_mem = sdde.evaluate_policy(
            params, self.history, zmem, self.objective, self.dt, n_paths, seed)
        gap = sdde.relative_gap(v_opt, v_mem)
        return {"v_opt": v_opt.mean, "se_opt": v_opt.stderr,
                "v_mem": v_mem.mean, "se_mem": v_mem.stderr,
                "gap": gap.gap, "gap_se": gap.stderr,
                "w0": _sample(cs.w0), "c": _sample(cs.c),
                "z_star": _sample(zstar.z)}

    def exact_objective(self, params, policy) -> float:
        """gamma E y(T) from the lifting minus the estimator's cost sum."""
        xbar = lifting.lift_M(self.history.x0, self.history.x1,
                              self.history.delta, params, self.grid)
        mean = lq.trajectory_mean(params.T, xbar, policy, params, self.grid, EXACT_DT)
        t = self.dt * np.arange(round(params.T / self.dt) + 1)
        z = np.clip(policy.sample(params, t), params.u_min, params.u_max)
        return self.gamma * mean - self.beta * float(np.sum(z[:-1] ** 2)) * self.dt

    @functools.cache
    def exact_crn_pair(self, params) -> tuple[float, float, float]:
        """Exact objectives of both policies and the exact relative gap."""
        cs = lq.solve_costate(params, self.gamma, self.beta, self.dt)
        j_opt = self.exact_objective(params, lq.optimal_policy_lq(cs, params))
        j_mem = self.exact_objective(
            params, lq.memoryless_policy(params, self.gamma, self.beta))
        return j_opt, j_mem, (j_opt - j_mem) / j_opt

    def check_crn_pair(self, params, out: dict, tag: str) -> list[str]:
        j_opt, j_mem, gap = self.exact_crn_pair(params)
        bad = []
        for key, se, exact in (("v_opt", "se_opt", j_opt), ("v_mem", "se_mem", j_mem)):
            tol = K_SE * out[se] + MC_REL_ALLOWANCE * abs(exact)
            if not abs(out[key] - exact) <= tol:
                bad.append(f"{tag} {key}={out[key]:.6g} exact={exact:.6g} tol={tol:.2g}")
        tol = K_SE * out["gap_se"] + GAP_ABS_ALLOWANCE
        if not abs(out["gap"] - gap) <= tol:
            bad.append(f"{tag} gap={out['gap']:.6g} exact={gap:.6g} tol={tol:.2g}")
        return bad


def compare_reference(got: dict, ref: dict, tag: str) -> list[str]:
    bad = []
    for key, want in ref.items():
        g = np.asarray(got[key], dtype=float)
        w = np.asarray(want, dtype=float)
        atol = REF_RTOL * max(1.0, float(np.max(np.abs(w))))
        if g.shape != w.shape or not np.allclose(g, w, rtol=REF_RTOL, atol=atol):
            bad.append(f"{tag} {key} differs from reference.json")
    return bad


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# --- the four workloads -----------------------------------------------------


class ChurnMC(Workload):
    """fig2/evaluate: optimal vs memoryless policy on CRN, both churns on."""

    name = "churn_mc"
    # 6144 paths: y_pad (74 MB) plus noise (49 MB) exceed the 105 MB L3
    sizes = {"full": {"n_paths": 6144}, "tiny": {"n_paths": 64}}
    precision_target = 1e-3  # standard error of the relative churn gap
    bindings = ("sdde.evaluate_policy", "sdde.simulate_paths", "sdde.path_normals",
                "sdde.objective_estimate", "sdde.relative_gap", "sdde.kernel_eval",
                "lq.solve_costate", "lq.kernel_eval", "lq.optimal_policy_lq",
                "lq.memoryless_policy")

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.both = self.params(self.cfg["a1_amp"], self.cfg["b1_amp"])
        self.work = 2 * self.n_paths * round(self.both.T / self.dt)

    def op(self, i):
        return self.crn_pair(self.both, self.n_paths, op_seed(self.seed, i))

    def precision_se(self, out):
        return out["gap_se"]

    def check(self, out):
        ref = load_reference()["churn_mc"]
        return (compare_reference(out, ref, "costate")
                + self.check_crn_pair(self.both, out, "crn"))


class ExactFine(Workload):
    """fig1/costate/sensitivity and the exact gap, without Monte Carlo."""

    name = "exact_fine"
    sizes = {"full": {"costate_dt": 5e-5, "traj_dt": 2.5e-4},
             "tiny": {"costate_dt": 1e-3, "traj_dt": 5e-3}}
    A1_AMPS = (-1.0, -2.0, -3.0, -4.0, -5.0)
    B1_AMPS = (1.0, 2.0, 3.0, 4.0, 5.0)
    R_GRID = tuple(round(0.25 + 0.05 * i, 10) for i in range(10))  # shipped r-grid
    bindings = ("lq.solve_costate", "lq.kernel_eval", "lifting.lift_M",
                "lifting.kernel_eval", "lq.value_lq", "lq.optimal_policy_lq",
                "lq.memoryless_policy", "lq.trajectory_mean", "lq.trajectory_variance",
                "lq.solve_delay_ode", "lq.sensitivity_dV_dr")

    def choice(self, i: int) -> tuple[float, float]:
        """The seed picks one amplitude on each churn axis per operation."""
        rng = np.random.default_rng([self.seed, i])
        return (self.A1_AMPS[rng.integers(len(self.A1_AMPS))],
                self.B1_AMPS[rng.integers(len(self.B1_AMPS))])

    def exact_setting(self, a1_amp: float, b1_amp: float) -> dict:
        params = self.params(a1_amp, b1_amp)
        cs = lq.solve_costate(params, self.gamma, self.beta, self.costate_dt)
        h = self.history
        xbar = lifting.lift_M(h.x0, h.x1, h.delta, params, self.grid)
        value = lq.value_lq(0.0, xbar, cs, self.grid)
        zstar = lq.optimal_policy_lq(cs, params)
        zmem = lq.memoryless_policy(params, self.gamma, self.beta)
        T = params.T
        m_opt = lq.trajectory_mean(T, xbar, zstar, params, self.grid, self.traj_dt)
        m_mem = lq.trajectory_mean(T, xbar, zmem, params, self.grid, self.traj_dt)
        var = lq.trajectory_variance(T, params, self.grid, self.traj_dt)
        # exact churn gap: gamma E y(T) minus the cost integral, per policy
        j_opt, j_mem = (
            self.gamma * m - self.beta * float(np.trapezoid(z.sample(params, cs.t) ** 2, cs.t))
            for m, z in ((m_opt, zstar), (m_mem, zmem))
        )
        return {"w0": _sample(cs.w0), "c": _sample(cs.c), "z_star": _sample(zstar.z),
                "lift_M": _sample(xbar.x1), "value": value,
                "mean_opt": m_opt, "mean_mem": m_mem, "variance": var,
                "gap": (j_opt - j_mem) / j_opt}

    def sensitivity(self, r: float, b1_amp: float) -> float:
        cfg = dict(self.cfg, a1_amp=0.0, b1_amp=b1_amp, dt=self.costate_dt)
        return cli._sensitivity_at(cfg, r, 0.0)

    def op(self, i):
        a, b = self.choice(i)
        b_axis = self.exact_setting(0.0, b)
        # dV/dr over the r-grid at the chosen b1 amplitude (a1 = 0, as in the
        # sensitivity subcommand); at r = 0.5 it re-solves the b1 costate
        b_axis["sensitivity"] = [self.sensitivity(r, b) for r in self.R_GRID]
        return {"a1": self.exact_setting(a, 0.0), "b1": b_axis, "choice": [a, b]}

    def check(self, out):
        ref = load_reference()["exact_fine"][self.size]
        a, b = out["choice"]
        return (compare_reference(out["a1"], ref[f"a1={a:g}"], f"a1={a:g}")
                + compare_reference(out["b1"], ref[f"b1={b:g}"], f"b1={b:g}"))


class FeedbackB1(Workload):
    """Closed-loop point-lag feedback plus a b1-only CRN pair (no a1 window)."""

    name = "feedback_b1"
    sizes = {"full": {"n_paths": 6144}, "tiny": {"n_paths": 64}}
    precision_target = 1e-3
    A1_POINT = -1.0  # the point lag a1 y(t - r)
    # gradient d0v = P0 - LAM * y keeps b0 d0v / (2 beta) inside [0, u_max]
    # for every plausible state, so the closed loop stays linear
    P0, LAM = 20.0, 0.5
    bindings = ("state_delay.simulate_feedback", "state_delay.simulate_paths",
                "state_delay.feedback_quadratic", "sdde.evaluate_policy", "sdde.simulate_paths", "sdde.path_normals",
                "sdde.objective_estimate", "sdde.relative_gap", "sdde.kernel_eval",
                "lq.solve_costate", "lq.kernel_eval", "lq.optimal_policy_lq",
                "lq.memoryless_policy")

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.no_kernels = self.params(0.0, 0.0)
        self.b1_only = self.params(0.0, self.cfg["b1_amp"])
        c = self.cfg
        self.spec = state_delay.HamiltonianSpec(
            "quadratic", c["beta"], c["b0"], c["sigma"], c["u_max"])
        self.policy = state_delay.quadratic_feedback_policy(
            self.spec, lambda t, y: self.P0 - self.LAM * y)
        self.work = 3 * self.n_paths * round(self.no_kernels.T / self.dt)

    def op(self, i):
        s = op_seed(self.seed, i)
        ens = state_delay.simulate_feedback(
            self.no_kernels, self.A1_POINT, self.history, self.policy,
            self.dt, self.n_paths, s)
        yT = ens.y[:, -1]
        out = self.crn_pair(self.b1_only, self.n_paths, s)
        out.update(fb_mean=float(yT.mean()),
                   fb_se=float(yT.std(ddof=1) / np.sqrt(len(yT))),
                   fb_clips=ens.clip_count)
        return out

    def precision_se(self, out):
        return out["gap_se"]

    @functools.cached_property
    def feedback_exact_mean(self) -> float:
        """E y(T) of the linear closed loop from the point-delay ODE.

        With z = k0 - k1 y the mean solves m' = (a0 - b0 k1) m
        + a1 m(t - r) + b0 k0, i.e. the homogeneous solution from the
        history plus b0 k0 times the integral of the fundamental one.
        """
        p, c = self.no_kernels, self.cfg
        k0 = p.b0 * self.P0 / (2 * c["beta"])
        k1 = p.b0 * self.LAM / (2 * c["beta"])
        a0 = p.a0 - p.b0 * k1
        h = self.history

        def solve(x0, x1):
            prob = lifting.DelayODEProblem(
                a0, lifting.PointDelay(self.A1_POINT), x0, x1, self.grid, p.T)
            return lifting.solve_delay_ode(prob, EXACT_DT)

        _, hom = solve(h.x0, h.x1)
        times, fund = solve(1.0, np.zeros(self.grid.n_nodes))
        return float(hom[-1]) + p.b0 * k0 * float(np.trapezoid(fund, times))

    def check(self, out):
        bad = self.check_crn_pair(self.b1_only, out, "crn")
        exact = self.feedback_exact_mean
        tol = K_SE * out["fb_se"] + MC_REL_ALLOWANCE * abs(exact)
        if out["fb_clips"] != 0:
            bad.append(f"feedback clipped {out['fb_clips']} controls")
        elif not abs(out["fb_mean"] - exact) <= tol:
            bad.append(f"feedback E y(T)={out['fb_mean']:.6g} exact={exact:.6g}")
        return bad


class ApproxLifted(Workload):
    """The approx subcommand: convergence_study at the shipped eps lists."""

    name = "approx_lifted"
    # 256 x 201 doubles = 0.4 MB per lifted array, inside the 4 MB L2
    sizes = {"full": {"n_paths": 256}, "tiny": {"n_paths": 16}}
    precision_target = 1e-2  # standard error of J_eps at the finest eps2
    EPS1 = (0.0, 0.1)
    EPS2 = (0.4, 0.2, 0.1, 0.05)
    bindings = ("approximation.convergence_study",
                "approximation.simulate_lifted_perturbed", "approximation.path_normals",
                "approximation.kernel_eval", "approximation.mollify_phi",
                "approximation.mollify_h", "lq.solve_costate", "lifting.lift_M",
                "lq.value_lq")

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.both = self.params(self.cfg["a1_amp"], self.cfg["b1_amp"])
        # the approx subcommand steps at min(dt, grid spacing)
        self.lifted_dt = min(self.dt, self.grid.spacing)
        steps = round(self.both.T / self.lifted_dt)
        self.work = len(self.EPS1) * self.n_paths * self.grid.n_nodes * steps

    def op(self, i):
        p, h = self.both, self.history
        cs = lq.solve_costate(p, self.gamma, self.beta, self.dt)
        policy = lq.optimal_policy_lq(cs, p)
        xbar = lifting.lift_M(h.x0, h.x1, h.delta, p, self.grid)
        baseline = lq.value_lq(0.0, xbar, cs, self.grid)
        rows = approximation.convergence_study(
            p, xbar, policy, self.gamma, self.beta, baseline, self.EPS1, self.EPS2,
            self.grid, self.lifted_dt, self.n_paths, op_seed(self.seed, i))
        return {"baseline": baseline,
                "rows": [[r.eps1, r.eps2, r.j_eps, r.stderr, r.gap] for r in rows]}

    @functools.cached_property
    def exact(self) -> tuple[float, float, float]:
        """Exact objective, mean and standard deviation of y(T) under z*."""
        p = self.both
        cs = lq.solve_costate(p, self.gamma, self.beta, self.dt)
        policy = lq.optimal_policy_lq(cs, p)
        xbar = lifting.lift_M(self.history.x0, self.history.x1,
                              self.history.delta, p, self.grid)
        mean_y = lq.trajectory_mean(p.T, xbar, policy, p, self.grid, EXACT_DT)
        var_y = lq.trajectory_variance(p.T, p, self.grid, EXACT_DT)
        return self.exact_objective(p, policy), mean_y, float(np.sqrt(var_y))

    def check(self, out):
        """Rows whose reward truncation 1/eps2 lies far above every terminal
        state are compared with the exact objective; the others only for
        finiteness and gap = |J - baseline|."""
        exact, mean_y, sd_y = self.exact
        bad = []
        for eps1, eps2, j, se, gap in out["rows"]:
            tag = f"eps1={eps1:g} eps2={eps2:g}"
            if not (np.isfinite(j) and np.isfinite(se)):
                bad.append(f"{tag} not finite")
                continue
            if abs(gap - abs(j - out["baseline"])) > 1e-12 * max(1.0, abs(j)):
                bad.append(f"{tag} gap column inconsistent")
            if 1.0 / eps2 - eps2 > mean_y + 12.0 * sd_y:
                tol = K_SE * se + LIFTED_REL_ALLOWANCE * abs(exact)
                if not abs(j - exact) <= tol:
                    bad.append(f"{tag} J={j:.6g} exact={exact:.6g} tol={tol:.2g}")
        return bad

    def precision_se(self, out) -> float:
        return out["rows"][len(self.EPS2) - 1][3]


WORKLOADS = {w.name: w for w in (ChurnMC, ExactFine, FeedbackB1, ApproxLifted)}
