"""End-to-end acceptance checks A1-A10.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured output of a failing run) and asserts the same condition.
"""

import math
import time

import numpy as np

from goodwill.approximation import (
    convergence_study,
    mollify_h,
    simulate_lifted_perturbed,
)
from goodwill.hilbert import (
    ExponentialKernel,
    PointDelay,
    ProfileX,
    SegmentGrid,
    inner_product,
)
from goodwill.lifting import lift_M
from goodwill.lq import (
    hamiltonian,
    hamiltonian_argmax,
    memoryless_policy,
    optimal_policy_lq,
    sensitivity_dV_dr,
    solve_costate,
    trajectory_mean,
    value_lq,
)
from goodwill.sdde import (
    HistoryPair,
    LinearReward,
    ModelParams,
    ObjectiveSpec,
    OpenLoop,
    QuadraticCost,
    evaluate_policy,
    relative_gap,
    simulate_paths,
)
from goodwill.state_delay import (
    HamiltonianSpec,
    feedback_bangbang,
    feedback_quadratic,
)

DEFAULTS = dict(
    a0=-0.5, b0=1.0, sigma=0.5, beta=0.5, gamma=1.0, T=1.0, r=0.5,
    delta_a=1 / 6, delta_b=0.5, a1_amp=-5.0, b1_amp=5.0, x0=10.0,
)


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def default_params(a1_amp=None, b1_amp=None, sigma=None):
    d = DEFAULTS
    a1_amp = d["a1_amp"] if a1_amp is None else a1_amp
    b1_amp = d["b1_amp"] if b1_amp is None else b1_amp
    return ModelParams(
        a0=d["a0"],
        a1=(ExponentialKernel(0.0, math.inf) if a1_amp == 0
            else ExponentialKernel(a1_amp, d["delta_a"])),
        b0=d["b0"],
        b1=(ExponentialKernel(0.0, math.inf) if b1_amp == 0
            else ExponentialKernel(b1_amp, d["delta_b"])),
        sigma=d["sigma"] if sigma is None else sigma,
        r=d["r"],
        T=d["T"],
    )


def default_history(grid):
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    return HistoryPair(grid=grid, x0=10.0, x1=x1, delta=np.zeros(grid.n_nodes))


def default_objective():
    return ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))


def test_a1_costate_closed_form():
    p = default_params(a1_amp=0.0)
    start = time.perf_counter()
    cs = solve_costate(p, 1.0, 0.5, 1e-4)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(cs.w0 - np.exp((1.0 - cs.t) * p.a0))))
    ok = err <= 1e-6 and elapsed < 1.0
    _report("A1 costate closed form", ok, f"max_err={err:.2e}, {elapsed:.2f}s")


def test_a2_value_consistency():
    start = time.perf_counter()
    p = default_params()
    grid = SegmentGrid(p.r, 201)
    hist = default_history(grid)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    est = evaluate_policy(p, hist, pol, default_objective(), 1e-3, 20000, 12345)
    xbar = lift_M(hist.x0, hist.x1, hist.delta, p, grid)
    v = value_lq(0.0, xbar, cs, grid)
    elapsed = time.perf_counter() - start
    diff = abs(est.mean - v)
    ok = (
        diff <= 3 * est.stderr
        and est.stderr < 0.01 * abs(v)
        and elapsed < 60.0
    )
    _report(
        "A2 value consistency",
        ok,
        f"|MC-analytic|={diff:.2e}, 3se={3 * est.stderr:.2e}, "
        f"rel_se={est.stderr / abs(v):.2%}, {elapsed:.1f}s",
    )


def test_a3_lifting_equivalence():
    # deterministic branch: lifted FD evolution vs direct SDDE solve;
    # both schemes are first order, so the uniform 5e-3 target needs a
    # fine shared step
    grid = SegmentGrid(0.5, 801)
    dt = grid.spacing
    p0 = default_params(a1_amp=-2.0, b1_amp=2.0, sigma=0.0)
    hist = default_history(grid)
    t_full = dt * np.arange(round(1.0 / dt) + 1)
    z_fn = lambda t: 0.3 + 0.2 * t
    direct = simulate_paths(p0, hist, OpenLoop(t=t_full, z=z_fn(t_full)), dt, 1, 0)
    xbar = lift_M(hist.x0, hist.x1, hist.delta, p0, grid)

    max_err = 0.0
    for t_end in np.arange(0.1, 1.01, 0.1):
        steps = round(t_end / dt)
        ph = ModelParams(
            a0=p0.a0, a1=p0.a1, b0=p0.b0, b1=p0.b1, sigma=0.0, r=p0.r,
            T=steps * dt,
        )
        th = dt * np.arange(steps + 1)
        ens = simulate_lifted_perturbed(
            ph, xbar, OpenLoop(t=th, z=z_fn(th)), 0.0, grid, dt, 1, 0
        )
        max_err = max(max_err, abs(float(ens.y0[0]) - direct.y[0, steps]))

    # stochastic branch: MC mean of y(T) vs the first-moment solver
    p1 = default_params(a1_amp=-2.0, b1_amp=2.0)
    pol = memoryless_policy(p1, 1.0, 0.5)
    ens = simulate_paths(p1, hist, pol, 1e-3, 4000, 7)
    mc = ens.y[:, -1].mean()
    se = ens.y[:, -1].std(ddof=1) / np.sqrt(ens.n_paths)
    mean = trajectory_mean(1.0, xbar, pol, p1, grid, 1e-3)
    mean_ok = abs(mean - mc) <= 3 * se

    ok = max_err <= 5e-3 and mean_ok
    _report(
        "A3 lifting equivalence",
        ok,
        f"max|Y0-y|={max_err:.2e}, |mean-MC|={abs(mean - mc):.2e} vs 3se={3 * se:.2e}",
    )


def test_a4_variance_closed_form():
    p = default_params(a1_amp=0.0, b1_amp=0.0)
    grid = SegmentGrid(p.r, 51)
    hist = default_history(grid)
    t = np.linspace(0, 1, 3)
    ens = simulate_paths(p, hist, OpenLoop(t=t, z=np.zeros(3)), 1e-3, 20000, 99)
    sample_var = ens.y[:, -1].var(ddof=1)
    se = sample_var * np.sqrt(2 / (ens.n_paths - 1))
    target = p.sigma**2 * (np.exp(2 * p.a0 * p.T) - 1) / (2 * p.a0)
    diff = abs(sample_var - target)
    ok = diff <= 3 * se
    _report("A4 variance closed form", ok, f"|var-target|={diff:.2e}, 3se={3 * se:.2e}")


def test_a5_churn_gap():
    grid = SegmentGrid(0.5, 201)
    hist = default_history(grid)
    obj = default_objective()
    amplitudes = [0.0, 2.5, 5.0]
    gaps, errs = [], []
    for amp in amplitudes:
        p = default_params(a1_amp=0.0, b1_amp=amp)
        cs = solve_costate(p, 1.0, 0.5, 1e-3)
        v_opt = evaluate_policy(
            p, hist, optimal_policy_lq(cs, p), obj, 1e-3, 20000, 12345
        )
        v_mem = evaluate_policy(
            p, hist, memoryless_policy(p, 1.0, 0.5), obj, 1e-3, 20000, 12345
        )
        g = relative_gap(v_opt, v_mem)
        gaps.append(g.gap)
        errs.append(g.stderr)

    nonneg = all(g >= -3 * e for g, e in zip(gaps, errs))
    monotone = all(
        gaps[i + 1] >= gaps[i] - 3 * np.hypot(errs[i], errs[i + 1])
        for i in range(len(gaps) - 1)
    )
    strongest = gaps[-1] >= 0.05
    ok = nonneg and monotone and strongest
    _report(
        "A5 churn gap",
        ok,
        "gaps=" + ",".join(f"{g:.3f}" for g in gaps)
        + f"; strongest={gaps[-1]:.1%} (target >= 5%)",
    )


def test_a6_sensitivity_oracle():
    gamma, beta, dt = 1.0, 0.5, 1e-3
    worst = 0.0
    for i in range(10):
        r = round(0.25 + 0.05 * i, 10)
        grid = SegmentGrid(r, 201)
        x1 = 10.0 * np.exp(-np.abs(grid.nodes))
        x = ProfileX(10.0, x1)
        p = default_params(a1_amp=0.0)
        p = ModelParams(
            a0=p.a0, a1=ExponentialKernel(0.0, math.inf), b0=p.b0, b1=p.b1,
            sigma=p.sigma, r=r, T=p.T,
        )
        formula = sensitivity_dV_dr(0.0, x, p, gamma, beta, dt)

        h = r / 50.0
        vals = []
        for rr in (r + h, r - h):
            pp = ModelParams(
                a0=p.a0, a1=ExponentialKernel(0.0, math.inf), b0=p.b0, b1=p.b1, sigma=p.sigma,
                r=rr, T=p.T,
            )
            gg = SegmentGrid(rr, 201)
            cs = solve_costate(pp, gamma, beta, dt)
            xx = ProfileX(10.0, 10.0 * np.exp(-np.abs(gg.nodes)))
            vals.append(value_lq(0.0, xx, cs, gg))
        fd = (vals[0] - vals[1]) / (2 * h)
        worst = max(worst, abs(formula - fd) / (1.0 + abs(fd)))
    ok = worst <= 1e-3
    _report("A6 sensitivity oracle", ok, f"worst scaled diff={worst:.2e}")


def test_a7_feedback_argmax_oracle():
    rng = np.random.default_rng(2024)
    n_grid = 10_000
    failures = 0
    for _ in range(100):
        beta = rng.uniform(0.1, 2.0)
        b0 = rng.uniform(0.1, 2.0)
        R = rng.uniform(1.0, 20.0)
        spec_q = HamiltonianSpec("quadratic", beta, b0, 1.0, R)
        spec_l = HamiltonianSpec("linear", beta, b0, 1.0, R)
        zg = np.linspace(0.0, R, n_grid)
        res = R / (n_grid - 1)
        for d0v in rng.uniform(-3.0, 3.0, 3):
            z_grid = zg[np.argmax(b0 * zg * d0v - beta * zg**2)]
            if abs(feedback_quadratic(d0v, spec_q) - z_grid) > res + 1e-12:
                failures += 1
            if abs(d0v - beta / b0) > 10 * res:  # skip the switching point
                z_grid = zg[np.argmax(b0 * zg * d0v - beta * zg)]
                if abs(feedback_bangbang(d0v, spec_l) - z_grid) > res + 1e-12:
                    failures += 1
        # the shared pair lq.hamiltonian / hamiltonian_argmax over a random
        # [lo, hi] with lo > 0: p reaches below 0 and above 2 beta hi, so
        # both bounds bind in some draws
        lo = rng.uniform(0.01, 2.0)
        hi = lo + rng.uniform(0.1, 5.0)
        zb = np.linspace(lo, hi, n_grid)
        res_b = (hi - lo) / (n_grid - 1)
        for p in rng.uniform(-1.0, 4.0 * beta * hi, 3):
            for cost, h0, slope in (
                ("quadratic", beta * zb**2, abs(p) + 2 * beta * hi),
                ("linear", beta * zb, abs(p - beta)),
            ):
                f = p * zb - h0
                if cost == "linear" and abs(p - beta) <= 10 * res_b:
                    continue  # the switching point
                z = hamiltonian_argmax(p, beta, lo, hi, cost)
                sup = hamiltonian(p, beta, lo, hi, cost)
                best = f.max()
                tol = 1e-12 * (1.0 + abs(best))
                if abs(z - zb[np.argmax(f)]) > res_b + 1e-12:
                    failures += 1
                if not best - tol <= sup <= best + slope * res_b + tol:
                    failures += 1
    ok = failures == 0
    _report("A7 feedback argmax oracle", ok, f"failures={failures}/100 specs")


def test_a8_bangbang_brute_force():
    a0, b0, beta, gamma, R = -0.5, 1.0, 0.7, 1.0, 2.0
    n, dt, y0 = 6, 0.2, 1.0
    spec = HamiltonianSpec("linear", beta, b0, 1.0, R)

    def run(seq):
        y = y0
        for z in seq:
            y = y + dt * (a0 * y + b0 * z)
        return gamma * y - beta * dt * sum(seq)

    best = max(
        run([R if (m >> k) & 1 else 0.0 for k in range(n)])
        for m in range(2**n)
    )

    # discrete adjoint p_k = dJ/dy_k propagated backward from gamma
    p = np.empty(n + 1)
    p[n] = gamma
    for k in range(n - 1, -1, -1):
        p[k] = p[k + 1] * (1 + dt * a0)
    seq = [feedback_bangbang(p[k + 1], spec) for k in range(n)]
    diff = abs(run(seq) - best)
    ok = diff <= 1e-9
    _report("A8 bang-bang brute force", ok, f"|threshold-brute|={diff:.2e}")


def test_a9_property_suites():
    rng = np.random.default_rng(7)
    counts = {}

    # inner-product axioms
    fails = 0
    g = SegmentGrid(1.0, 31)
    for _ in range(120):
        vals = rng.uniform(-10, 10, (3, 32))
        x, y, z = (ProfileX(v[0], v[1:]) for v in vals)
        a, b = rng.uniform(-5, 5, 2)
        combo = ProfileX(a * x.x0 + b * y.x0, a * x.x1 + b * y.x1)
        lin = abs(
            inner_product(combo, z, g)
            - a * inner_product(x, z, g)
            - b * inner_product(y, z, g)
        )
        sym = abs(inner_product(x, y, g) - inner_product(y, x, g))
        if lin > 1e-9 * (1 + abs(a) + abs(b)) * 100 or sym > 0:
            fails += 1
    counts["inner_product"] = fails

    # pathwise monotone coupling and concavity (a1 >= 0 as a point lag)
    mono = conc = 0
    grid = SegmentGrid(0.5, 11)
    t = np.linspace(0, 1, 11)
    for i in range(100):
        a0 = -rng.uniform(0, 2)
        a1p = rng.uniform(0, 1)
        p = ModelParams(
            a0=a0, a1=PointDelay(a1p), b0=1.0, b1=ExponentialKernel(0.0, math.inf),
            sigma=rng.uniform(0, 0.5), r=0.5, T=1.0,
        )
        lo = rng.uniform(0, 1, 11)
        hi = lo + rng.uniform(0, 1, 11)
        za = rng.uniform(0, 2, 11)
        zb = rng.uniform(0, 2, 11)

        def terminal(x1, z):
            h = HistoryPair(grid=grid, x0=x1[-1], x1=x1, delta=np.zeros(11))
            ens = simulate_paths(
                p, h, OpenLoop(t=t, z=z), 0.1, 1, 1000 + i
            )
            return ens.y[0, -1]

        if terminal(lo, za) > terminal(hi, za) + 1e-9:
            mono += 1
        lam = rng.uniform(0, 1)
        mixed = terminal(lo, lam * za + (1 - lam) * zb)
        split = lam * terminal(lo, za) + (1 - lam) * terminal(lo, zb)
        if mixed < split - 1e-9:  # affine dynamics: equality up to rounding
            conc += 1
    counts["monotone_coupling"] = mono
    counts["concavity"] = conc

    # mollification sandwich and non-expansion
    fails = 0
    x = np.linspace(-3, 3, 61)
    for _ in range(100):
        eps = rng.uniform(0.05, 0.5)
        slope = rng.uniform(0.2, 2.0)
        h = lambda v: slope * np.abs(v)
        got = mollify_h(h, eps, x)
        if np.any(got < h(x) - 1e-9):  # convex h: mollified dominates
            fails += 1
        if np.max(np.abs(np.diff(got) / np.diff(x))) > slope + 1e-9:
            fails += 1
    counts["mollification"] = fails

    total = sum(counts.values())
    ok = total == 0
    _report("A9 property suites", ok, f"failures={counts}")


def test_a10_approximation_convergence():
    p = default_params()
    grid = SegmentGrid(p.r, 201)
    hist = default_history(grid)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    xbar = lift_M(hist.x0, hist.x1, hist.delta, p, grid)
    baseline = value_lq(0.0, xbar, cs, grid)

    dt = grid.spacing
    rows = convergence_study(
        p, xbar, pol, 1.0, 0.5, baseline,
        [0.0, 0.1], [0.4, 0.2, 0.1, 0.05], grid, dt, 4000, 31,
    )
    by_eps1 = {e1: [r for r in rows if r.eps1 == e1] for e1 in (0.0, 0.1)}

    monotone = all(
        seq[i + 1].gap <= seq[i].gap + 3 * np.hypot(seq[i].stderr, seq[i + 1].stderr)
        for seq in by_eps1.values()
        for i in range(len(seq) - 1)
    )
    eps1_free = all(
        abs(r0.j_eps - r1.j_eps) <= 3 * np.hypot(r0.stderr, r1.stderr)
        for r0, r1 in zip(by_eps1[0.0], by_eps1[0.1])
    )
    ok = monotone and eps1_free
    gaps = ",".join(f"{r.gap:.3g}" for r in by_eps1[0.0])
    _report("A10 approximation convergence", ok, f"gaps(eps1=0)={gaps}")
