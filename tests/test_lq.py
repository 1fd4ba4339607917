import numpy as np
import pytest

from goodwill.hilbert import (
    ConstantKernel,
    DomainError,
    ExponentialKernel,
    ProfileX,
    SampledKernel,
    SegmentGrid,
    ZeroKernel,
    kernel_eval,
)
from goodwill.lifting import lift_M
from goodwill.lq import (
    memoryless_policy,
    optimal_policy_lq,
    sensitivity_dV_dr,
    solve_costate,
    trajectory_mean,
    trajectory_variance,
    value_lq,
)
from goodwill.sdde import (
    BlowupError,
    ConfigurationError,
    HistoryPair,
    LinearReward,
    ObjectiveSpec,
    OpenLoop,
    QuadraticCost,
    evaluate_policy,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0,
        a1=ZeroKernel(),
        b0=1.0,
        b1=ZeroKernel(),
        sigma=0.5,
        r=0.5,
        T=1.0,
    )
    base.update(kw)
    from goodwill.sdde import ModelParams

    return ModelParams(**base)


# --- costate ------------------------------------------------------------------


def test_costate_closed_form_without_state_delay():
    p = make_params(a0=-0.8)
    cs = solve_costate(p, 1.5, 0.5, 1e-3)
    expect = 1.5 * np.exp((1.0 - cs.t) * -0.8)
    assert np.max(np.abs(cs.w0 - expect)) < 1e-6


def test_costate_constant_when_a0_zero():
    p = make_params(a0=0.0)
    cs = solve_costate(p, 2.0, 0.5, 1e-2)
    np.testing.assert_array_equal(cs.w0, np.full_like(cs.t, 2.0))


def test_costate_c_elementary_integral():
    # c(0) = int_0^1 e^{-2(1-s)}/2 ds = (1 - e^-2)/4
    p = make_params(a0=-1.0, b0=1.0)
    cs = solve_costate(p, 1.0, 0.5, 1e-4)
    assert cs.c[0] == pytest.approx((1 - np.exp(-2)) / 4, abs=1e-7)


def test_costate_boundary_and_monotonicity():
    p = make_params(a1=ExponentialKernel(-3.0, 0.2), b1=ExponentialKernel(2.0, 0.2))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    assert cs.w0[-1] == 1.0  # w0(T) = gamma exactly
    assert cs.c[-1] == 0.0
    assert np.all(cs.c >= 0)
    assert np.all(np.diff(cs.c) <= 1e-15)


def test_costate_rejects_bad_config():
    p = make_params()
    with pytest.raises(ConfigurationError):
        solve_costate(p, 1.0, -0.5, 1e-3)
    with pytest.raises(ConfigurationError):
        solve_costate(p, 1.0, 0.5, 0.3)  # does not divide r


def test_costate_richardson_ratio():
    p = make_params(a1=ExponentialKernel(-2.0, 0.25))
    w = {dt: solve_costate(p, 1.0, 0.5, dt).w0[0] for dt in (2e-3, 1e-3, 5e-4)}
    ratio = (w[2e-3] - w[1e-3]) / (w[1e-3] - w[5e-4])
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize(
    "a1, b1",
    [
        (ExponentialKernel(1.2, 1 / 6), ExponentialKernel(2.0, 0.5)),
        (ConstantKernel(0.3), ConstantKernel(0.4)),
    ],
)
def test_costate_recursion_matches_window_sum(a1, b1):
    # 1e5 steps of the O(1) delay-sum recursion against the full-window
    # quadrature of the same node values (a sampled kernel on m+1 nodes)
    dt, r = 1e-3, 0.5
    grid = SegmentGrid(r, round(r / dt) + 1)

    def sampled(k):
        return SampledKernel(kernel_eval(k, grid.nodes, grid.r))

    common = dict(a0=-0.2, r=r, T=100.0)
    rec = solve_costate(make_params(a1=a1, b1=b1, **common), 1.0, 0.5, dt)
    win = solve_costate(
        make_params(a1=sampled(a1), b1=sampled(b1), **common), 1.0, 0.5, dt
    )
    for name in ("w0", "bw", "c"):
        got, want = getattr(rec, name), getattr(win, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_sampled_kernels_need_no_matching_step():
    # 201-node kernels under a 1e-3 step (a 501-lag window): a sampled kernel
    # is a function of the lag, read off its own nodes on [-r, 0]
    r, dt = 0.5, 1e-3
    nodes = np.linspace(-r, 0.0, 201)
    a1, b1 = ExponentialKernel(-5.0, 1 / 6), ExponentialKernel(5.0, 0.5)
    sampled = [SampledKernel(kernel_eval(k, nodes, r)) for k in (a1, b1)]
    common = dict(a0=-0.5, r=r)
    p_exp = make_params(a1=a1, b1=b1, **common)
    p_smp = make_params(a1=sampled[0], b1=sampled[1], **common)
    exp, smp = (solve_costate(p, 1.0, 0.5, dt) for p in (p_exp, p_smp))
    for name in ("w0", "bw"):
        got, want = getattr(smp, name), getattr(exp, name)
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want)), name
    x = ProfileX(1.0, np.ones(201))
    s_exp, s_smp = (sensitivity_dV_dr(0.0, x, p, 1.0, 0.5, dt) for p in (p_exp, p_smp))
    assert s_smp == pytest.approx(s_exp, rel=1e-4)


def test_costate_overflow_raises_blowup():
    p = make_params(a1=ExponentialKernel(1e8, 1 / 6))
    with pytest.raises(BlowupError, match="costate w0 left the finite range"):
        solve_costate(p, 1.0, 0.5, 1e-3)


def test_costate_csv_layout():
    p = make_params()
    cs = solve_costate(p, 1.0, 0.5, 0.25)
    lines = cs.to_csv().strip().split("\n")
    assert lines[0] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 1 + 5


# --- policies -----------------------------------------------------------------


def test_policy_constant_without_memory_or_discount():
    p = make_params(a0=0.0, b0=2.0)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    z = optimal_policy_lq(cs, p).z
    np.testing.assert_allclose(z, np.full_like(z, 1.0 * 2.0 / (2 * 0.5)), atol=1e-12)


def test_policy_matches_constant_b1_closed_form():
    # a1 = 0, b1 = b constant: <B,w(t)> = w0(t)*(b0 + b*int e^{a0 xi} dxi)
    # with the integral cut at xi = t - T, since a unit of advertising at
    # time t only collects its delayed effect while t - xi <= T.
    a0, b0, bc, gamma, beta, r, T = -0.5, 1.0, 2.0, 1.0, 0.5, 0.5, 1.0
    p = make_params(a0=a0, b0=b0, b1=ConstantKernel(bc))
    cs = solve_costate(p, gamma, beta, 1e-4)
    z = optimal_policy_lq(cs, p).z
    lo = np.maximum(-r, cs.t - T)
    integral = (1.0 - np.exp(a0 * lo)) / a0
    expect = gamma * np.exp((T - cs.t) * a0) / (2 * beta) * (b0 + bc * integral)
    np.testing.assert_allclose(z, expect, atol=5e-4)


def test_policy_zero_for_negative_reward_slope():
    p = make_params()
    cs = solve_costate(p, -1.0, 0.5, 1e-3)
    assert np.all(optimal_policy_lq(cs, p).z == 0.0)


def test_memoryless_policy_values():
    p = make_params(a0=-0.5, b0=2.0)
    pol = memoryless_policy(p, 1.0, 0.5)
    t = np.array([0.0, 1.0])
    z = pol.sample(p, t)
    assert z[-1] == pytest.approx(1.0 * 2.0 / (2 * 0.5))
    assert z[0] == pytest.approx(2.0 * np.exp(-0.5))


def test_memoryless_coincides_with_optimal_without_delay():
    p = make_params(a0=-0.5)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    z_opt = optimal_policy_lq(cs, p).z
    z_mem = memoryless_policy(p, 1.0, 0.5).sample(p, cs.t)
    np.testing.assert_allclose(z_opt, z_mem, atol=1e-8)


# --- value function -----------------------------------------------------------


def test_value_terminal_reduces_to_reward():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=ConstantKernel(-1.0), b1=ConstantKernel(1.0))
    cs = solve_costate(p, 1.5, 0.5, 1e-3)
    x = ProfileX(2.0, np.random.default_rng(0).uniform(0, 1, 101))
    assert value_lq(1.0, x, cs, grid) == pytest.approx(1.5 * 2.0, abs=1e-9)


def test_value_affine_in_state():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=ExponentialKernel(-2.0, 0.2))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    rng = np.random.default_rng(1)
    xa = ProfileX(1.0, rng.uniform(0, 1, 101))
    xb = ProfileX(0.5, rng.uniform(0, 1, 101))
    lam = 0.3
    mix = ProfileX(
        lam * xa.x0 + (1 - lam) * xb.x0, lam * xa.x1 + (1 - lam) * xb.x1
    )
    t = 0.4
    v_mix = value_lq(t, mix, cs, grid)
    expect = lam * value_lq(t, xa, cs, grid) + (1 - lam) * value_lq(t, xb, cs, grid)
    assert v_mix == pytest.approx(expect, rel=1e-10)


def test_value_domain_error():
    grid = SegmentGrid(0.5, 11)
    p = make_params()
    cs = solve_costate(p, 1.0, 0.5, 1e-2)
    with pytest.raises(DomainError):
        value_lq(1.5, ProfileX(1.0, np.zeros(11)), cs, grid)


def test_value_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(
        a0=-0.5,
        a1=ExponentialKernel(-5.0, 1 / 6),
        b1=ExponentialKernel(5.0, 0.5),
    )
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    hist = HistoryPair(grid=grid, x0=10.0, x1=x1, delta=np.zeros(201))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    est = evaluate_policy(p, hist, pol, obj, 1e-3, 4000, 21)
    xbar = lift_M(10.0, x1, np.zeros(201), p, grid)
    v = value_lq(0.0, xbar, cs, grid)
    assert abs(est.mean - v) <= 3 * est.stderr + 5e-3


def test_first_order_optimality_probe():
    grid = SegmentGrid(0.5, 201)
    p = make_params(a1=ExponentialKernel(-3.0, 0.2), b1=ExponentialKernel(3.0, 0.2))
    x1 = 5.0 * np.exp(grid.nodes)
    hist = HistoryPair(grid=grid, x0=5.0, x1=x1, delta=np.zeros(201))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    best = evaluate_policy(p, hist, pol, obj, 1e-3, 1000, 9)
    bump = 0.2 * np.exp(-((cs.t - 0.5) ** 2) / 0.02)
    worse = evaluate_policy(
        p, hist, OpenLoop(t=cs.t, z=pol.z + bump), obj, 1e-3, 1000, 9
    )
    assert best.mean >= worse.mean - 3 * worse.stderr


# --- trajectory statistics ----------------------------------------------------


def test_trajectory_mean_at_zero_and_no_delay():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.7)
    y0 = ProfileX(2.0, np.zeros(101))
    t_grid = np.linspace(0, 1, 5)
    pol = OpenLoop(t=t_grid, z=np.zeros(5))
    assert trajectory_mean(0.0, y0, pol, p, grid, 1e-3) == 2.0
    got = trajectory_mean(0.8, y0, pol, p, grid, 1e-3)
    assert got == pytest.approx(2.0 * np.exp(-0.7 * 0.8), abs=1e-6)


def test_trajectory_mean_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(
        a0=-0.5,
        a1=ExponentialKernel(-2.0, 1 / 6),
        b1=ExponentialKernel(2.0, 1 / 6),
        sigma=0.5,
    )
    x1 = 3.0 * np.exp(-np.abs(grid.nodes))
    delta = 0.5 * np.ones(201)
    hist = HistoryPair(grid=grid, x0=3.0, x1=x1, delta=delta)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    ens = simulate_paths(p, hist, pol, 1e-3, 4000, 13)
    mc_mean = ens.y[:, -1].mean()
    mc_se = ens.y[:, -1].std(ddof=1) / np.sqrt(ens.n_paths)

    xbar = lift_M(3.0, x1, delta, p, grid)
    mean = trajectory_mean(1.0, xbar, pol, p, grid, 1e-3)
    assert abs(mean - mc_mean) <= 3 * mc_se


def test_trajectory_mean_clips_like_simulation():
    # z = 5 above u_max = 1: the exact mean must use the clipped control
    from goodwill import cli

    cfg = dict(cli.load_defaults(), u_max=1.0)
    grid = SegmentGrid(cfg["r"], cfg["n_nodes"])
    hist = cli.build_history(cfg, grid)
    p = cli.build_params(cfg)
    t = 1e-3 * np.arange(1001)
    pol = OpenLoop(t=t, z=np.full_like(t, 5.0))
    ens = simulate_paths(p, hist, pol, 1e-3, 2000, 7)
    assert ens.clip_count > 0
    yT = ens.y[:, -1]
    se = yT.std(ddof=1) / np.sqrt(len(yT))
    xbar = lift_M(hist.x0, hist.x1, hist.delta, p, grid)
    mean = trajectory_mean(p.T, xbar, pol, p, grid, 1e-3)
    assert abs(mean - yT.mean()) <= 6 * se + 3e-3 * abs(mean)


def test_trajectory_variance_closed_form():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.8, sigma=0.4)
    assert trajectory_variance(0.0, p, grid, 1e-3) == 0.0
    t = 0.9
    got = trajectory_variance(t, p, grid, 1e-3)
    expect = 0.4**2 * (np.exp(2 * -0.8 * t) - 1) / (2 * -0.8)
    assert got == pytest.approx(expect, abs=1e-6)


def test_trajectory_variance_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(a0=-0.5, a1=ExponentialKernel(-2.0, 1 / 6), sigma=0.5)
    x1 = np.ones(201)
    hist = HistoryPair(grid=grid, x0=1.0, x1=x1, delta=np.zeros(201))
    t_grid = np.linspace(0, 1, 3)
    pol = OpenLoop(t=t_grid, z=np.zeros(3))
    ens = simulate_paths(p, hist, pol, 1e-3, 4000, 17)
    sample_var = ens.y[:, -1].var(ddof=1)
    # stderr of a Gaussian sample variance: var * sqrt(2/(n-1))
    se = sample_var * np.sqrt(2 / (ens.n_paths - 1))
    got = trajectory_variance(1.0, p, grid, 1e-3)
    assert abs(got - sample_var) <= 3 * se


# --- delay sensitivity --------------------------------------------------------


def _value_at_r(r, t, b1, a1, gamma=1.0, beta=0.5):
    p = make_params(a0=-0.5, a1=a1, b1=b1, r=r)
    grid = SegmentGrid(r, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    cs = solve_costate(p, gamma, beta, 1e-3)
    return value_lq(t, ProfileX(10.0, x1), cs, grid)


def test_sensitivity_reduced_formula_without_kernels():
    # b1 = a1 = 0: only the <w(t), x> boundary term survives, which reads
    # the costate r ahead of t
    p = make_params(a0=-0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    x = ProfileX(10.0, x1)
    t = 0.2
    got = sensitivity_dV_dr(t, x, p, 1.0, 0.5, 1e-3)
    expect = 1.0 * np.exp(-0.5 * (1.0 - t - 0.5)) * x1[0]
    assert got == pytest.approx(expect, rel=1e-9)


def test_sensitivity_vanishes_past_horizon():
    p = make_params(a0=-0.5, b1=ConstantKernel(1.0))
    grid = SegmentGrid(0.5, 201)
    x = ProfileX(1.0, np.exp(grid.nodes))
    assert sensitivity_dV_dr(0.8, x, p, 1.0, 0.5, 1e-3) == 0.0


# t is kept below T - r: at t + r = T the value has a kink in r and a
# centered difference averages the two one-sided slopes
@pytest.mark.parametrize("t", [0.0, 0.2, 0.4])
def test_sensitivity_closed_form_against_finite_difference(t):
    b1 = ConstantKernel(2.0)
    p = make_params(a0=-0.5, b1=b1, r=0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    got = sensitivity_dV_dr(t, ProfileX(10.0, x1), p, 1.0, 0.5, 1e-3)
    h = 0.005
    fd = (
        _value_at_r(0.5 + h, t, b1, ZeroKernel())
        - _value_at_r(0.5 - h, t, b1, ZeroKernel())
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-3 * (1 + abs(got)) + 2e-3)


def test_sensitivity_quadrature_route_against_finite_difference():
    b1 = ExponentialKernel(3.0, 0.4)
    p = make_params(a0=-0.5, b1=b1, r=0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    t = 0.1
    got = sensitivity_dV_dr(t, ProfileX(10.0, x1), p, 1.0, 0.5, 1e-3)
    h = 0.005
    fd = (
        _value_at_r(0.5 + h, t, b1, ZeroKernel())
        - _value_at_r(0.5 - h, t, b1, ZeroKernel())
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-3 * (1 + abs(got)) + 2e-3)


def test_sensitivity_domain_error():
    p = make_params()
    with pytest.raises(DomainError):
        sensitivity_dV_dr(2.0, ProfileX(1.0, np.zeros(201)), p, 1.0, 0.5, 1e-3)
