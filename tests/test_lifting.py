import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import e1_trajectory

from goodwill import lifting
from goodwill.hilbert import (
    ConstantKernel,
    ExponentialKernel,
    ProfileX,
    SegmentGrid,
    inner_product,
    kernel_eval,
)
from goodwill.lifting import (
    DelayODEProblem,
    PointDelay,
    lift_M,
    solve_delay_ode,
)
from goodwill.sdde import (
    BlowupError,
    ConfigurationError,
    HistoryPair,
    ModelParams,
    OpenLoop,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0,
        a1=ConstantKernel(0.0),
        b0=1.0,
        b1=ConstantKernel(0.0),
        sigma=0.0,
        r=0.5,
        T=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


# --- structural map M ---------------------------------------------------------


def test_lift_zero_kernels():
    grid = SegmentGrid(0.5, 21)
    p = make_params()
    out = lift_M(3.0, np.ones(21), np.ones(21), p, grid)
    assert out.x0 == 3.0
    np.testing.assert_array_equal(out.x1, np.zeros(21))


def test_lift_constant_b1_unit_control():
    # m(xi) = int_{-r}^xi b dz = b*(xi + r) for v == 1
    grid = SegmentGrid(0.5, 101)
    p = make_params(b1=ConstantKernel(2.0))
    out = lift_M(0.0, np.zeros(101), np.ones(101), p, grid)
    np.testing.assert_allclose(out.x1, 2.0 * (grid.nodes + 0.5), atol=1e-12)


def test_lift_matches_fine_quadrature():
    grid = SegmentGrid(0.5, 201)
    p = make_params(
        a1=ExponentialKernel(-5.0, 1 / 6), b1=ExponentialKernel(5.0, 1 / 6)
    )
    x1 = 1.0 + np.sin(3 * grid.nodes)
    v = np.exp(grid.nodes)
    out = lift_M(1.0, x1, v, p, grid)

    fine = SegmentGrid(0.5, 1601)
    a1f = kernel_eval(p.a1, fine.nodes, fine.r)
    b1f = kernel_eval(p.b1, fine.nodes, fine.r)
    for i in (1, 50, 100, 200):
        xi = grid.nodes[i]
        zmask = fine.nodes <= xi + 1e-12
        z = fine.nodes[zmask]
        x1s = np.interp(z - xi, grid.nodes, x1)
        vs = np.interp(z - xi, grid.nodes, v)
        ref = np.trapezoid(a1f[zmask] * x1s + b1f[zmask] * vs, z)
        assert out.x1[i] == pytest.approx(ref, abs=5e-4)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-5, 5), st.floats(-5, 5))
def test_lift_linear_in_history_and_control(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 21)
    p = make_params(
        a1=ConstantKernel(rng.uniform(-2, 2)), b1=ConstantKernel(rng.uniform(0, 2))
    )
    x1a, x1b = rng.normal(size=(2, 21))
    va, vb = rng.normal(size=(2, 21))
    combo = lift_M(0.0, alpha * x1a + x1b, alpha * va + vb, p, grid)
    parta = lift_M(0.0, x1a, va, p, grid)
    partb = lift_M(0.0, x1b, vb, p, grid)
    np.testing.assert_allclose(
        combo.x1, alpha * parta.x1 + partb.x1, rtol=1e-9, atol=1e-9
    )


# --- delay ODE engine ---------------------------------------------------------


def test_delay_ode_no_delay_is_exponential(monkeypatch):
    # RK4 on a0 * phi: nothing to gather, so no lag stencil is built
    monkeypatch.setattr(lifting, "_lag_stencils", None)
    grid = SegmentGrid(0.5, 51)
    prob = DelayODEProblem(-1.3, ConstantKernel(0.0), 2.0,
                           np.zeros(51), grid, t_end=1.0)
    times, vals = solve_delay_ode(prob, 1e-2)
    np.testing.assert_allclose(vals, 2.0 * np.exp(-1.3 * times), atol=1e-8)


def test_point_delay_first_interval_closed_form():
    # u' = -u + 0.5*u(t-1), u==1 on [-1,0]: u(1) = e^-1 + 0.5(1 - e^-1)
    grid = SegmentGrid(1.0, 51)
    prob = DelayODEProblem(-1.0, PointDelay(0.5), 1.0, np.ones(51), grid, t_end=1.0)
    _, vals = solve_delay_ode(prob, 1e-3)
    assert vals[-1] == pytest.approx(np.exp(-1) + 0.5 * (1 - np.exp(-1)), abs=1e-6)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_delay_ode_rejects_nonpositive_step(dt):
    grid = SegmentGrid(1.0, 51)
    prob = DelayODEProblem(-1.0, PointDelay(0.5), 1.0, np.ones(51), grid, t_end=1.0)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        solve_delay_ode(prob, dt)


def test_delay_ode_rejects_a_step_that_does_not_divide_the_span():
    # 0.3 does not divide 0.7: the engine must not quietly step by 0.35
    grid = SegmentGrid(0.5, 101)
    prob = DelayODEProblem(-1.0, ConstantKernel(0.0), 1.0, np.ones(101), grid, 0.7)
    with pytest.raises(ConfigurationError, match="does not divide t_end"):
        solve_delay_ode(prob, 0.3)


def test_delay_ode_zero_span_rejects_nonpositive_step():
    # a zero span is refused as by every other solver, the step checked first
    grid = SegmentGrid(1.0, 51)
    prob = DelayODEProblem(-1.0, PointDelay(0.5), 1.0, np.ones(51), grid, t_end=0.0)
    with pytest.raises(ConfigurationError, match="t_end must be positive"):
        solve_delay_ode(prob, 1e-3)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        solve_delay_ode(prob, 0.0)


@pytest.mark.parametrize("dt", [1e-8, 5e-324])
def test_delay_ode_rejects_too_many_steps(dt):
    # 1e8 steps, and a step count that overflows to inf
    grid = SegmentGrid(1.0, 51)
    prob = DelayODEProblem(-1.0, PointDelay(0.5), 1.0, np.ones(51), grid, t_end=1.0)
    with pytest.raises(ConfigurationError, match="steps exceeds the limit"):
        solve_delay_ode(prob, dt)


@pytest.mark.parametrize("a1", [-1.0, 0.3])
def test_point_lag_sdde_agrees_with_point_delay_ode_at_first_order(a1):
    # the simulator's one-sample window and the RK4 engine's one-node
    # quadrature at -r read the same point lag (sigma = 0, one path, zero
    # control, constant history 1); measured 4.47e-4 of max |phi| at
    # dt = 1e-3 for a1 = -1, 2.16e-5 for a1 = 0.3, ratio 2.00 per halving
    grid = SegmentGrid(0.5, 51)
    p = make_params(a0=-0.5, a1=PointDelay(a1))
    history = HistoryPair(grid, 1.0, np.ones(51), np.zeros(51))
    problem = DelayODEProblem(p.a0, p.a1, 1.0, np.ones(51), grid, p.T)
    times, phi = solve_delay_ode(problem, 1e-4)
    zero = OpenLoop(t=np.array([0.0, p.T]), z=np.zeros(2))

    def gap(dt):
        ens = simulate_paths(p, history, zero, dt, 1, 0)
        err = ens.y[0] - np.interp(ens.t, times, phi)
        return np.max(np.abs(err)) / np.max(np.abs(phi))

    coarse, fine = gap(1e-3), gap(5e-4)
    assert coarse <= 6e-4
    assert 1.8 <= coarse / fine <= 2.2


@pytest.mark.parametrize(
    "t_end, dt", [(1.0, 0.02), (0.75, 0.05)], ids=["between-nodes", "on-nodes"]
)
@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_point_delay_positivity(t_end, dt, seed, a1s, a0mag):
    # a non-negative point lag keeps a non-negative history non-negative;
    # dt = 0.02 reads the lag between the 11 nodes, 0.05 on them
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 11)
    x1 = rng.uniform(0, 2, 11)
    prob = DelayODEProblem(-a0mag, PointDelay(a1s), x1[-1], x1, grid, t_end)
    _, vals = solve_delay_ode(prob, dt)
    assert np.all(vals >= -1e-9)


@pytest.mark.parametrize(
    "a1", [PointDelay(-0.8), ConstantKernel(-1.3), ExponentialKernel(-5.0, 1 / 6)],
    ids=["point", "constant", "exponential"],
)
def test_delay_ode_converges_to_the_exact_solution_at_first_order(a1):
    # phi(T) from e1 against the method-of-steps oracle, dt = node spacing;
    # the history is read piecewise linear, so e1's jump costs one spacing.
    # Measured for the exponential kernel: 6.72e-4, 3.34e-4, 1.67e-4,
    # 8.33e-5 at 101 ... 801 nodes (ratios 2.00-2.01); point lag 1.55e-3
    # and constant 7.49e-4 at 101 nodes, ratios 1.99-2.00
    exact = e1_trajectory(-0.5, a1, 0.5, 1.0, 100)[-1]
    errors = []
    for n_nodes in (101, 201, 401, 801):
        grid = SegmentGrid(0.5, n_nodes)
        problem = DelayODEProblem(-0.5, a1, 1.0, np.zeros(n_nodes), grid, 1.0)
        _, phi = solve_delay_ode(problem, grid.spacing)
        errors.append(abs(phi[-1] - exact))
    assert errors[0] <= 2e-3
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


def interpolating_delay_ode(problem, dt):
    """The stencil engine's reference: the same RK4 scheme with each stage
    reading its lags by np.interp over the stored trajectory and a borrowed
    slot for the stage value (the engine before its lag stencils)."""
    steps = round(problem.t_end / dt)
    dt_eff = problem.t_end / steps
    grid = problem.grid
    r = grid.r

    n = grid.n_nodes
    times = np.concatenate([grid.nodes[:-1], dt_eff * np.arange(steps + 1)])
    vals = np.empty(len(times))
    vals[: n - 1] = problem.x1[:-1]
    vals[n - 1] = problem.x0

    if isinstance(problem.delay, PointDelay):
        lags, weights = np.array([-r]), np.array([problem.delay.amp])
    else:
        lags = grid.nodes
        weights = grid.weights * kernel_eval(problem.delay, lags, r)

    def rhs(s, ys, known):
        # known = index of the last accepted sample; s >= times[known]
        end = known + 1
        if s > times[known]:
            # the stage point borrows the next slot until the step is accepted
            times[end], vals[end] = s, ys
            end += 1
        delayed = np.interp(s + lags, times[:end], vals[:end])
        return problem.a0 * ys + float(np.dot(weights, delayed))

    for k in range(steps):
        i = n - 1 + k
        t0, t1 = times[i], times[i + 1]
        y0 = vals[i]
        k1 = rhs(t0, y0, i)
        k2 = rhs(t0 + dt_eff / 2, y0 + dt_eff * k1 / 2, i)
        k3 = rhs(t0 + dt_eff / 2, y0 + dt_eff * k2 / 2, i)
        k4 = rhs(t0 + dt_eff, y0 + dt_eff * k3, i)
        ynew = y0 + dt_eff / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(ynew):
            raise BlowupError(f"delay ODE blew up at step {k + 1}")
        times[i + 1], vals[i + 1] = t1, ynew

    return times[n - 1 :], vals[n - 1 :]


REFERENCE_KERNELS = {
    "exponential": ExponentialKernel(-5.0, 1 / 6),
    "constant": ConstantKernel(-1.3),
    "steep": ExponentialKernel(-40.0, 0.02),  # decays within one grid spacing
    "point": PointDelay(-0.8),
    "zero": ConstantKernel(0.0),
}
SPACING = 0.5 / 20  # of the 21-node grid below


@pytest.mark.parametrize("t_end", [1.0, 0.3, 0.5])
@pytest.mark.parametrize(
    "dt", [SPACING / 10, SPACING, 2 * SPACING, 1 / 70],
    ids=["spacing/10", "spacing", "2spacing", "incommensurate"],
)
@pytest.mark.parametrize("history", ["e1", "cosine"])
@pytest.mark.parametrize("kernel", REFERENCE_KERNELS.values(), ids=REFERENCE_KERNELS)
def test_stencil_engine_matches_the_interpolating_engine(kernel, history, dt, t_end):
    # 0.3 < r = 0.5, the span the history reaches across; 1/70 puts the
    # lags 1.75 steps apart; the cosine history has x1(0) = 1 != x0 = 2
    grid = SegmentGrid(0.5, 21)
    if history == "e1":
        x0, x1 = 1.0, np.zeros(21)
    else:
        x0, x1 = 2.0, np.cos(3 * grid.nodes)
    problem = DelayODEProblem(-0.5, kernel, x0, x1, grid, t_end)
    times, phi = solve_delay_ode(problem, dt)
    ref_times, ref = interpolating_delay_ode(problem, dt)
    np.testing.assert_array_equal(times, ref_times)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_stencil_engine_matches_the_interpolating_engine_at_bench_size():
    # the exact route's a1 solve: 201 nodes, dt = 2.5e-4, a cosine history
    grid = SegmentGrid(0.5, 201)
    problem = DelayODEProblem(
        -0.5, ExponentialKernel(-5.0, 1 / 6), 2.0, np.cos(3 * grid.nodes), grid, 1.0
    )
    _, phi = solve_delay_ode(problem, 2.5e-4)
    _, ref = interpolating_delay_ode(problem, 2.5e-4)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "kernel", [ExponentialKernel(1e3, 0.1), PointDelay(1e3), ConstantKernel(0.0)],
    ids=["exponential", "point", "zero"],
)
def test_stencil_engine_blows_up_at_the_interpolating_engines_step(kernel):
    # a0 * dt = 10: RK4 multiplies phi by about 643 a step, so it overflows
    # near step 110 of 200
    grid = SegmentGrid(0.5, 21)
    problem = DelayODEProblem(2000.0, kernel, 1.0, np.ones(21), grid, 1.0)
    with pytest.raises(BlowupError) as ours:
        solve_delay_ode(problem, 0.005)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as ref:
            interpolating_delay_ode(problem, 0.005)
    assert str(ours.value) == str(ref.value)
    assert 50 < int(str(ref.value).rsplit(" ", 1)[1]) < 200


def test_interp_calls_do_not_grow_with_the_step_count(monkeypatch):
    # the lag stencils are built once per solve: np.interp runs once per lag
    # and stage on the history, never once per step
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    real = np.interp
    monkeypatch.setattr(np, "interp", counted)
    grid = SegmentGrid(0.5, 201)
    problem = DelayODEProblem(
        -0.5, ExponentialKernel(-5.0, 1 / 6), 1.0, np.zeros(201), grid, 1.0
    )
    counts = []
    for dt in (1e-3, 2.5e-4):
        calls.clear()
        solve_delay_ode(problem, dt)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3 * grid.n_nodes


def test_delay_ode_peak_memory():
    # 201 nodes at dt = 2.5e-4: a (steps x lags) temporary of the 2,000
    # steps that reach back before t = 0 would be 3.2 MB alone; the solve
    # keeps its trajectory, its stencils and the history term (measured
    # peak 0.2 MiB)
    grid = SegmentGrid(0.5, 201)
    problem = DelayODEProblem(
        -0.5, ExponentialKernel(-5.0, 1 / 6), 1.0, np.zeros(201), grid, 1.0
    )
    solve_delay_ode(problem, 2.5e-4)  # one-time set-up off the count
    tracemalloc.start()
    try:
        solve_delay_ode(problem, 2.5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


# --- duality with the lifted transport -----------------------------------------


def test_adjoint_duality_with_lifted_transport():
    """<e^{tA*}x, e1> = <x, e^{tA}e1>: the left side is phi(t), phi solving
    the delay ODE from x, and the right pairs x with the upwind lifted
    transport of e1, so the RK4 engine and the lifted scheme realize
    adjoint generators for matching distributed coefficients (measured
    3.9e-3 relative)."""
    from goodwill.approximation import simulate_lifted_perturbed

    grid = SegmentGrid(0.5, 101)
    t_end = 0.5
    p = make_params(a1=ExponentialKernel(-1.5, 0.25), b0=0.0, T=t_end)

    x = ProfileX(1.0, 1.0 + np.sin(2 * grid.nodes))
    problem = DelayODEProblem(p.a0, p.a1, x.x0, x.x1, grid, t_end)
    _, phi = solve_delay_ode(problem, 1e-3)

    dt = grid.spacing  # unit CFL number makes the transport step exact
    zgrid = dt * np.arange(round(t_end / dt) + 1)
    e1 = ProfileX(1.0, np.zeros(grid.n_nodes))
    ens = simulate_lifted_perturbed(
        p, e1, OpenLoop(t=zgrid, z=np.zeros_like(zgrid)), 0.0, grid, dt, 1, 0
    )
    transported = ProfileX(float(ens.y0[0]), ens.y1[0])

    assert phi[-1] == pytest.approx(inner_product(x, transported, grid), rel=2e-2)


def test_lifted_evolution_tracks_direct_solution():
    """sigma=0: the first component of the lifted evolution from M(x0,x1,delta)
    tracks the direct SDDE solution."""
    from goodwill.approximation import simulate_lifted_perturbed

    grid = SegmentGrid(0.5, 101)
    p = make_params(
        a0=-0.5,
        a1=ExponentialKernel(-2.0, 1 / 6),
        b1=ExponentialKernel(2.0, 1 / 6),
        T=1.0,
    )
    x1 = 2.0 * np.exp(-np.abs(grid.nodes))
    delta = 0.5 * np.ones(101)
    hist = HistoryPair(grid=grid, x0=2.0, x1=x1, delta=delta)
    dt = grid.spacing
    t = dt * np.arange(round(p.T / dt) + 1)
    pol = OpenLoop(t=t, z=0.3 + 0.2 * t)

    direct = simulate_paths(p, hist, pol, dt, 1, 0)
    xbar = lift_M(2.0, x1, delta, p, grid)
    lifted = simulate_lifted_perturbed(p, xbar, pol, 0.0, grid, dt, 1, 0)
    assert float(lifted.y0[0]) == pytest.approx(direct.y[0, -1], abs=0.02)
