import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodwill.hilbert import (
    ConstantKernel,
    ExponentialKernel,
    ProfileX,
    SegmentGrid,
    ZeroKernel,
    inner_product,
    kernel_eval,
    profile_from_callable,
    zero_profile,
)
from goodwill.lifting import (
    DelayODEProblem,
    PointDelay,
    adjoint_semigroup_apply,
    lift_M,
    solve_delay_ode,
    state_semigroup_apply,
)
from goodwill.sdde import (
    ConfigurationError,
    HistoryPair,
    ModelParams,
    OpenLoop,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0,
        a1=ZeroKernel(),
        b0=1.0,
        b1=ZeroKernel(),
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


def test_delay_ode_no_delay_is_exponential():
    grid = SegmentGrid(0.5, 51)
    prob = DelayODEProblem(-1.3, ZeroKernel(), 2.0,
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


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_point_delay_positivity(seed, a1s, a0mag):
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 11)
    x1 = rng.uniform(0, 2, 11)
    prob = DelayODEProblem(-a0mag, PointDelay(a1s), x1[-1], x1, grid, t_end=1.0)
    _, vals = solve_delay_ode(prob, 0.02)
    assert np.all(vals >= -1e-9)


# --- semigroups ---------------------------------------------------------------


def test_adjoint_semigroup_identity_at_zero():
    grid = SegmentGrid(0.5, 21)
    p = make_params(a1=ConstantKernel(1.0))
    x = profile_from_callable(2.0, lambda xi: np.cos(xi), grid)
    out = adjoint_semigroup_apply(0.0, x, p, grid, 1e-2)
    assert out.x0 == x.x0
    np.testing.assert_array_equal(out.x1, x.x1)


def test_adjoint_semigroup_e1_no_delay():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.7)
    e1 = ProfileX(1.0, np.zeros(101))
    t = 0.3
    out = adjoint_semigroup_apply(t, e1, p, grid, 1e-3)
    assert out.x0 == pytest.approx(np.exp(-0.7 * t), abs=1e-9)
    expect = np.where(t + grid.nodes >= 0, np.exp(-0.7 * (t + grid.nodes)), 0.0)
    np.testing.assert_allclose(out.x1, expect, atol=1e-6)


def test_adjoint_semigroup_composition():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=ExponentialKernel(-2.0, 0.25))
    x = profile_from_callable(1.0, lambda xi: 1.0 + xi, grid)
    once = adjoint_semigroup_apply(0.7, x, p, grid, 1e-3)
    twice = adjoint_semigroup_apply(0.4, once, p, grid, 1e-3)
    direct = adjoint_semigroup_apply(1.1, x, p, grid, 1e-3)
    assert twice.x0 == pytest.approx(direct.x0, abs=1e-6)
    np.testing.assert_allclose(twice.x1, direct.x1, atol=1e-5)


def test_state_semigroup_identity_and_no_delay():
    grid = SegmentGrid(0.5, 101)
    x = profile_from_callable(1.0, lambda xi: np.exp(xi), grid)
    out0 = state_semigroup_apply(0.0, x, -1.0, 0.5, grid, 1e-3)
    assert out0.x0 == x.x0

    # a1=0: scalar part decays, profile is the shifted trajectory/history
    t = 0.2
    out = state_semigroup_apply(t, x, -1.0, 0.0, grid, 1e-3)
    assert out.x0 == pytest.approx(np.exp(-t), abs=1e-9)
    expect = np.where(
        t + grid.nodes >= 0,
        np.exp(-(t + grid.nodes)),
        np.exp(np.minimum(t + grid.nodes, 0.0)),
    )
    np.testing.assert_allclose(out.x1, expect, atol=1e-6)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0))
def test_state_semigroup_positivity(seed, a1s):
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 11)
    x1 = rng.uniform(0, 1, 11)
    x = ProfileX(x1[-1], x1)
    out = state_semigroup_apply(0.75, x, -rng.uniform(0, 2), a1s, grid, 0.05)
    assert out.x0 >= -1e-9
    assert np.all(out.x1 >= -1e-9)


def test_state_semigroup_law():
    grid = SegmentGrid(0.5, 101)
    x = profile_from_callable(1.0, lambda xi: 1.0 + 0.5 * xi, grid)
    once = state_semigroup_apply(0.6, x, -0.8, 0.4, grid, 1e-3)
    twice = state_semigroup_apply(0.5, once, -0.8, 0.4, grid, 1e-3)
    direct = state_semigroup_apply(1.1, x, -0.8, 0.4, grid, 1e-3)
    assert twice.x0 == pytest.approx(direct.x0, abs=1e-5)
    np.testing.assert_allclose(twice.x1, direct.x1, atol=1e-4)


def test_adjoint_duality_with_lifted_transport():
    """<e^{tA'}x, y> = <x, e^{tA}y>: the delay-ODE semigroup (phi-based) and
    the upwind lifted transport realize adjoint generators for matching
    distributed coefficients."""
    from goodwill.approximation import simulate_lifted_perturbed

    grid = SegmentGrid(0.5, 101)
    t_end = 0.5
    p = make_params(a1=ExponentialKernel(-1.5, 0.25), b0=0.0, T=t_end)

    x = profile_from_callable(1.0, lambda xi: 1.0 + np.sin(2 * xi), grid)
    y = profile_from_callable(0.5, lambda xi: np.exp(xi), grid)

    left_arg = adjoint_semigroup_apply(t_end, x, p, grid, 1e-3)

    dt = grid.spacing  # unit CFL number makes the transport step exact
    zgrid = dt * np.arange(round(t_end / dt) + 1)
    ens = simulate_lifted_perturbed(
        p, y, OpenLoop(t=zgrid, z=np.zeros_like(zgrid)), 0.0, grid, dt, 1, 0
    )
    right_arg = ProfileX(float(ens.y0[0]), ens.y1[0])

    lhs = inner_product(left_arg, y, grid)
    rhs = inner_product(x, right_arg, grid)
    assert lhs == pytest.approx(rhs, rel=2e-2)


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
