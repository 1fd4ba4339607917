import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracle import unit_kicks

from goodwill import approximation, cli, lq, sdde
from goodwill.approximation import (
    BUMP_U,
    BUMP_ZETA,
    ConvergenceRow,
    LiftedEnsemble,
    convergence_study,
    mollify_h,
    mollify_phi,
    simulate_lifted_perturbed,
)
from goodwill.cli import merged_config, run_approx
from goodwill.hilbert import (
    ExponentialKernel,
    ProfileX,
    SegmentGrid,
    kernel_eval,
    kernel_is_zero,
)
from goodwill.lifting import lift_M
from goodwill.lq import solve_costate, trajectory_mean, trajectory_variance, value_lq
from goodwill.sdde import (
    PATH_BLOCK,
    BlowupError,
    ConfigurationError,
    FeedbackPolicy,
    HistoryPair,
    ModelParams,
    OpenLoop,
    open_loop_controls,
    path_normals,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0, a1=ExponentialKernel(0.0, math.inf), b0=1.0,
        b1=ExponentialKernel(0.0, math.inf), sigma=0.0, r=0.5, T=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


# --- mollifier ----------------------------------------------------------------


def test_mollifier_unit_mass_and_support():
    assert np.trapezoid(BUMP_ZETA, BUMP_U) == pytest.approx(1.0, abs=1e-12)
    assert BUMP_ZETA[0] == 0.0 and BUMP_ZETA[-1] == 0.0
    assert np.all(BUMP_ZETA >= 0)


def test_mollifier_config_validation():
    with pytest.raises(ConfigurationError):
        simulate_lifted_perturbed(make_params(), X11, POL, -0.1, GRID11, 0.05, 1, 0)
    with pytest.raises(ConfigurationError):
        mollify_phi(np.abs, 0.0, 0.0)


@pytest.mark.parametrize("mollify", [mollify_phi, mollify_h])
def test_zero_eps2_is_a_config_error(mollify):
    # checked before the truncation radius 1/eps2 is formed
    with pytest.raises(ConfigurationError, match="eps2 must be positive"):
        mollify(np.abs, 0.0, np.zeros(3))


def test_mollify_phi_linear_exact_in_bulk():
    # symmetric unit-mass kernel leaves affine functions unchanged away
    # from the truncation radius 1/eps2
    x = np.array([-2.0, 0.0, 1.0, 3.0])
    got = mollify_phi(lambda v: 2.0 * v + 1.0, 0.1, x)
    np.testing.assert_allclose(got, 2.0 * x + 1.0, atol=1e-9)


def test_mollify_phi_truncates_far_field():
    got = mollify_phi(lambda v: np.ones_like(v), 0.1, np.array([0.0, 20.0]))
    assert got[0] == pytest.approx(1.0, abs=1e-9)
    assert got[1] == 0.0


def test_mollify_phi_abs_at_zero():
    eps = 0.3
    got = mollify_phi(np.abs, eps, 0.0)[0]
    expect = eps * np.trapezoid(np.abs(BUMP_U) * BUMP_ZETA, BUMP_U)
    assert got == pytest.approx(expect, rel=1e-10)
    # convexity pushes the mollified value above the original
    assert got > 0.0
    # and the offset scales linearly with eps2
    assert mollify_phi(np.abs, 2 * eps, 0.0)[0] == pytest.approx(2 * got, rel=1e-6)


def test_mollify_h_constant_and_quadratic_offset():
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        mollify_h(lambda v: 3.0 * np.ones_like(v), 0.2, x), 3.0, atol=1e-12
    )
    # (h * zeta_eps)(x) = x^2 + eps^2 * int u^2 zeta(u) du for h = x^2
    got = mollify_h(lambda v: v**2, 0.2, x)
    offset = 0.2**2 * np.trapezoid(BUMP_U**2 * BUMP_ZETA, BUMP_U)
    np.testing.assert_allclose(got - x**2, offset, atol=1e-10)


def test_mollify_h_nonexpansive_lipschitz():
    x = np.linspace(-3, 3, 61)
    got = mollify_h(np.abs, 0.25, x)
    slopes = np.abs(np.diff(got) / np.diff(x))
    assert np.max(slopes) <= 1.0 + 1e-9


def test_mollify_phi_uniform_growth_bound():
    # the truncated-then-mollified rewards admit one linear growth bound
    # across all eps2 values
    gamma = 1.5
    x = np.linspace(-30, 30, 121)
    for eps2 in (0.4, 0.2, 0.1, 0.05):
        vals = mollify_phi(lambda v: gamma * v, eps2, x)
        assert np.all(np.abs(vals) <= gamma * (1.0 + np.abs(x)) + 1e-9)


def test_mollify_is_the_same_point_by_point():
    # the points go in chunks; a point's value does not depend on its chunk
    x = np.linspace(-3, 3, 2 * approximation._CONVOLVE_ROWS + 5)
    h = lambda v: 0.5 * v * v
    one_by_one = [mollify_h(h, 0.2, xi)[0] for xi in x]
    np.testing.assert_array_equal(mollify_h(h, 0.2, x), one_by_one)


def test_mollify_memory_does_not_grow_with_the_point_count():
    # sizes, not timing: one (20000 x 2001) temporary alone would be 320 MB,
    # and 16-point chunks through buffers allocated once take about 1.5 MB
    x = np.linspace(-3, 3, 20_000)
    tracemalloc.start()
    try:
        mollify_h(lambda v: v * v, 0.1, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


SHIPPED_EPS2 = (0.4, 0.2, 0.1, 0.05)


def _literal_mollify(truncate):
    """The mollifier as one np.trapezoid per point."""

    def mollify(fn, eps2, points):
        g = fn
        if truncate:
            g = lambda v: np.where(np.abs(v) <= 1.0 / eps2, fn(v), 0.0)
        vals = [np.trapezoid(g(x - eps2 * BUMP_U) * BUMP_ZETA, BUMP_U) for x in points]
        return np.array(vals, dtype=float)

    return mollify


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 37])
@pytest.mark.parametrize("eps2", SHIPPED_EPS2)
def test_mollify_keeps_the_bits_of_the_literal_trapezoid(n, eps2):
    # chunks, reused buffers and the written-out trapezoid rule change no
    # bit of any point, the truncated reward's points beyond 1/eps2 too
    x = np.linspace(-1.5 / eps2, 1.5 / eps2, n)
    for mollify, fn, truncate in (
        (mollify_phi, lambda v: 1.5 * v, True),
        (mollify_h, lambda v: 0.5 * v * v, False),
    ):
        got, ref = mollify(fn, eps2, x), _literal_mollify(truncate)(fn, eps2, x)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mollify", [mollify_phi, mollify_h])
def test_infinite_eps2_is_a_config_error(mollify):
    with pytest.raises(ConfigurationError, match="eps2 must be positive and finite"):
        mollify(np.abs, math.inf, np.zeros(3))


# --- lifted evolution ---------------------------------------------------------


def test_cfl_bound_is_relative_to_the_spacing():
    # spacing 1e-16: an absolute slack of 1e-15 let dt = 1e-15 (lambda = 10)
    # through, and the upwind scheme ran off to 1e126 with no error
    grid = SegmentGrid(2e-14, 201)
    p = make_params(a1=ExponentialKernel(-1.0, math.inf), sigma=0.5, r=2e-14, T=1e-13)
    t = np.linspace(0.0, 1e-13, 11)
    pol = OpenLoop(t=t, z=np.ones_like(t))
    x = ProfileX(1.0, np.ones(201))
    with pytest.raises(ConfigurationError, match="CFL violation"):
        simulate_lifted_perturbed(p, x, pol, 0.0, grid, 1e-15, 2, 0)
    ens = simulate_lifted_perturbed(p, x, pol, 0.0, grid, grid.spacing, 2, 0)
    assert np.all(np.isfinite(ens.y1)) and np.all(np.abs(ens.y1) <= 1.0)


def test_lifted_pure_decay():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.8)
    t = grid.spacing * np.arange(round(1.0 / grid.spacing) + 1)
    pol = OpenLoop(t=t, z=np.zeros_like(t))
    ens = simulate_lifted_perturbed(
        p, ProfileX(2.0, np.zeros(101)), pol, 0.0, grid, grid.spacing, 1, 0
    )
    assert float(ens.y0[0]) == pytest.approx(2.0 * np.exp(-0.8), abs=5e-3)
    np.testing.assert_array_equal(ens.y1[0], np.zeros(101))


def test_lifted_input_validation():
    grid = SegmentGrid(0.5, 11)
    p = make_params()
    t = np.linspace(0, 1, 21)
    pol = OpenLoop(t=t, z=np.zeros(21))
    with pytest.raises(ConfigurationError):
        simulate_lifted_perturbed(
            p, ProfileX(1.0, np.zeros(11)), pol, 0.0, grid, 0.1, 1, 0
        )  # dt > spacing
    with pytest.raises(ConfigurationError):
        simulate_lifted_perturbed(
            p, ProfileX(1.0, np.zeros(5)), pol, 0.0, grid, 0.05, 1, 0
        )  # wrong init length


def test_lifted_scheme_needs_a_path():
    grid = SegmentGrid(0.5, 11)
    pol = OpenLoop(t=np.linspace(0, 1, 21), z=np.zeros(21))
    with pytest.raises(ConfigurationError, match="n_paths must be at least 1"):
        simulate_lifted_perturbed(
            make_params(), ProfileX(1.0, np.zeros(11)), pol, 0.0, grid, 0.05, 0, 0
        )


GRID11 = SegmentGrid(0.5, 11)
X11 = ProfileX(1.0, np.zeros(11))


@pytest.mark.parametrize(
    "run",
    [
        lambda p, pol: trajectory_mean(1.0, X11, pol, p, GRID11, 0.05),
        lambda p, pol: simulate_lifted_perturbed(p, X11, pol, 0.0, GRID11, 0.05, 1, 0),
        lambda p, pol: convergence_study(
            p, X11, pol, 1.0, 0.5, 0.0, [0.0], [0.1], GRID11, 0.05, 2, 0
        ),
    ],
    ids=["trajectory_mean", "simulate_lifted_perturbed", "convergence_study"],
)
def test_open_loop_entry_points_reject_feedback(run):
    with pytest.raises(ConfigurationError, match="needs an open-loop policy"):
        run(make_params(), FeedbackPolicy(lambda t, y: 0.0))


# a segment grid on [-1, 0] under a model whose delay horizon is r = 0.5
GRID_R1 = SegmentGrid(1.0, 11)
X_R1 = ProfileX(1.0, np.ones(11))
POL = OpenLoop(t=np.linspace(0, 1, 21), z=np.zeros(21))


@pytest.mark.parametrize(
    "run",
    [
        lambda p: simulate_paths(
            p, HistoryPair(GRID_R1, 1.0, np.ones(11), np.zeros(11)), POL, 0.05, 1, 0
        ),
        lambda p: lift_M(1.0, np.ones(11), np.zeros(11), p, GRID_R1),
        lambda p: trajectory_mean(1.0, X_R1, POL, p, GRID_R1, 0.05),
        lambda p: trajectory_variance(1.0, p, GRID_R1, 0.05),
        lambda p: value_lq(0.0, X_R1, solve_costate(p, 1.0, 0.5, 0.05), GRID_R1),
        lambda p: simulate_lifted_perturbed(p, X_R1, POL, 0.0, GRID_R1, 0.05, 1, 0),
        lambda p: convergence_study(
            p, X_R1, POL, 1.0, 0.5, 0.0, [0.0], [0.1], GRID_R1, 0.05, 2, 0
        ),
    ],
    ids=[
        "simulate_paths", "lift_M", "trajectory_mean", "trajectory_variance",
        "value_lq", "simulate_lifted_perturbed",
        "convergence_study",
    ],
)
def test_grid_horizon_must_match_the_model(run):
    with pytest.raises(ConfigurationError, match="segment grid has r=1"):
        run(make_params(
            a1=ExponentialKernel(0.5, math.inf), b1=ExponentialKernel(0.5, math.inf)
        ))


def _no_noise_draw(*args):
    raise AssertionError("noise drawn before eps1 was checked")


@pytest.mark.parametrize(
    "run",
    [
        lambda p: simulate_lifted_perturbed(p, X11, POL, -0.1, GRID11, 0.05, 1, 0),
        lambda p: convergence_study(
            p, X11, POL, 1.0, 0.5, 0.0, [0.0, -0.1], [0.1], GRID11, 0.05, 2, 0
        ),
    ],
    ids=["simulate_lifted_perturbed", "convergence_study"],
)
def test_negative_eps1_raises_before_simulating(monkeypatch, run):
    # a negative eps1 would silently drop the rank-one perturbation
    monkeypatch.setattr(approximation, "path_normals", _no_noise_draw)
    with pytest.raises(ConfigurationError, match="eps1 must be non-negative"):
        run(make_params(b1=ExponentialKernel(1.0, math.inf)))


def test_infinite_eps1_is_a_config_error(monkeypatch):
    # an infinite rank-one kick made the state non-finite at the first step
    monkeypatch.setattr(approximation, "path_normals", _no_noise_draw)
    with pytest.raises(ConfigurationError, match="non-negative and finite"):
        simulate_lifted_perturbed(
            make_params(b1=ExponentialKernel(1.0, math.inf)), X11, POL, math.inf,
            GRID11, 0.05, 1, 0,
        )


@pytest.mark.parametrize("eps2", [0.0, math.nan, math.inf])
def test_bad_eps2_raises_before_simulating(monkeypatch, eps2):
    # every eps2 is checked before the lifted call draws any noise; an
    # infinite one made J_eps non-finite, a BlowupError, after the run
    monkeypatch.setattr(approximation, "path_normals", _no_noise_draw)
    with pytest.raises(ConfigurationError, match="eps2 must be positive and finite"):
        convergence_study(
            make_params(b1=ExponentialKernel(1.0, math.inf)), X11, POL, 1.0, 0.5, 0.0,
            [0.0], [0.1, eps2], GRID11, 0.05, 2, 0,
        )


def test_lifted_blowup_is_a_numerical_failure():
    # an explosive forgetting kernel overflows the scheme: that is a
    # numerical failure (exit 3), not a configuration error (exit 2)
    grid = SegmentGrid(0.5, 201)
    p = make_params(a0=0.0, a1=ExponentialKernel(1e8, math.inf))
    t = grid.spacing * np.arange(round(1.0 / grid.spacing) + 1)
    pol = OpenLoop(t=t, z=np.zeros_like(t))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError, match="lost finiteness"):
            simulate_lifted_perturbed(
                p, ProfileX(1.0, np.zeros(201)), pol, 0.0, grid, grid.spacing, 1, 0
            )


def test_lifted_rank_one_noise_needs_b1():
    # eps1 only acts through the b1 direction; with b1 = 0 the function
    # component stays deterministic
    grid = SegmentGrid(0.5, 51)
    p = make_params(sigma=0.0)
    t = grid.spacing * np.arange(round(1.0 / grid.spacing) + 1)
    pol = OpenLoop(t=t, z=np.ones_like(t))
    a = simulate_lifted_perturbed(
        p, ProfileX(1.0, np.zeros(51)), pol, 0.5, grid, grid.spacing, 3, 0
    )
    b = simulate_lifted_perturbed(
        p, ProfileX(1.0, np.zeros(51)), pol, 0.0, grid, grid.spacing, 3, 0
    )
    np.testing.assert_array_equal(a.y1, b.y1)


def test_lifted_determinism():
    grid = SegmentGrid(0.5, 51)
    p = make_params(sigma=0.4, b1=ExponentialKernel(1.0, math.inf))
    t = grid.spacing * np.arange(round(1.0 / grid.spacing) + 1)
    pol = OpenLoop(t=t, z=np.ones_like(t))
    x = ProfileX(1.0, np.linspace(0, 1, 51))
    a = simulate_lifted_perturbed(p, x, pol, 0.3, grid, grid.spacing, 4, 11)
    b = simulate_lifted_perturbed(p, x, pol, 0.3, grid, grid.spacing, 4, 11)
    np.testing.assert_array_equal(a.y0, b.y0)
    np.testing.assert_array_equal(a.y1, b.y1)


def _lifted_reference(p, x, pol, eps1, grid, dt, n_paths, seed):
    """The upwind scheme on every path at once, one fresh array per term."""
    steps = round(p.T / dt)
    z = pol.sample(p, dt * np.arange(steps + 1))
    a1v, b1v = (np.full(grid.n_nodes, k.amp) for k in (p.a1, p.b1))
    y0 = np.full(n_paths, x.x0)
    y1 = np.tile(x.x1, (n_paths, 1))
    noise = np.array([approximation.path_normals(seed, i, (2, steps)) for i in range(n_paths)])
    sig0, sig1 = p.sigma * np.sqrt(dt), eps1 * np.sqrt(dt)
    for k in range(steps):
        y0_new = y0 + (p.a0 * y0 + y1[:, -1] + p.b0 * z[k]) * dt
        y0_new += sig0 * noise[:, 0, k]
        upwind = np.diff(y1, axis=1, prepend=0.0)
        source = a1v[None, :] * y0[:, None] + (b1v * z[k])[None, :]
        y1 = y1 - dt / grid.spacing * upwind + dt * source
        y1 += sig1 * noise[:, 1, k][:, None] * b1v[None, :]
        y0 = y0_new
    return y0, y1


def test_lifted_blocks_are_bit_identical(monkeypatch):
    # path blocks and in-place buffers change no bit: against the plain
    # scheme, across a block boundary, and for any path count
    grid = SegmentGrid(0.5, 21)
    p = make_params(
        sigma=0.4, a1=ExponentialKernel(-0.5, math.inf), b1=ExponentialKernel(1.0, math.inf)
    )
    t = np.linspace(0.0, 1.0, 11)
    pol = OpenLoop(t=t, z=np.linspace(1.0, 0.2, 11))
    x = ProfileX(1.0, np.linspace(0, 1, 21))
    run = lambda n: simulate_lifted_perturbed(p, x, pol, 0.3, grid, grid.spacing, n, 11)
    whole = run(5)
    y0, y1 = _lifted_reference(p, x, pol, 0.3, grid, grid.spacing, 5, 11)
    assert whole.y0.tobytes() == y0.tobytes() and whole.y1.tobytes() == y1.tobytes()
    for n in (1, 3):
        part = run(n)
        assert part.y0.tobytes() == whole.y0[:n].tobytes()
        assert part.y1.tobytes() == whole.y1[:n].tobytes()
    monkeypatch.setattr(approximation, "PATH_BLOCK", 2)
    blocked = run(5)
    assert blocked.y1.shape == (5, 21)
    assert blocked.y0.tobytes() == whole.y0.tobytes()
    assert blocked.y1.tobytes() == whole.y1.tobytes()


def _path_major_reference(params, lifted_init, policy, eps1, grid, dt, n_paths, seed):
    """The block loop as it ran on (paths, n_nodes) rows, kept verbatim:
    broadcast rank-one products, a two-row noise draw whatever eps1, and an
    elementwise finiteness check. The node-major scheme must match it bit
    for bit."""
    steps = round(params.T / dt)
    t = dt * np.arange(steps + 1)
    z = open_loop_controls(policy, params, t, "reference")
    dxi = grid.spacing
    a1v = kernel_eval(params.a1, grid.nodes, params.r)
    b1v = kernel_eval(params.b1, grid.nodes, params.r)
    lam = dt / dxi
    sig0 = params.sigma * np.sqrt(dt)
    sig1 = eps1 * np.sqrt(dt)
    perturbed = sig1 > 0 and not kernel_is_zero(params.b1)

    y0_out = np.empty(n_paths)
    y1_out = np.empty((n_paths, grid.n_nodes))
    rows = min(PATH_BLOCK, n_paths)
    # state and next state, double-buffered, and the step's temporaries
    y0_buf, y0_new_buf, drift_buf, kick_buf = (np.empty(rows) for _ in range(4))
    y1_buf, y1_new_buf, work_buf = (np.empty((rows, grid.n_nodes)) for _ in range(3))
    b1z = np.empty(grid.n_nodes)
    noise_buf = np.empty((2, steps, rows))  # time-major: a step reads one row
    for first in range(0, n_paths, PATH_BLOCK):
        n = min(PATH_BLOCK, n_paths - first)
        y0, y0_new, drift, kick = (b[:n] for b in (y0_buf, y0_new_buf, drift_buf, kick_buf))
        y1, y1_new, work = (b[:n] for b in (y1_buf, y1_new_buf, work_buf))
        noise = noise_buf[:, :, :n]
        for j in range(n):
            noise[:, :, j] = path_normals(seed, first + j, (2, steps))
        y0.fill(float(lifted_init.x0))
        y1[:] = np.asarray(lifted_init.x1, dtype=float)

        for k in range(steps):
            # y0_new = y0 + (a0 y0 + y1(0) + b0 z) dt + sig0 dW0
            np.multiply(y0, params.a0, out=drift)
            drift += y1[:, -1]
            drift += params.b0 * z[k]
            drift *= dt
            np.add(y0, drift, out=y0_new)
            np.multiply(noise[0, k], sig0, out=kick)
            y0_new += kick

            # y1_new = y1 - lam * upwind + dt * (a1 y0 + b1 z), the ghost
            # value at xi = -r being 0
            work[:, 0] = y1[:, 0]
            np.subtract(y1[:, 1:], y1[:, :-1], out=work[:, 1:])
            work *= lam
            np.subtract(y1, work, out=y1_new)
            np.multiply(y0[:, None], a1v[None, :], out=work)
            np.multiply(b1v, z[k], out=b1z)
            work += b1z
            work *= dt
            y1_new += work
            if perturbed:
                np.multiply(noise[1, k], sig1, out=kick)
                np.multiply(kick[:, None], b1v[None, :], out=work)
                y1_new += work

            if not (np.isfinite(y0_new).all() and np.isfinite(y1_new).all()):
                raise BlowupError(f"lifted evolution lost finiteness at step {k+1}")
            y0, y0_new = y0_new, y0
            y1, y1_new = y1_new, y1

        y0_out[first : first + n] = y0
        y1_out[first : first + n] = y1

    return LiftedEnsemble(y0=y0_out, y1=y1_out)


KERNELS_A1 = {
    "zero": ExponentialKernel(0.0, math.inf),
    "constant": ExponentialKernel(-0.5, math.inf),
    "exponential": ExponentialKernel(-5.0, 1 / 6),
    "steep": ExponentialKernel(-40.0, 0.02),
}
KERNELS_B1 = {
    "zero": ExponentialKernel(0.0, math.inf),
    "exponential": ExponentialKernel(5.0, 0.5),
}
BATTERY_BLOCK = 4


def _battery_case(a1, b1):
    grid = SegmentGrid(0.5, 21)
    p = make_params(a0=-0.5, sigma=0.4, a1=KERNELS_A1[a1], b1=KERNELS_B1[b1])
    t = np.linspace(0.0, 1.0, 41)
    pol = OpenLoop(t=t, z=np.linspace(1.0, 0.2, 41))
    x = lift_M(2.0, np.exp(grid.nodes), np.linspace(0.0, 1.0, 21), p, grid)
    return p, x, pol, grid, 0.01  # lam = dt / spacing = 0.4


@pytest.mark.parametrize("eps1", [0.0, 0.3])
@pytest.mark.parametrize("b1", sorted(KERNELS_B1))
@pytest.mark.parametrize("a1", sorted(KERNELS_A1))
def test_node_major_scheme_matches_the_path_major_loop(monkeypatch, a1, b1, eps1):
    # node-major rows behind a zero ghost row, einsum rank-one products, a
    # one-row noise draw when unperturbed, the y0 row scaled once per block
    # and one finiteness check per block change no bit of any path, across
    # path blocks too
    p, x, pol, grid, dt = _battery_case(a1, b1)
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    for n in (1, 5, BATTERY_BLOCK + 3):
        got = simulate_lifted_perturbed(p, x, pol, eps1, grid, dt, n, 11)
        ref = _path_major_reference(p, x, pol, eps1, grid, dt, n, 11)
        assert got.y1.shape == (n, 21)
        assert got.y0.tobytes() == ref.y0.tobytes()
        assert got.y1.tobytes() == ref.y1.tobytes()


def _stacked_path_major_reference(params, lifted_init, policy, eps1, *rest):
    """_path_major_reference run once per eps1 and stacked, as one call over
    the eps1 sequence returns it."""
    runs = [_path_major_reference(params, lifted_init, policy, e, *rest) for e in eps1]
    return LiftedEnsemble(
        y0=np.stack([run.y0 for run in runs]), y1=np.stack([run.y1 for run in runs])
    )


def test_convergence_rows_match_the_path_major_loop(monkeypatch):
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    args = (p, x, pol, 1.0, 0.5, 0.3, [0.0, 0.3], [0.4, 0.1], grid, dt, 7, 5)
    got = convergence_study(*args)
    monkeypatch.setattr(
        approximation, "simulate_lifted_perturbed", _stacked_path_major_reference
    )
    assert got == convergence_study(*args)


def _convergence_reference(p, x, pol, gamma, beta, base, eps1, eps2, grid, dt, *rest):
    """The table as one loop on the caller's thread: the path-major scheme,
    the control's cost at each eps2, then one literal trapezoid per point
    of each (eps1, eps2) row, in that order."""
    z = open_loop_controls(pol, p, dt * np.arange(round(p.T / dt) + 1), "reference")
    ens = _stacked_path_major_reference(p, x, pol, eps1, grid, dt, *rest)
    cost_of, reward_of = _literal_mollify(False), _literal_mollify(True)
    costs = [np.sum(cost_of(lambda v: beta * v**2, e2, z[:-1])) * dt for e2 in eps2]
    rows = []
    for e1, y0 in zip(eps1, ens.y0):
        for e2, cost in zip(eps2, costs):
            terminal = reward_of(lambda v: gamma * v, e2, y0)
            mean, se = sdde._mean_stderr(terminal - cost)
            rows.append(ConvergenceRow(e1, e2, mean, se, abs(mean - base)))
    return rows


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_convergence_rows_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    # the mollifications shared out over 1, 2 or 3 threads, switching
    # often, give the rows of the one-thread loop, across a block
    # boundary, and no thread outlives the call
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    args = (p, x, pol, 1.0, 0.5, 0.3, [0.0, 0.3], SHIPPED_EPS2, grid, dt,
            BATTERY_BLOCK + 3, 5)
    expected = _convergence_reference(*args)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert convergence_study(*args) == expected
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("eps1", [[0.3], [0.0, 0.3], [0.3, 0.0, 0.7]])
def test_eps1_groups_keep_the_bits_of_their_own_calls(monkeypatch, eps1, cpus):
    # the groups share each path's one noise draw and step on threads of
    # their own, in buffers of their own; each keeps the bits of its own
    # call across a block boundary, and no thread outlives the call
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    n = BATTERY_BLOCK + 3
    before = threading.active_count()
    got = simulate_lifted_perturbed(p, x, pol, eps1, grid, dt, n, 11)
    assert threading.active_count() == before
    assert got.y0.shape == (len(eps1), n) and got.y1.shape == (len(eps1), n, 21)
    for g, value in enumerate(eps1):
        own = simulate_lifted_perturbed(p, x, pol, value, grid, dt, n, 11)
        assert own.y0.shape == (n,) and own.y1.shape == (n, 21)
        assert got.y0[g].tobytes() == own.y0.tobytes()
        assert got.y1[g].tobytes() == own.y1.tobytes()


def test_an_empty_eps1_list_draws_nothing_and_returns_no_rows(monkeypatch):
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    monkeypatch.setattr(approximation, "path_normals", _no_noise_draw)
    got = simulate_lifted_perturbed(p, x, pol, [], grid, dt, 5, 11)
    assert got.y0.shape == (0, 5) and got.y1.shape == (0, 5, 21)
    assert convergence_study(p, x, pol, 1.0, 0.5, 0.3, [], [0.1], grid, dt, 5, 11) == []
    # no eps2 either: nothing to mollify, and still no rows
    assert convergence_study(p, x, pol, 1.0, 0.5, 0.3, [], [], grid, dt, 5, 11) == []


def _in_eps1_order(p, x, pol, eps1, *rest):
    """The scalar calls, one eps1 after another: the first to blow up raises."""
    for value in eps1:
        simulate_lifted_perturbed(p, x, pol, value, *rest)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_later_eps1_that_blows_up_first_does_not_name_the_error(monkeypatch, cpus):
    # eps1 = 1e200 overflows at step 5 and eps1 = 0 at step 11: the error is
    # eps1 = 0's, as the loop in eps1 order raises it, with no warning from
    # either thread
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    grid = SegmentGrid(0.5, 21)
    p = make_params(
        a0=0.0, a1=ExponentialKernel(1e60, math.inf), b1=ExponentialKernel(1.0, math.inf)
    )
    pol = OpenLoop(t=np.linspace(0.0, 1.0, 41), z=np.zeros(41))
    x = ProfileX(1.0, np.zeros(21))
    rest = (grid, 0.025, 3, 0)
    with pytest.raises(BlowupError, match="at step 5$"):
        simulate_lifted_perturbed(p, x, pol, 1e200, *rest)
    with pytest.raises(BlowupError, match="at step 11$") as ref:
        _in_eps1_order(p, x, pol, [0.0, 1e200], *rest)
    with pytest.raises(BlowupError) as got:
        simulate_lifted_perturbed(p, x, pol, [0.0, 1e200], *rest)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_eps1_that_blows_up_in_a_later_block_names_the_error(monkeypatch, cpus):
    # eps1 = 0.3 reads the y1 noise row, whose inf at path 1 blows it up at
    # step 3 of the first block; both groups read the y0 row, whose inf at
    # path 5 blows them up at step 7 of the second. The loop in eps1 order
    # raises eps1 = 0's error, from the second block
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    normals = approximation.path_normals

    def shocked(seed, path_index, shape):
        out = normals(seed, path_index, shape)
        if path_index == 1 and len(out) == 2:
            out[1, 2] = np.inf
        if path_index == BATTERY_BLOCK + 1:
            out[0, 6] = np.inf
        return out

    monkeypatch.setattr(approximation, "path_normals", shocked)
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    rest = (grid, dt, BATTERY_BLOCK + 3, 11)
    with pytest.raises(BlowupError, match="at step 3$"):
        simulate_lifted_perturbed(p, x, pol, 0.3, *rest)
    with pytest.raises(BlowupError, match="at step 7$") as ref:
        _in_eps1_order(p, x, pol, [0.0, 0.3], *rest)
    with pytest.raises(BlowupError) as got:
        simulate_lifted_perturbed(p, x, pol, [0.0, 0.3], *rest)
    assert str(got.value) == str(ref.value)


def test_lifted_sum_overflow_with_finite_state_is_no_blowup():
    # every entry near 1.5e307: the one-sum check overflows to inf, and the
    # elementwise check it falls back to finds every entry finite
    grid = SegmentGrid(0.5, 21)
    p = make_params(a0=-1.0, sigma=0.4)
    pol = OpenLoop(t=np.linspace(0.0, 1.0, 41), z=np.zeros(41))
    x = ProfileX(1.5e307, np.full(21, 1.5e307))
    with np.errstate(over="ignore"):
        assert np.isinf(np.full((22, 3), 1.5e307).sum())
    got = simulate_lifted_perturbed(p, x, pol, 0.3, grid, 0.025, 3, 2)
    ref = _path_major_reference(p, x, pol, 0.3, grid, 0.025, 3, 2)
    assert np.isfinite(got.y1).all()
    assert got.y0.tobytes() == ref.y0.tobytes()
    assert got.y1.tobytes() == ref.y1.tobytes()


def test_lifted_blowup_names_the_reference_step():
    # the state overflows; the step loop keeps numpy's warnings to itself
    # and names the step the elementwise check names
    grid = SegmentGrid(0.5, 21)
    p = make_params(a0=0.0, a1=ExponentialKernel(1e60, math.inf))
    pol = OpenLoop(t=np.linspace(0.0, 1.0, 41), z=np.zeros(41))
    x = ProfileX(1.0, np.zeros(21))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as ref:
            _path_major_reference(p, x, pol, 0.0, grid, 0.025, 3, 0)
    with pytest.raises(BlowupError) as got:
        simulate_lifted_perturbed(p, x, pol, 0.0, grid, 0.025, 3, 0)
    assert str(got.value) == str(ref.value)
    assert int(str(got.value).rsplit(" ", 1)[1]) > 1


def _shock(monkeypatch, path_index, row, step, value):
    """Put value at (row, step) of path_index's noise draw, for the scheme
    and for the path-major reference alike, and count the draws."""
    normals, calls = sdde.path_normals, []

    def shocked(seed, index, shape):
        calls.append(index)
        out = normals(seed, index, shape)
        if index == path_index and row < len(out):
            out[row, step] = value
        return out

    monkeypatch.setattr(approximation, "path_normals", shocked)
    monkeypatch.setitem(globals(), "path_normals", shocked)
    return calls


def _same_blowup(got_run, ref_run):
    """Both raise BlowupError with one message; the step it names."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as ref:
            ref_run()
    with pytest.raises(BlowupError) as got:
        got_run()
    assert str(got.value) == str(ref.value)
    return int(str(got.value).rsplit(" ", 1)[1])


@pytest.mark.parametrize("eps1", [0.0, 0.3])
@pytest.mark.parametrize("b1", sorted(KERNELS_B1))
@pytest.mark.parametrize("a1", sorted(KERNELS_A1))
def test_one_check_per_block_names_the_step_of_the_per_step_check(
    monkeypatch, a1, b1, eps1
):
    # a non-finite noise entry stays non-finite through every later step,
    # so the check after the block's last step, and the block's re-run
    # checking every step, name the step the per-step reference names: at
    # the first, a middle and the last step, and in the second path block
    p, x, pol, grid, dt = _battery_case(a1, b1)
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    steps, n = round(p.T / dt), BATTERY_BLOCK + 3
    perturbed = eps1 > 0 and not kernel_is_zero(p.b1)
    places = [(1, 0), (2, steps // 2), (0, steps - 1), (BATTERY_BLOCK + 1, 37)]
    for row in (0, 1) if perturbed else (0,):
        for path_index, step in places:
            for value in (np.inf, -np.inf, np.nan):
                _shock(monkeypatch, path_index, row, step, value)
                named = _same_blowup(
                    lambda: simulate_lifted_perturbed(p, x, pol, eps1, grid, dt, n, 11),
                    lambda: _path_major_reference(p, x, pol, eps1, grid, dt, n, 11),
                )
                assert named == step + 1


@pytest.mark.parametrize("node", [0, 10, 20, None])
def test_a_non_finite_initial_profile_fails_at_step_1(node):
    # node None puts the NaN in y0; either way the per-step reference and
    # the block's re-run both fail at the first step
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    x1 = np.array(x.x1)
    if node is not None:
        x1[node] = np.nan
    bad = ProfileX(np.nan if node is None else x.x0, x1)
    named = _same_blowup(
        lambda: simulate_lifted_perturbed(p, bad, pol, 0.3, grid, dt, 3, 11),
        lambda: _path_major_reference(p, bad, pol, 0.3, grid, dt, 3, 11),
    )
    assert named == 1


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "eps1, path_index, step",
    [([0.3], BATTERY_BLOCK + 1, 20), ([0.0, 0.3], 1, 2), ([0.0, 0.3], 6, 30)],
)
def test_a_blowup_rerun_draws_no_noise_twice(monkeypatch, cpus, eps1, path_index, step):
    # the y1 row's inf blows up eps1 = 0.3 alone; its block runs again on
    # the noise already drawn, so every path is drawn exactly once
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(approximation, "PATH_BLOCK", BATTERY_BLOCK)
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    n = BATTERY_BLOCK + 3
    calls = _shock(monkeypatch, path_index, 1, step, np.inf)
    with pytest.raises(BlowupError, match=f"at step {step + 1}$"):
        simulate_lifted_perturbed(p, x, pol, eps1, grid, dt, n, 11)
    assert sorted(calls) == list(range(n))


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_lifted_scheme_leaves_no_reference_cycle(monkeypatch, cpus):
    # with the collector off, every buffer of a call is freed when the call
    # returns: nothing is left for gc.collect() to find
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    p, x, pol, grid, dt = _battery_case("exponential", "exponential")
    t = np.linspace(0.0, 1.0, 41)
    hist = HistoryPair(grid=grid, x0=1.0, x1=np.exp(grid.nodes), delta=np.zeros(21))
    obj = sdde.ObjectiveSpec(phi0=sdde.LinearReward(1.0), h0=sdde.QuadraticCost(0.5))
    runs = [
        lambda: simulate_lifted_perturbed(p, x, pol, 0.3, grid, dt, 600, 11),
        lambda: simulate_lifted_perturbed(p, x, pol, [0.0, 0.3], grid, dt, 600, 11),
        lambda: convergence_study(
            p, x, pol, 1.0, 0.5, 0.3, [0.0, 0.3], [0.4, 0.1], grid, dt, 600, 5
        ),
        lambda: sdde.evaluate_policy(
            p, hist, OpenLoop(t=t, z=np.ones_like(t)), obj, dt, 600, 3
        ),
    ]
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_lifted_scheme_is_affine_in_its_noise(monkeypatch):
    # under an open-loop policy y0(T) is affine in a path's two rows of
    # normals: mu, the sigma = eps1 = 0 run, plus each normal times the
    # response to a unit kick in its row and step, read at the shipped
    # model with eps1 = 0.1, dt the grid spacing (8.0e-14 relative or less)
    cfg, seed = cli.load_defaults(), 7
    p, grid, history = cli._model(cfg)
    cs = lq.solve_costate(p, cfg["gamma"], cfg["beta"], cfg["dt"])
    policy = lq.optimal_policy_lq(cs, p)
    x = lift_M(history.x0, history.x1, history.delta, p, grid)
    dt = grid.spacing
    kicks = 2 * round(p.T / dt)  # the y0 row, then the rank-one row
    real = simulate_lifted_perturbed(p, x, policy, 0.1, grid, dt, 32, seed).y0
    xi = path_normals(seed, 0, kicks, 32)  # both rows of each path, flat
    quiet = replace(p, sigma=0.0)
    mu = simulate_lifted_perturbed(quiet, x, policy, 0.0, grid, dt, 1, seed).y0[0]
    monkeypatch.setattr(approximation, "path_normals", unit_kicks)
    kicked = simulate_lifted_perturbed(p, x, policy, 0.1, grid, dt, kicks, seed).y0
    want = mu + xi @ (kicked - mu)
    assert np.max(np.abs(real - want) / np.abs(real)) <= 1e-12


# --- convergence table --------------------------------------------------------


def _study(eps1_seq, eps2_seq, n_paths=2000):
    grid = SegmentGrid(0.5, 101)
    p = make_params(sigma=0.3, b1=ExponentialKernel(1.0, math.inf))
    dt = grid.spacing
    t = dt * np.arange(round(1.0 / dt) + 1)
    zc = 0.5
    pol = OpenLoop(t=t, z=np.full_like(t, zc))
    x = ProfileX(1.0, zc * (grid.nodes + 0.5))  # stationary lifted control tail
    # E y(T) for constant control: both delay channels act like drift
    # b0 z + b1-mass z once the tail is loaded
    gamma, beta = 1.0, 0.5
    drift = (p.b0 + 0.5 * 1.0) * zc
    ey = np.exp(p.a0) * 1.0 + drift * (1 - np.exp(p.a0)) / (-p.a0)
    baseline = gamma * ey - beta * zc**2 * p.T
    rows = convergence_study(
        p, x, pol, gamma, beta, baseline, eps1_seq, eps2_seq, grid, dt, n_paths, 5
    )
    return rows


def test_convergence_gap_shrinks_with_eps2():
    rows = _study([0.0], [0.4, 0.1, 0.05])
    gaps = [r.gap for r in rows]
    assert gaps[0] > gaps[-1]
    assert gaps[-1] <= 3 * rows[-1].stderr + 0.02


def test_convergence_eps1_independent_for_linear_reward():
    rows = _study([0.0, 0.2], [0.1])
    assert abs(rows[0].j_eps - rows[1].j_eps) <= 3 * np.hypot(
        rows[0].stderr, rows[1].stderr
    )


def test_convergence_one_path_stderr_is_nan():
    # one path carries no spread information: NaN on purpose, no warning
    rows = _study([0.0, 0.2], [0.4, 0.1], n_paths=1)
    assert all(np.isfinite(r.j_eps) and np.isnan(r.stderr) for r in rows)


def test_convergence_cost_overflow_is_a_blowup():
    # a control of 1e300 makes beta * z^2 overflow: a numerical failure
    # named after the row, not rows of nan
    grid = SegmentGrid(0.5, 101)
    dt = grid.spacing
    t = dt * np.arange(round(1.0 / dt) + 1)
    pol = OpenLoop(t=t, z=np.full_like(t, 1e300))
    message = r"^J_eps left the finite range at eps1=0.0, eps2=0.4$"
    with pytest.raises(BlowupError, match=message):
        convergence_study(
            make_params(), ProfileX(1.0, np.zeros(101)), pol, 1.0, 0.5, 0.0,
            [0.0], [0.4], grid, dt, 2, 5,
        )


def test_convergence_csv_layout():
    # the convergence table is written by the CLI's column writer
    cfg = merged_config(
        None,
        {"n_paths": 50, "dt": 0.01, "n_nodes": 51, "eps1_list": [0.0],
         "eps2_list": [0.4, 0.1]},
    )
    lines = run_approx(cfg).strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "eps1,eps2,J_eps,stderr,gap"
    assert len(lines) == 2 + 2
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.4
