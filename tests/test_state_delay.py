import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodwill import sdde
from goodwill.hilbert import ExponentialKernel, PointDelay, SegmentGrid
from goodwill.lq import hamiltonian, trajectory_variance
from goodwill.sdde import (
    PATH_BLOCK,
    BlowupError,
    ConfigurationError,
    FeedbackPolicy,
    HistoryPair,
    ModelParams,
    OpenLoop,
    simulate_paths,
)
from goodwill.state_delay import (
    HamiltonianSpec,
    feedback_bangbang,
    feedback_quadratic,
    invariant_measure_condition,
    quadratic_feedback_policy,
    simulate_feedback,
)


def quad_spec(**kw):
    base = dict(cost="quadratic", beta=0.5, b0=1.0, sigma=1.0, R=10.0)
    base.update(kw)
    return HamiltonianSpec(**base)


def lin_spec(**kw):
    base = dict(cost="linear", beta=0.5, b0=1.0, sigma=1.0, R=10.0)
    base.update(kw)
    return HamiltonianSpec(**base)


# --- Hamiltonians -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("cubic", 0.5, 1.0, 1.0, 10.0)
    for field in ("beta", "b0", "R"):
        with pytest.raises(ConfigurationError, match="must all be positive"):
            quad_spec(**{field: 0.0})
    with pytest.raises(ConfigurationError, match="sigma >= 0"):
        quad_spec(sigma=-0.5)
    for field in ("beta", "b0", "sigma", "R"):
        with pytest.raises(ConfigurationError, match="must all be positive"):
            quad_spec(**{field: float("nan")})
    assert quad_spec(R=np.inf).R == np.inf  # an unbounded control set is fine


def H(p0, s):
    """The shared control Hamiltonian at p = b0 * p0 over U = [0, R]: the
    gain of the state equation's control, b0 z, priced by h0."""
    return hamiltonian(s.b0 * p0, s.beta, 0.0, s.R, s.cost)


def test_h0_quadratic_branches():
    s = quad_spec()  # beta = 0.5, b0 = 1, R = 10
    assert H(-1.0, s) == 0.0
    assert H(1.0, s) == pytest.approx(0.5)  # p^2/(4 beta)
    # saturation above 2 beta R / b0 = 10
    assert H(20.0, s) == pytest.approx(20.0 * 10.0 - 0.5 * 100.0)


def test_h0_linear_branches():
    s = lin_spec()  # beta = 0.5, b0 = 1
    assert H(0.2, s) == 0.0
    assert H(2.0, s) == pytest.approx((2.0 - 0.5) * 10.0)


@settings(max_examples=120, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20), st.sampled_from(["quadratic", "linear"]))
def test_h0_convex_and_monotone(p, q, cost):
    s = quad_spec() if cost == "quadratic" else lin_spec()
    mid = H(0.5 * (p + q), s)
    avg = 0.5 * (H(p, s) + H(q, s))
    assert mid <= avg + 1e-9 * (1 + abs(avg))
    if p <= q:
        assert H(p, s) <= H(q, s) + 1e-12


@settings(max_examples=120, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_h0_lipschitz_bounded_by_control_range(p, q):
    # the gradient in p0 is b0 z*, so its sup is b0 R
    s = quad_spec(b0=1.5)
    lhs = abs(H(p, s) - H(q, s))
    assert lhs <= s.b0 * s.R * abs(p - q) + 1e-9


# --- feedback maps ------------------------------------------------------------


def test_quadratic_feedback_examples():
    s = quad_spec()
    assert feedback_quadratic(-1.0, s) == 0.0
    assert feedback_quadratic(1.0, s) == pytest.approx(1.0)
    assert feedback_quadratic(100.0, s) == 10.0
    np.testing.assert_allclose(
        feedback_quadratic(np.array([-1.0, 1.0, 100.0]), s), [0.0, 1.0, 10.0]
    )
    with pytest.raises(ConfigurationError):
        feedback_quadratic(1.0, lin_spec())


def test_bangbang_examples():
    s = lin_spec()
    thr = s.beta / s.b0
    assert feedback_bangbang(thr - 0.01, s) == 0.0
    assert feedback_bangbang(thr + 0.01, s) == 10.0
    assert feedback_bangbang(thr, s, tie_value=3.0) == 3.0
    with pytest.raises(ConfigurationError):
        feedback_bangbang(1.0, s, tie_value=-1.0)
    with pytest.raises(ConfigurationError):
        feedback_bangbang(1.0, quad_spec())


@settings(max_examples=120, deadline=None)
@given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(0, 10))
def test_bangbang_ties_at_beta_over_b0(beta, b0, tie):
    # d0v is compared with beta / b0 itself, not b0 * d0v with beta
    s = lin_spec(beta=beta, b0=b0)
    assert feedback_bangbang(s.beta / s.b0, s, tie_value=tie) == tie


@settings(max_examples=120, deadline=None)
@given(st.floats(-10, 10))
def test_feedback_maps_range(d0v):
    q, l = quad_spec(), lin_spec()
    assert 0.0 <= feedback_quadratic(d0v, q) <= q.R
    assert feedback_bangbang(d0v, l) in (0.0, l.R)


# --- closed-loop simulation ---------------------------------------------------


def make_params(**kw):
    base = dict(
        a0=-0.5, a1=ExponentialKernel(0.0, math.inf), b0=1.0,
        b1=ExponentialKernel(0.0, math.inf), sigma=0.3, r=0.5, T=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


def make_history(grid, x0=2.0):
    x1 = x0 * np.exp(-np.abs(grid.nodes))
    x1[-1] = x0
    return HistoryPair(grid=grid, x0=x0, x1=x1, delta=np.zeros(grid.n_nodes))


def test_simulate_feedback_rejects_kernels():
    grid = SegmentGrid(0.5, 11)
    p = make_params(b1=ExponentialKernel(1.0, math.inf))
    pol = quadratic_feedback_policy(quad_spec(), lambda t, y: 1.0)
    with pytest.raises(ConfigurationError):
        simulate_feedback(p, -0.5, make_history(grid), pol, 0.05, 2, 0)


def closed_loop(p, a1_scalar, history, policy, dt, n_paths, seed):
    """simulate_feedback's terminal record, checked bit for bit against the
    terminal column of one simulate_paths pass that keeps whole paths,
    which is returned for the full-path assertions."""
    fb = simulate_feedback(p, a1_scalar, history, policy, dt, n_paths, seed)
    full = simulate_paths(
        replace(p, a1=PointDelay(a1_scalar)), history, policy, dt, n_paths, seed
    )
    np.testing.assert_array_equal(fb.t, full.t[-1:])
    np.testing.assert_array_equal(fb.y, full.y[:, -1:])
    np.testing.assert_array_equal(fb.z, full.z[:, -1:])
    assert fb.clip_count == full.clip_count
    assert (fb.dt, fb.seed, fb.n_paths) == (dt, seed, n_paths)
    return full


def test_saturated_feedback_matches_open_loop_exactly():
    grid = SegmentGrid(0.5, 11)
    p = make_params()
    pol = quadratic_feedback_policy(quad_spec(), lambda t, y: 1e6)
    fb = closed_loop(p, -0.5, make_history(grid), pol, 0.01, 8, 7)

    t = 0.01 * np.arange(101)
    ol = simulate_paths(
        replace(p, a1=PointDelay(-0.5)),
        make_history(grid),
        OpenLoop(t=t, z=np.full(101, 10.0)),
        0.01,
        8,
        7,
    )
    np.testing.assert_array_equal(fb.y, ol.y)
    np.testing.assert_array_equal(fb.z, np.full_like(fb.z, 10.0))


def test_negative_gradient_switches_off_control():
    grid = SegmentGrid(0.5, 11)
    p = make_params()
    pol = FeedbackPolicy(lambda t, y: feedback_bangbang(-1.0, lin_spec()))
    fb = closed_loop(p, -0.5, make_history(grid), pol, 0.01, 4, 3)
    np.testing.assert_array_equal(fb.z, np.zeros_like(fb.z))


def test_state_independent_gradient_reproduces_open_loop_lq():
    # gradient_fn(t, y) = w0(t) does not look at y, so the closed loop
    # must coincide path by path with the open-loop memoryless control
    from goodwill.lq import memoryless_policy

    grid = SegmentGrid(0.5, 11)
    p = make_params()
    grad = lambda t, y: np.exp(p.a0 * (p.T - t))  # gamma e^{a0 (T-t)}
    pol = quadratic_feedback_policy(quad_spec(beta=0.5), grad)
    fb = closed_loop(p, 0.0, make_history(grid), pol, 0.01, 16, 5)

    ol = simulate_paths(
        p, make_history(grid), memoryless_policy(p, 1.0, 0.5), 0.01, 16, 5
    )
    np.testing.assert_allclose(fb.y, ol.y, atol=1e-10)


def test_noiseless_closed_loop_builds_its_spec():
    # no feedback map reads sigma, so a sigma = 0 spec drives a sigma = 0
    # closed loop: every path is the one noiseless path, and a gradient that
    # does not look at y gives the open-loop memoryless run
    from goodwill.lq import memoryless_policy

    grid = SegmentGrid(0.5, 11)
    p = make_params(sigma=0.0)
    grad = lambda t, y: np.exp(p.a0 * (p.T - t))
    pol = quadratic_feedback_policy(quad_spec(sigma=0.0), grad)
    fb = closed_loop(p, 0.0, make_history(grid), pol, 0.01, 4, 5)
    assert (fb.y == fb.y[:1]).all() and (fb.z == fb.z[:1]).all()
    ol = simulate_paths(p, make_history(grid), memoryless_policy(p, 1.0, 0.5), 0.01, 4, 5)
    np.testing.assert_allclose(fb.y, ol.y, atol=1e-10)


# --- closed loop in path blocks -----------------------------------------------

BLOCK_DT = 0.05  # 20 steps and a 10-step lag keep the many-path runs cheap


def clipping_setup():
    # z = 3 - y leaves [0, 1] for paths above 3 and below 2, so both
    # bounds clip; the policy acts path-wise, as blocks require
    p = make_params(sigma=1.0, u_max=1.0)
    return p, make_history(SegmentGrid(0.5, 11)), FeedbackPolicy(lambda t, y: 3.0 - y)


@pytest.mark.parametrize("n_paths", [PATH_BLOCK + 1, 2 * PATH_BLOCK + 3])
def test_feedback_blocks_equal_one_pass(n_paths):
    # the last block may hold a single path; the clip count sums over blocks
    p, history, policy = clipping_setup()
    full = closed_loop(p, -0.5, history, policy, BLOCK_DT, n_paths, 9)
    assert full.clip_count > n_paths


def test_feedback_blowup_in_a_later_block_names_the_global_path(monkeypatch):
    # one path of the second block gets a huge shock at its 4th step
    target = PATH_BLOCK + 7
    normals = sdde.path_normals

    def shocked(seed, first, shape, n_paths):
        out = normals(seed, first, shape, n_paths)
        if 0 <= target - first < n_paths:
            out[target - first, 3] = 1e15
        return out

    monkeypatch.setattr(sdde, "path_normals", shocked)
    p, history, policy = clipping_setup()
    with pytest.raises(BlowupError, match=rf"^path {target} .* at step 4 "):
        simulate_feedback(p, -0.5, history, policy, BLOCK_DT, PATH_BLOCK + 10, 2)


@pytest.mark.parametrize("n_paths", [0, -1])
def test_feedback_needs_a_path(n_paths):
    p, history, policy = clipping_setup()
    with pytest.raises(ConfigurationError, match="n_paths must be at least 1"):
        simulate_feedback(p, -0.5, history, policy, BLOCK_DT, n_paths, 0)


def test_feedback_peak_memory_does_not_grow_with_paths():
    # sizes, not timing: the peak is set by one block, not by the path count
    p, history, policy = clipping_setup()

    def peak(n_paths):
        tracemalloc.start()
        try:
            simulate_feedback(p, -0.5, history, policy, BLOCK_DT, n_paths, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * PATH_BLOCK + 1) <= 1.5 * peak(PATH_BLOCK)


@pytest.mark.parametrize("T", [0.3, 0.5, 1.7])
def test_feedback_equals_whole_paths_before_and_after_the_history(T):
    # r = 0.5 and dt = 0.01 (m = 50): the run ends while the lag still
    # reads history rows, as it reads the last one, and long after;
    # closed_loop compares y(T), z(T) and the clip count with the last
    # column of whole paths
    p, history, policy = clipping_setup()
    full = closed_loop(replace(p, T=T), -0.5, history, policy, 0.01, 5, 4)
    assert full.clip_count > 0


def test_feedback_block_holds_states_and_controls_only():
    # sizes, not timing: one block holds its steps + 1 state rows, the
    # noise copied into them, and one control row, reused every step (b1
    # = 0 reads no past control); its lag reads one history shared by
    # every path, so it keeps no history rows, no noise array and no
    # per-path cost array
    p, history, policy = clipping_setup()
    dt, steps = 0.005, 400  # m = 100, so steps = 4m
    tracemalloc.start()
    try:
        simulate_feedback(replace(p, T=2.0), -0.5, history, policy, dt, PATH_BLOCK, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * PATH_BLOCK * ((steps + 1) + 1)


@pytest.mark.parametrize("cpus", [8, 32])
@pytest.mark.parametrize(
    "check",
    [test_feedback_peak_memory_does_not_grow_with_paths,
     test_feedback_block_holds_states_and_controls_only],
    ids=["peak_does_not_grow", "one_block"],
)
def test_feedback_memory_bounds_hold_at_many_cpus(monkeypatch, check, cpus):
    # the noise threads' runs hold 64 paths at most, so the bounds above
    # hold unchanged with 8 threads (32 CPUs still make 8)
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)
    check()


# --- invariant measure condition ----------------------------------------------


def test_condition_cot_a0_zero():
    rep = invariant_measure_condition(0.0, -1.0, r=1)
    assert rep.gamma_root == pytest.approx(np.pi / 2, abs=1e-10)
    assert rep.upper_bound == pytest.approx(np.pi / 2, abs=1e-10)
    assert rep.holds


def test_condition_cot_a0_minus_one():
    rep = invariant_measure_condition(-1.0, -2.0, r=1)
    assert rep.gamma_root == pytest.approx(2.0288, abs=2e-4)
    assert rep.upper_bound == pytest.approx(2.2618, abs=2e-4)
    assert rep.holds
    assert not invariant_measure_condition(-1.0, -3.0, r=1).holds


def test_condition_root_solves_equation():
    rep = invariant_measure_condition(-2.5, -1.0, r=1)
    g = rep.gamma_root
    assert g / np.tan(g) == pytest.approx(-2.5, abs=1e-9)


def test_condition_has_no_root_once_a0_r_reaches_one():
    # g*cot(g) decreases from 1 on ]0, pi[, so a = a0*r >= 1 has no root
    for a0, r in ((1.0, 1.0), (3.0, 0.5)):
        rep = invariant_measure_condition(a0, -2.0, r)
        assert not rep.holds
        assert rep.gamma_root is None and rep.upper_bound is None
        assert "no root" in rep.diagnostic


def rightmost_root(a0, a1, r):
    """Real part of the rightmost root of lambda = a0 + a1 e^{-lambda r}:
    a0 + W_0(a1 r e^{-a0 r}) / r, W_0 the principal Lambert W branch
    (Shinozaki & Mori 2006)."""
    from scipy.special import lambertw

    return a0 + lambertw(a1 * r * np.exp(-a0 * r)).real / r


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_condition_agrees_with_the_lambert_w_root(r):
    # the condition holds exactly when every root lies left of the axis
    rng = np.random.default_rng(2007)
    a0 = rng.uniform(-4.0, 0.0, 500)
    a1 = rng.uniform(-6.0, 2.0, 500)
    root = rightmost_root(a0, a1, r)
    clear = np.abs(root) > 1e-9  # no pair sits on the boundary
    holds = [invariant_measure_condition(a, b, r).holds for a, b in zip(a0, a1)]
    np.testing.assert_array_equal(np.array(holds)[clear], (root < 0)[clear])
    assert clear.sum() > 490


def test_condition_holds_at_the_shipped_delay_where_r1_fails():
    # stable at r = 0.5 (rightmost root -0.611), unstable at r = 1
    assert rightmost_root(-1.0, -2.5, 0.5) == pytest.approx(-0.611, abs=5e-4)
    assert invariant_measure_condition(-1.0, -2.5, r=0.5).holds
    assert rightmost_root(-1.0, -2.5, 1.0) > 0
    assert not invariant_measure_condition(-1.0, -2.5, r=1).holds


@pytest.mark.parametrize(
    "a0, a1, r, message",
    [
        (-1.0, -2.0, 0.0, "r must be positive"),
        (-1.0, -2.0, -0.5, "r must be positive"),
        (-1.0, -2.0, np.inf, "r must be positive"),
        (-1.0, -2.0, np.nan, "r must be positive"),
        (np.nan, -2.0, 0.5, "a0 and a1 must be finite"),
        (-np.inf, -1.0, 0.5, "a0 and a1 must be finite"),
        (-1.0, np.inf, 0.5, "a0 and a1 must be finite"),
        (-1.0, np.nan, 0.5, "a0 and a1 must be finite"),
        # finite coefficients whose scaled pair a0*r, a1*r overflows
        (-1e308, -1.0, 2.0, "a0 and a1 must be finite, times r=2.0 too"),
        (-1.0, 1e308, 2.0, "a0 and a1 must be finite, times r=2.0 too"),
    ],
)
def test_condition_rejects_a_bad_delay(a0, a1, r, message):
    with pytest.raises(ConfigurationError, match=message):
        invariant_measure_condition(a0, a1, r)


def test_cot_root_bisection_matches_brentq():
    # the bisection stands in for the brentq call the condition once made
    from scipy.optimize import brentq

    from goodwill.state_delay import _cot_root

    for a in np.linspace(-50.0, 0.9, 201):
        g = _cot_root(a)
        want = brentq(lambda g: g / np.tan(g) - a, 1e-12, np.pi - 1e-12, xtol=1e-14)
        assert g == pytest.approx(want, rel=1e-13), a


def test_import_leaves_scipy_unloaded():
    # goodwill needs numpy only, the stability condition included; the
    # noise threads' pool and numpy.random (each thread's generator) are
    # imported at the first draw, never at import
    import os
    import subprocess
    import sys
    from pathlib import Path

    import goodwill

    code = (
        "import sys, goodwill, goodwill.cli; "
        "goodwill.state_delay.invariant_measure_condition(-1.0, -2.0, 0.5); "
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules, "
        "'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(goodwill.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["False", "False", "False"]


# --- stationary variance --------------------------------------------------------

# stable (a0, a1, r): the Kuechler-Mensch values of each are in ROADMAP item 7
STABLE = [
    (-1.0, -0.5, 1.0),
    (-1.0, -2.0, 1.0),
    (-2.0, 1.0, 1.0),
    (-1.0, -2.5, 0.5),
    (-1.0, 0.5, 2.0),
]
SIGMA, HORIZON = 0.5, 40.0  # e^{2 lambda T} < 1e-3 at the slowest root, -0.092


def stationary_variance(a0, a1, r, sigma):
    """sigma^2 int_0^inf phi^2 of dy = (a0 y + a1 y(t - r)) dt + sigma dW.

    Kuechler & Mensch (1992) give it at delay 1 and unit sigma as V(a, b);
    scaling time by r makes it sigma^2 r V(a0 r, a1 r).
    """
    a, b = a0 * r, a1 * r
    if abs(b) < -a:
        w = np.sqrt(a * a - b * b)
        v = (b * np.sinh(w) - w) / (2 * w * (a + b * np.cosh(w)))
    else:
        w = np.sqrt(b * b - a * a)
        v = (b * np.sin(w) - w) / (2 * w * (a + b * np.cos(w)))
    return sigma**2 * r * v


@pytest.mark.parametrize("a0, a1, r", STABLE)
def test_trajectory_variance_reaches_the_stationary_variance(a0, a1, r):
    # RK4 at dt = 0.01 on 401 nodes: the largest error is 1.6e-3 relative,
    # at (-1, -2, 1), and it halves with dt and the node spacing
    assert invariant_measure_condition(a0, a1, r).holds
    p = ModelParams(a0=a0, a1=PointDelay(a1), b0=1.0, b1=ExponentialKernel(0.0, math.inf),
                    sigma=SIGMA, r=r, T=HORIZON)
    got = trajectory_variance(HORIZON, p, SegmentGrid(r, 401), 0.01)
    assert got == pytest.approx(stationary_variance(a0, a1, r, SIGMA), rel=3e-3)


@pytest.mark.parametrize("a0, a1, r", STABLE)
def test_uncontrolled_sample_variance_reaches_the_stationary_variance(a0, a1, r):
    # 2000 zero-control paths from a zero history: the sample variance of
    # y(T) within 3 of its standard errors, sqrt(2 / (n - 1)) of it, plus
    # an Euler allowance of 6 dt relative (the variance of the Euler scheme
    # itself is off by at most 5.6 dt relative over these five, at
    # (-1, -2, 1), and halving dt halves it)
    dt, n_paths = 0.01, 2000
    p = ModelParams(a0=a0, a1=ExponentialKernel(0.0, math.inf), b0=1.0,
                    b1=ExponentialKernel(0.0, math.inf), sigma=SIGMA, r=r, T=HORIZON)
    grid = SegmentGrid(r, 11)
    zero = HistoryPair(grid=grid, x0=0.0, x1=np.zeros(11), delta=np.zeros(11))
    off = FeedbackPolicy(lambda t, y: np.zeros_like(y))
    ens = simulate_feedback(p, a1, zero, off, dt, n_paths, 1)
    s2 = float(np.var(ens.y[:, 0], ddof=1))
    want = stationary_variance(a0, a1, r, SIGMA)
    assert abs(s2 - want) <= 3 * s2 * np.sqrt(2 / (n_paths - 1)) + 6 * dt * want
