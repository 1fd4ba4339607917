import concurrent.futures
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import ResummedWindow

from goodwill import lq, sdde, state_delay

from goodwill.hilbert import (
    DelayWindow,
    ExponentialKernel,
    PointDelay,
    SegmentGrid,
    kernel_eval,
)
from goodwill.sdde import (
    PATH_BLOCK,
    BlowupError,
    ConfigurationError,
    FeedbackPolicy,
    HistoryPair,
    LinearReward,
    MCEstimate,
    Memoryless,
    ModelParams,
    ObjectiveSpec,
    OpenLoop,
    QuadraticCost,
    evaluate_policy,
    objective_estimate,
    path_normals,
    relative_gap,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0,
        a1=ExponentialKernel(0.0, math.inf),
        b0=1.0,
        b1=ExponentialKernel(0.0, math.inf),
        sigma=0.0,
        r=0.5,
        T=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


def make_history(grid, x0=1.0, x1=None, delta=None):
    n = grid.n_nodes
    if x1 is None:
        x1 = np.full(n, float(x0))
    if delta is None:
        delta = np.zeros(n)
    return HistoryPair(grid=grid, x0=x0, x1=x1, delta=delta)


def zero_policy(T, dt):
    t = dt * np.arange(round(T / dt) + 1)
    return OpenLoop(t=t, z=np.zeros_like(t))


GRID = SegmentGrid(0.5, 51)


# --- parameter and history validation ----------------------------------------


def test_params_reject_positive_a0():
    with pytest.raises(ConfigurationError):
        make_params(a0=0.1)


def test_params_reject_negative_b0_and_b1():
    with pytest.raises(ConfigurationError):
        make_params(b0=-1.0)
    with pytest.raises(ConfigurationError):
        make_params(b1=ExponentialKernel(-1.0, math.inf))
    with pytest.raises(ConfigurationError):
        make_params(b1=ExponentialKernel(-5.0, 0.5))


def test_params_reject_a_negative_point_b1():
    with pytest.raises(ConfigurationError, match="b1 must be non-negative"):
        make_params(b1=PointDelay(-1.0))
    assert make_params(a1=PointDelay(-1.0), b1=PointDelay(0.0)).a1.amp == -1.0


def test_params_reject_bad_control_bounds():
    with pytest.raises(ConfigurationError):
        make_params(u_min=2.0, u_max=1.0)
    with pytest.raises(ConfigurationError):
        make_params(u_min=-1.0)


def test_params_reject_negative_sigma():
    with pytest.raises(ConfigurationError, match="sigma must be >= 0"):
        make_params(sigma=-1.0)
    assert make_params(sigma=0.0).sigma == 0.0  # noiseless models stay valid


@pytest.mark.parametrize(
    "field, message",
    [
        ("a0", "a0 must be <= 0"),
        ("b0", "b0 must be >= 0"),
        ("sigma", "sigma must be >= 0"),
        ("r", "r and T must be positive"),
        ("T", "r and T must be positive"),
    ],
)
def test_params_reject_nan(field, message):
    # a nan fails every comparison, so a check written as `x > 0 -> refuse`
    # would let it through to the solvers
    with pytest.raises(ConfigurationError, match=message):
        make_params(**{field: float("nan")})


def test_history_requires_matching_endpoint():
    x1 = np.full(GRID.n_nodes, 1.0)
    x1[-1] = 2.0
    with pytest.raises(ConfigurationError):
        make_history(GRID, x0=1.0, x1=x1)


@pytest.mark.parametrize(
    "x1, delta",
    [
        (np.ones((201, 2)), np.zeros(201)),  # a 2-d profile of the grid's length
        (np.ones(201), np.zeros((201, 1))),
        (np.ones(200), np.zeros(201)),
    ],
    ids=["x1_2d", "delta_2d", "x1_short"],
)
def test_history_profiles_must_be_1d_on_the_grid(x1, delta):
    grid = SegmentGrid(0.5, 201)
    with pytest.raises(ConfigurationError, match="1-d and live on the grid"):
        HistoryPair(grid, 1.0, x1, delta)


def test_history_rejects_negative_values():
    with pytest.raises(ConfigurationError):
        make_history(GRID, x0=-1.0, x1=np.full(GRID.n_nodes, -1.0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["x0", "x1", "delta"])
def test_history_refuses_non_finite_values(where, value):
    # a nan or an infinite x0 with x1(0) equal to it passes both `< 0` and
    # the endpoint check (inf - inf is nan), so each needs its own refusal
    x1, delta = np.ones(GRID.n_nodes), np.zeros(GRID.n_nodes)
    if where == "x0":
        x1[-1] = value
    else:
        {"x1": x1, "delta": delta}[where][3] = value
    with pytest.raises(ConfigurationError, match="non-negative and finite"):
        make_history(GRID, x0=float(x1[-1]), x1=x1, delta=delta)


# --- deterministic simulation oracles ----------------------------------------


def test_exponential_decay():
    # sigma=0, no delays, z=0: plain y' = -y from y(0)=1
    p = make_params()
    hist = make_history(GRID)
    dt = 1e-4
    ens = simulate_paths(p, hist, zero_policy(p.T, dt), dt, 1, 0)
    assert ens.y[0, -1] == pytest.approx(np.exp(-1.0), abs=5e-4)


def test_constant_drift_exact():
    # Euler is exact when the drift does not depend on the state
    p = make_params(a0=0.0, b0=1.0)
    hist = make_history(GRID, x0=2.0)
    dt = 0.05
    t = dt * np.arange(21)
    ens = simulate_paths(p, hist, OpenLoop(t=t, z=np.full(21, 3.0)), dt, 1, 0)
    assert ens.y[0, -1] == pytest.approx(2.0 + 3.0 * 1.0, abs=1e-12)


def _method_of_steps(a0, a1_const, r, T, x0, dt):
    """Reference solver for y' = a0 y + a1_const * int_{-r}^0 y(t+xi) dxi
    with y == x0 on [-r, 0], on its own fine grid (trapezoid + Heun)."""
    m = round(r / dt)
    steps = round(T / dt)
    y = np.empty(m + steps + 1)
    y[: m + 1] = x0
    w = np.full(m + 1, dt)
    w[0] = w[-1] = dt / 2

    def f(k, yk):
        seg = y[k - m : k + 1].copy()
        seg[-1] = yk
        return a0 * yk + a1_const * np.dot(w, seg)

    for k in range(m, m + steps):
        k1 = f(k, y[k])
        pred = y[k] + dt * k1
        y[k + 1] = y[k] + dt / 2 * (k1 + a0 * pred + a1_const * np.dot(w, np.append(y[k + 1 - m : k + 1], pred)))
    return y[-1]


def test_point_b1_matches_closed_form_at_first_order():
    # control 1 over a zero advertising history: the point lag c z(t - r)
    # switches on at t = r, so y' = a0 y + b0 + c 1{t >= r} from y(0) = 1;
    # measured 1.19e-4 of max |y| at dt = 1e-3, ratio 2.00 per halving
    a0, b0, c, r = -0.5, 1.0, 2.0, 0.5
    p = make_params(a0=a0, b0=b0, b1=PointDelay(c), r=r)
    policy = OpenLoop(t=np.array([0.0, p.T]), z=np.ones(2))

    def gap(dt):
        ens = simulate_paths(p, make_history(GRID), policy, dt, 1, 0)
        t = ens.t
        late = np.where(t >= r, c * np.expm1(a0 * (t - r)) / a0, 0.0)
        exact = np.exp(a0 * t) + b0 * np.expm1(a0 * t) / a0 + late
        return np.max(np.abs(ens.y[0] - exact)) / np.max(np.abs(exact))

    coarse, fine = gap(1e-3), gap(5e-4)
    assert coarse <= 2e-4
    assert 1.8 <= coarse / fine <= 2.2


def test_distributed_delay_against_reference():
    a1c = 0.8
    p = make_params(a0=-1.0, a1=ExponentialKernel(a1c, math.inf))
    hist = make_history(GRID, x0=1.0)
    dt = 1e-3
    ens = simulate_paths(p, hist, zero_policy(p.T, dt), dt, 1, 0)
    ref = _method_of_steps(-1.0, a1c, 0.5, 1.0, 1.0, dt / 16)
    assert ens.y[0, -1] == pytest.approx(ref, abs=5e-3)


def test_weak_convergence_order_one():
    p = make_params(a0=-1.0, a1=ExponentialKernel(0.5, math.inf))
    hist = make_history(GRID)
    vals = {}
    for dt in (2e-3, 1e-3, 5e-4):
        ens = simulate_paths(p, hist, zero_policy(p.T, dt), dt, 1, 0)
        vals[dt] = ens.y[0, -1]
    ref = _method_of_steps(-1.0, 0.5, 0.5, 1.0, 1.0, 5e-5)
    e1, e2 = abs(vals[2e-3] - ref), abs(vals[1e-3] - ref)
    assert e2 < e1
    assert e1 / e2 == pytest.approx(2.0, rel=0.5)


def _rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# (m+1)-node grid at dt = 1e-3, so the histories hold their node values
# at every lag of the simulation's window
ORACLE_GRID = SegmentGrid(0.5, 501)
ORACLE_HISTORY = HistoryPair(
    grid=ORACLE_GRID, x0=2.0, x1=2.0 * np.exp(ORACLE_GRID.nodes),
    delta=0.5 * np.ones(501),
)


@pytest.mark.parametrize(
    "a1",
    [
        ExponentialKernel(-5.0, 1 / 6),
        ExponentialKernel(-0.8, math.inf),
        ExponentialKernel(-20.0, 0.01),
    ],
)
def test_a1_recursion_matches_window_sum(a1):
    # the O(1) delay-sum recursion against the full-window quadrature
    dt, T = 1e-3, 5.0
    t = dt * np.arange(round(T / dt) + 1)
    pol = OpenLoop(t=t, z=1.0 + np.sin(t))
    p = make_params(a0=-0.5, a1=a1, b1=ExponentialKernel(2.0, 0.5), sigma=0.5, T=T)
    a = simulate_paths(p, ORACLE_HISTORY, pol, dt, 64, 3)
    y, _ = _padded_euler(p, ORACLE_HISTORY, pol, dt, 64, 3, window=ResummedWindow)
    assert _rel_diff(a.y, y) <= 1e-12


@pytest.mark.parametrize("dt", [1e-3, 5e-5])
def test_every_window_reads_its_kernel_amplitude_at_lag_zero(monkeypatch, dt):
    # r = 0.35, where -r + dt*m is 5.6e-17 at dt = 5e-5, not 0: the windows
    # of simulate_paths (open-loop and feedback) and of solve_costate (with
    # and without a1) read a(0) = amp all the same
    made = []

    class Recording(DelayWindow):
        def __init__(self, kernel, values, *args):
            super().__init__(kernel, values, *args)
            made.append((kernel, self.last))

    for module in (sdde, lq):
        monkeypatch.setattr(module, "DelayWindow", Recording)
    a1, b1 = ExponentialKernel(-1.0, 1 / 6), ExponentialKernel(1.0, 0.5)
    p = make_params(a1=a1, b1=b1, r=0.35, sigma=0.5)
    history = make_history(SegmentGrid(0.35, 36))
    simulate_paths(p, history, _open_loop_wave(p.T, dt), dt, 2, seed=3)
    simulate_paths(p, history, FeedbackPolicy(lambda t, y: 3.0 - 0.5 * y), dt, 2, seed=3)
    for params in (p, make_params(b1=b1, r=0.35)):
        lq.solve_costate(params, 1.0, 0.5, dt)
    assert [k for k, _ in made] == [a1, b1, a1, b1, a1, b1, b1]
    assert all(last == k.amp for k, last in made)


def _open_loop_wave(T, dt):
    t = dt * np.arange(round(T / dt) + 1)
    return OpenLoop(t=t, z=1.5 + np.sin(t))


@pytest.mark.parametrize(
    "b1",
    [
        ExponentialKernel(2.0, 0.5),
        ExponentialKernel(0.8, math.inf),
        ExponentialKernel(30.0, 0.01),
    ],
)
@pytest.mark.parametrize(
    "policy",
    [FeedbackPolicy(lambda t, y: 3.0 - 0.5 * y), _open_loop_wave(5.0, 1e-3)],
    ids=["feedback", "open_loop"],
)
def test_b1_recursion_matches_window_sum(policy, b1):
    # the advertising window takes the same recursion under either policy
    dt, T = 1e-3, 5.0
    a1 = ExponentialKernel(-2.0, 1 / 6)
    p = make_params(a0=-0.5, a1=a1, b1=b1, sigma=0.5, T=T, u_max=2.1)
    a = simulate_paths(p, ORACLE_HISTORY, policy, dt, 64, 3)
    y, z = _padded_euler(p, ORACLE_HISTORY, policy, dt, 64, 3, window=ResummedWindow)
    assert a.clip_count > 0
    assert _rel_diff(a.y, y) <= 1e-12
    assert _rel_diff(a.z, z) <= 1e-12


@pytest.mark.parametrize("n_paths", [1, 3, 16])
@pytest.mark.parametrize(
    "b1", [ExponentialKernel(2.0, 0.5), PointDelay(1.5)], ids=["density", "point"]
)
def test_feedback_replaying_open_loop_is_bit_identical(b1, n_paths):
    # a feedback rule that ignores the state and returns z(t_k) must
    # reproduce the open-loop ensemble bit for bit: the open-loop control
    # terms, taken once per run, equal the feedback loop's per-step
    # multiply and window over one control column per path. The
    # advertising history is nonzero, so the b1 terms read it from step 0
    dt, T = 1e-3, 2.0
    pol = _open_loop_wave(T, dt)
    replay = FeedbackPolicy(lambda t, y: pol.sample(None, t))
    hist = HistoryPair(
        grid=ORACLE_GRID, x0=2.0, x1=2.0 * np.exp(ORACLE_GRID.nodes),
        delta=1.0 + 0.5 * np.sin(7.0 * ORACLE_GRID.nodes),
    )
    p = make_params(
        a0=-0.5, a1=ExponentialKernel(-2.0, 1 / 6), b1=b1, sigma=0.5, T=T, u_max=2.1,
    )
    ol = simulate_paths(p, hist, pol, dt, n_paths, 5)
    fb = simulate_paths(p, hist, replay, dt, n_paths, 5)
    assert fb.clip_count == n_paths * ol.clip_count > 0
    np.testing.assert_array_equal(fb.y, ol.y)
    np.testing.assert_array_equal(fb.z, np.broadcast_to(ol.z, fb.z.shape))


@pytest.mark.parametrize("terminal", [False, True])
def test_feedback_control_of_a_wrong_shape_is_refused(terminal):
    # one number per step broadcasts to every path, one per path too many
    # does not, whether the run keeps every control row or one
    bad = FeedbackPolicy(lambda t, y: np.zeros(len(y) + 1))
    with pytest.raises(ValueError):
        simulate_paths(make_params(), make_history(GRID), bad, 0.05, 4, 0,
                       terminal=terminal)


def test_step_size_errors():
    p = make_params()
    hist = make_history(GRID)
    with pytest.raises(ConfigurationError):
        simulate_paths(p, hist, zero_policy(1.0, 0.6), 0.6, 1, 0)
    with pytest.raises(ConfigurationError):
        # 0.3 does not divide r = 0.5
        simulate_paths(p, hist, zero_policy(1.0, 0.3), 0.3, 1, 0)


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_nonpositive_dt_is_a_config_error(dt):
    # dt = 0 used to divide by zero, a negative dt to "not divide T"
    hist = make_history(GRID)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        simulate_paths(make_params(), hist, zero_policy(1.0, 0.01), dt, 1, 0)


@pytest.mark.parametrize("dt, T", [(1e-300, 1.0), (5e-324, 1.0), (1e-3, 1e9)])
def test_step_count_ceiling_is_a_config_error(dt, T):
    # checked before any array is sized by the step count; 5e-324 makes
    # T/dt overflow to inf, which round() cannot convert
    hist = make_history(GRID)
    with pytest.raises(ConfigurationError, match="steps exceeds the limit"):
        simulate_paths(make_params(T=T), hist, zero_policy(1.0, 0.01), dt, 1, 0)
    with pytest.raises(ConfigurationError, match="steps exceeds the limit"):
        lq.solve_costate(make_params(T=T), 1.0, 0.5, dt)


def test_blowup_error_names_the_step():
    p = make_params(a0=0.0, b0=1.0, u_max=np.inf)
    hist = make_history(GRID)
    t = 0.1 * np.arange(11)
    huge = OpenLoop(t=t, z=np.full(11, 2e12))
    with pytest.raises(BlowupError, match="step"):
        simulate_paths(p, hist, huge, 0.1, 2, 0)


def test_control_clipping_is_counted():
    p = make_params(a0=0.0, u_min=0.0, u_max=1.0)
    hist = make_history(GRID)
    t = 0.1 * np.arange(11)
    z = np.linspace(-1.0, 2.0, 11)  # 4 below 0, 3 above 1
    ens = simulate_paths(p, hist, OpenLoop(t=t, z=z), 0.1, 1, 0)
    assert ens.clip_count == int(np.count_nonzero((z < 0) | (z > 1)))
    assert ens.z.min() >= 0.0 and ens.z.max() <= 1.0


# --- objective ----------------------------------------------------------------


def test_objective_deterministic_mean_and_stderr():
    p = make_params()
    hist = make_history(GRID)
    dt = 1e-3
    ens = simulate_paths(p, hist, zero_policy(p.T, dt), dt, 4, 0)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.0))
    est = objective_estimate(ens, obj)
    assert est.mean == pytest.approx(ens.y[0, -1])
    assert est.stderr == 0.0


def test_objective_constant_control_exact():
    # a0=0, b0=0, z=c: value = gamma*x0 - beta*c^2*T exactly
    p = make_params(a0=0.0, b0=0.0)
    hist = make_history(GRID, x0=2.0)
    dt = 0.01
    t = dt * np.arange(101)
    ens = simulate_paths(p, hist, OpenLoop(t=t, z=np.full(101, 3.0)), dt, 1, 0)
    obj = ObjectiveSpec(phi0=LinearReward(1.5), h0=QuadraticCost(0.5))
    est = objective_estimate(ens, obj)
    assert est.mean == pytest.approx(1.5 * 2.0 - 0.5 * 9.0 * 1.0, abs=1e-10)


def test_ensemble_checks_its_shapes():
    t = np.array([0.0, 0.5, 1.0])
    kw = dict(dt=0.5, seed=0)
    assert sdde.PathEnsemble(t, np.zeros((2, 3)), np.zeros(3), **kw).n_paths == 2
    assert sdde.PathEnsemble(t, np.zeros((2, 3)), np.zeros((2, 3)), **kw).n_paths == 2
    for y, z in [
        (np.zeros((2, 2)), np.zeros(3)),  # y misses a time
        (np.zeros(3), np.zeros(3)),  # y is no (paths, times) array
        (np.zeros((2, 3)), np.zeros(2)),  # shared z misses a time
        (np.zeros((2, 3)), np.zeros((3, 3))),  # z has another path count
        (np.zeros((2, 3)), np.zeros((2, 1))),  # z at the terminal time only
    ]:
        with pytest.raises(ConfigurationError, match="has shape"):
            sdde.PathEnsemble(t, y, z, **kw)


def test_objective_refuses_a_terminal_only_ensemble():
    # y(T) alone carries no running cost: pricing it would drop the cost
    ens = sdde.PathEnsemble(
        np.array([1.0]), np.ones((4, 1)), np.ones((4, 1)), dt=0.01, seed=0
    )
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    with pytest.raises(ConfigurationError, match="needs whole paths"):
        objective_estimate(ens, obj)


# --- Monte Carlo behaviour ----------------------------------------------------


def test_determinism_bit_identical():
    p = make_params(sigma=0.5)
    hist = make_history(GRID)
    a = simulate_paths(p, hist, zero_policy(p.T, 0.01), 0.01, 16, 42)
    b = simulate_paths(p, hist, zero_policy(p.T, 0.01), 0.01, 16, 42)
    assert np.array_equal(a.y, b.y)


def test_path_prefix_stable_in_path_count():
    # substreams are keyed by path index, so the first paths never change
    p = make_params(sigma=0.5)
    hist = make_history(GRID)
    small = simulate_paths(p, hist, zero_policy(p.T, 0.01), 0.01, 4, 7)
    big = simulate_paths(p, hist, zero_policy(p.T, 0.01), 0.01, 16, 7)
    assert np.array_equal(small.y, big.y[:4])


def test_path_normals_match_fresh_philox_generators():
    # one re-keyed generator gives the bits of a new generator per path; a
    # seed keys Philox as the uint64 it is congruent to, a numpy integer
    # of any kind as its value (a uint64 among int64s once went through
    # float64, so two paths could share a stream). The shapes are drawn
    # in turn on this thread, so each draw follows one that left the
    # generator's state elsewhere
    seeds = (0, 7, 12345, 2**32 - 1, 2**63 - 1, -1, -(2**63),
             np.int64(-1), np.int64(2**63 - 1), np.int32(-5), np.uint64(7))
    paths = (0, 1, 513, 2**63 - 1, np.int64(513), np.uint64(513), np.uint64(2**63 - 1))
    for seed in seeds:
        for path in paths:
            for shape in (1, 1000, (2, 37)):
                key = np.array([int(seed) % 2**64, int(path)], dtype=np.uint64)
                fresh = np.random.Generator(np.random.Philox(key=key))
                want = fresh.standard_normal(shape)
                assert np.array_equal(path_normals(seed, path, shape), want)


@pytest.mark.parametrize("seed", [2**63, 2**63 + 5, 2**64 + 7, -(2**63) - 1])
def test_path_normals_refuse_seeds_the_key_cannot_hold(seed):
    # past int64 the key conversion went through float64, so neighbouring
    # seeds shared a stream, or overflowed
    with pytest.raises(ConfigurationError, match=r"^seed must be in \[-2\*\*63, "):
        path_normals(seed, 0, 5)


@pytest.mark.parametrize("path", [2**63, 2**63 + 5, 2**64 + 1, -1])
def test_path_normals_refuse_path_indices_the_key_cannot_hold(path):
    # past int64 the key conversion went through float64, so neighbouring
    # paths shared a stream, or overflowed; -1 keyed the path 2**64 - 1
    with pytest.raises(ConfigurationError, match=r"^path_index must be in \[0, 2"):
        path_normals(0, path, 3)


@pytest.mark.parametrize(
    "seed, path, name",
    [(1.5, 0, "seed"), (np.float64(2.0), 0, "seed"), ("7", 0, "seed"),
     (0, 2.7, "path_index"), (0, np.float64(3.0), "path_index")],
)
def test_path_normals_refuse_a_key_that_is_not_an_integer(seed, path, name):
    # a float keyed the stream of its truncation: (1.5, 0) drew (1, 0)'s
    # normals and (0, 2.7) drew (0, 2)'s
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer, got "):
        path_normals(seed, path, 3)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("shape", [300, (2, 300)])
@pytest.mark.parametrize("seed, first", [(11, 513), (-5, None), (-(2**63), None)])
def test_a_run_of_paths_stacks_the_one_path_draws(seed, first, shape, n):
    # row j of a run is path first + j's draw, byte for byte; the run may
    # end at the last path index the key holds
    first = 2**63 - n if first is None else first
    run = path_normals(seed, first, shape, n)
    want = np.stack([path_normals(seed, first + j, shape) for j in range(n)])
    assert run.shape == want.shape and run.dtype == want.dtype
    assert run.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "first, n_paths, message",
    [(0, 0, r"n_paths must be at least 1, got 0$"),
     (0, -1, r"n_paths must be at least 1, got -1$"),
     (0, 1.5, r"n_paths must be an integer, got 1\.5$"),
     (0, np.float64(2.0), r"n_paths must be an integer, got "),
     (2**63 - 3, 4, r"path_index \+ n_paths must be at most 2\*\*63, got "),
     (2**63 - 1, 2, r"path_index \+ n_paths must be at most 2\*\*63, got ")],
)
def test_path_normals_refuse_a_run_the_key_cannot_hold(first, n_paths, message):
    with pytest.raises(ConfigurationError, match="^" + message):
        path_normals(0, first, 3, n_paths)


@pytest.mark.parametrize(
    "first_path, n_paths", [(2**63 - 1, 2), (2**63, 1), (0, 2**63 + 1)]
)
def test_simulate_paths_refuses_path_indices_past_the_key(first_path, n_paths):
    # refused before the state rows are allocated: the last case would ask
    # numpy for 2**63 + 1 columns
    p = make_params(sigma=0.5)
    hist, pol = make_history(GRID), zero_policy(p.T, 0.01)
    with pytest.raises(ConfigurationError, match=r"^first_path \+ n_paths must be at"):
        simulate_paths(p, hist, pol, 0.01, n_paths, 7, first_path)


def test_simulate_paths_draws_the_last_path_index():
    p = make_params(sigma=0.5)
    hist, pol = make_history(GRID), zero_policy(p.T, 0.01)
    last = simulate_paths(p, hist, pol, 0.01, 1, 7, 2**63 - 1)
    assert np.all(np.isfinite(last.y))


# --- path blocks and path-count stability -----------------------------------


# the kernels of each case: exponential kernels under an open-loop policy,
# steep ones (three steps of decay, so the recursion's ratio is far from
# 1) and a feedback policy (one control per path, so the b1 window is per
# path too)
BLOCK_CASES = {
    "exponential": (ExponentialKernel(-2.0, 0.2), ExponentialKernel(3.0, 0.5), None),
    "steep": (ExponentialKernel(-20.0, 0.03), ExponentialKernel(30.0, 0.03), None),
    "feedback": (
        ExponentialKernel(-2.0, 0.2),
        ExponentialKernel(1.5, 0.3),
        FeedbackPolicy(lambda t, y: np.maximum(2.0 - 0.3 * y, 0.0) + t),
    ),
}
BLOCK_HISTORY = HistoryPair(
    grid=GRID, x0=2.0, x1=2.0 * np.exp(GRID.nodes), delta=0.5 + 0.1 * GRID.nodes,
)
BLOCK_DT = 0.01


def _block_setup(case):
    a1, b1, policy = BLOCK_CASES[case]
    p = make_params(a0=-0.5, a1=a1, b1=b1, sigma=0.5, u_max=2.5)
    if policy is None:
        policy = _open_loop_wave(p.T, BLOCK_DT)
    return p, policy


@pytest.mark.parametrize("n_paths", [PATH_BLOCK + 1, 2 * PATH_BLOCK + 3])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_evaluate_blocks_equal_one_pass(case, n_paths):
    # blocks of PATH_BLOCK paths (the last one may hold a single path)
    # give every path's objective, the mean and the stderr bit for bit
    p, policy = _block_setup(case)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    blocked = evaluate_policy(p, BLOCK_HISTORY, policy, obj, BLOCK_DT, n_paths, 11)
    ens = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, n_paths, 11)
    one = objective_estimate(ens, obj)
    np.testing.assert_array_equal(blocked.values, one.values)
    assert (blocked.mean, blocked.stderr) == (one.mean, one.stderr)
    assert blocked == one  # the per-path values take no part in equality


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_first_path_rows_match_a_larger_run(case):
    p, policy = _block_setup(case)
    big = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, 16, 4)
    for first, n in ((5, 3), (15, 1), (0, 2)):
        part = simulate_paths(
            p, BLOCK_HISTORY, policy, BLOCK_DT, n, 4, first_path=first
        )
        np.testing.assert_array_equal(part.y, big.y[first : first + n])
        if part.z.ndim == 2:
            np.testing.assert_array_equal(part.z, big.z[first : first + n])


@pytest.mark.parametrize("small, large", [(3, 64), (5, 512), (1, 9), (2, 9)])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_path_count_stable_with_delay_windows(case, small, large):
    # each path's window sums, the one at construction included, must not
    # depend on how many paths share the array
    p, policy = _block_setup(case)
    a = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, small, 7)
    b = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, large, 7)
    np.testing.assert_array_equal(a.y, b.y[:small])


def test_blowup_in_a_later_block_names_the_global_path(monkeypatch):
    # one path of the second block gets a huge shock at its 4th step
    target = PATH_BLOCK + 7
    normals = sdde.path_normals

    def shocked(seed, first, shape, n_paths):
        out = normals(seed, first, shape, n_paths)
        if 0 <= target - first < n_paths:
            out[target - first, 3] = 1e15
        return out

    monkeypatch.setattr(sdde, "path_normals", shocked)
    p, policy = _block_setup("exponential")
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    with pytest.raises(BlowupError, match=rf"^path {target} .* at step 4 "):
        evaluate_policy(p, BLOCK_HISTORY, policy, obj, BLOCK_DT, PATH_BLOCK + 10, 2)


# --- the blow-up check at its limit -----------------------------------------------

# 1e12 is a double, so it is the largest double <= BLOWUP_LIMIT
AT_LIMIT = sdde.BLOWUP_LIMIT
ABOVE_LIMIT = np.nextafter(AT_LIMIT, np.inf)
# where an extreme state sits among 2048 ordinary ones
EXTREME_PATH = 1234


def _with_extreme(state, n_paths):
    """`state` alone, or at path EXTREME_PATH of n_paths standard normals."""
    states = np.random.default_rng(4).standard_normal(n_paths)
    states[EXTREME_PATH if n_paths > 1 else 0] = state
    return states


def _one_step(monkeypatch, states):
    """One Euler step (dt = T = r = 1, sigma = 1) from x0 = 0 with zero
    kernels and control, its noise patched so that path i's y(1) is
    states[i] exactly."""

    def run(seed, first, shape, n_paths):
        return np.full((n_paths, shape), states[first : first + n_paths, None])

    monkeypatch.setattr(sdde, "path_normals", run)
    p = make_params(sigma=1.0, r=1.0, T=1.0)
    hist = make_history(SegmentGrid(1.0, 3), x0=0.0)
    return simulate_paths(p, hist, zero_policy(1.0, 1.0), 1.0, len(states), 0)


@pytest.mark.parametrize("n_paths", [1, 2048])
@pytest.mark.parametrize("state", [AT_LIMIT, -AT_LIMIT])
def test_a_state_at_the_blowup_limit_passes(monkeypatch, state, n_paths):
    states = _with_extreme(state, n_paths)
    np.testing.assert_array_equal(_one_step(monkeypatch, states).y[:, 1], states)


@pytest.mark.parametrize("n_paths", [1, 2048])
@pytest.mark.parametrize(
    "state", [ABOVE_LIMIT, -ABOVE_LIMIT, 1e200, np.nan, np.inf, -np.inf]
)
def test_a_state_past_the_blowup_limit_raises(monkeypatch, state, n_paths):
    # the next double above the limit, one whose square overflows the
    # pre-check's sum, and a non-finite state name their path and step
    path = EXTREME_PATH if n_paths > 1 else 0
    with pytest.raises(BlowupError, match=rf"^path {path} left the finite range at step 1 "):
        _one_step(monkeypatch, _with_extreme(state, n_paths))


def test_many_states_near_the_blowup_limit_pass(monkeypatch):
    # their sum of squares is far past the one-reduction pre-check's bound,
    # so the exact test decides
    states = np.full(2048, 0.9 * AT_LIMIT)
    np.testing.assert_array_equal(_one_step(monkeypatch, states).y[:, 1], states)


# --- the noise threads ----------------------------------------------------------

# enough 64-path chunks for 8 noise threads, and not a whole number of them
THREAD_PATHS = 8 * 64 + 5


def _force_cpus(monkeypatch, cpus):
    """Make simulate_paths see cpus usable CPUs; never more than 32, so no
    test asks for more threads than that."""
    assert 1 <= cpus <= 32
    monkeypatch.setattr(sdde, "_usable_cpus", lambda: cpus)


def _clipping_point_lags():
    # z = 3 - y leaves [0, 1] on both sides for states starting at 2
    p = make_params(a0=-0.5, a1=PointDelay(-0.8), b1=PointDelay(1.5), sigma=0.5, u_max=1.0)
    return p, FeedbackPolicy(lambda t, y: 3.0 - y)


def _open_loop_run():
    p, policy = _block_setup("exponential")  # nonzero a1 and b1 windows
    ens = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, THREAD_PATHS, 5)
    return ens.y, ens.z, ens.clip_count


def _point_lag_feedback_run():
    p, policy = _clipping_point_lags()
    ens = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, THREAD_PATHS, 5)
    assert ens.clip_count > 0
    return ens.y, ens.z, ens.clip_count


def _first_path_run():
    p, policy = _block_setup("feedback")
    ens = simulate_paths(
        p, BLOCK_HISTORY, policy, BLOCK_DT, THREAD_PATHS, 5, first_path=70
    )
    return ens.y, ens.z, ens.clip_count


def _evaluate_run():
    p, policy = _block_setup("exponential")
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    est = evaluate_policy(p, BLOCK_HISTORY, policy, obj, BLOCK_DT, PATH_BLOCK + 3, 5)
    return est.values, est.mean, est.stderr


def _state_delay_run():
    p = make_params(a0=-0.5, sigma=0.5, u_max=1.0)
    policy = _clipping_point_lags()[1]
    ens = state_delay.simulate_feedback(
        p, -0.8, BLOCK_HISTORY, policy, BLOCK_DT, PATH_BLOCK + 3, 5
    )
    assert ens.clip_count > 0
    return ens.y, ens.z, ens.clip_count


THREAD_RUNS = {
    "open_loop": _open_loop_run,
    "point_lag_feedback": _point_lag_feedback_run,
    "first_path": _first_path_run,
    "evaluate": _evaluate_run,
    "state_delay": _state_delay_run,
}


@pytest.mark.parametrize("run", list(THREAD_RUNS))
def test_bits_do_not_depend_on_the_cpu_count(monkeypatch, run):
    # every thread draws, scales and copies its own columns as one thread
    # would, so y, z and the clip count keep their bits; no thread
    # outlives a run
    before = threading.active_count()
    results = []
    for cpus in (1, 2, 3, 8):
        _force_cpus(monkeypatch, cpus)
        results.append(THREAD_RUNS[run]())
        assert threading.active_count() == before
    for got in results[1:]:
        for g, want in zip(got, results[0]):
            np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize(
    "cpus, n_paths, threads",
    [(1, THREAD_PATHS, 1), (2, 64, 1), (2, 65, 2), (3, THREAD_PATHS, 3),
     (8, 200, 4), (8, THREAD_PATHS, 8), (32, THREAD_PATHS, 8)],
)
def test_noise_threads_share_the_columns(monkeypatch, cpus, n_paths, threads):
    # one thread per usable CPU, at most one per 64-path chunk and 8 in
    # all: a pool of that many, given one task fewer, since the caller
    # draws too. Each claim is one path_normals call whose run of columns
    # is whole cache lines (8 paths; every case here has 64 paths or
    # more), the threads' runs hold 64 paths at most, the runs tile the
    # columns, and one thread draws alone
    _force_cpus(monkeypatch, cpus)
    pools, claims, normals = [], [], sdde.path_normals

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers, self.submits = max_workers, 0
            pools.append(self)

        def submit(self, *args, **kwargs):
            self.submits += 1
            return super().submit(*args, **kwargs)

    def recorded_normals(seed, first, shape, n_paths):
        claims.append((first, first + n_paths, threading.get_ident()))
        return normals(seed, first, shape, n_paths)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    monkeypatch.setattr(sdde, "path_normals", recorded_normals)
    steps, scale = 30, 0.25
    rows = np.zeros((steps, n_paths))
    sdde._fill_noise(rows, 5, 3, scale)
    [pool] = pools
    assert (pool.workers, pool.submits) == (threads, threads - 1)
    runs = sorted((a, b) for a, b, _ in claims)
    assert [a for a, _ in runs[1:]] == [b for _, b in runs[:-1]]
    assert runs[0][0] == 3 and runs[-1][1] == 3 + n_paths
    width = runs[0][1] - runs[0][0]  # every run but the last is one claim wide
    assert all(b - a == width for a, b in runs[:-1])
    assert runs[-1][1] - runs[-1][0] <= width
    assert width % 8 == 0 and threads * width <= 64
    if threads == 1:
        assert {t for _, _, t in claims} == {threading.get_ident()}
    for j in range(n_paths):
        np.testing.assert_array_equal(rows[:, j], scale * normals(5, 3 + j, steps))


def test_path_normals_are_thread_safe():
    # 4 threads draw at once on different (seed, path) keys; each draw is
    # that of a fresh generator for its key
    barrier = threading.Barrier(4)

    def draws(thread):
        barrier.wait(timeout=30)
        return [path_normals(7 + thread, path, 300) for path in range(50)]

    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(draws, range(4)))
    for thread, got in enumerate(results):
        for path, normals in enumerate(got):
            fresh = np.random.Generator(np.random.Philox(key=[7 + thread, path]))
            np.testing.assert_array_equal(normals, fresh.standard_normal(300))


def test_runs_of_paths_are_thread_safe():
    # 4 threads draw runs at once on different seeds; each row is that of
    # a fresh generator for its key
    barrier = threading.Barrier(4)

    def draws(thread):
        barrier.wait(timeout=30)
        return [path_normals(7 + thread, first, 300, 8) for first in range(0, 48, 8)]

    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(draws, range(4)))
    for thread, runs in enumerate(results):
        for path, normals in enumerate(np.concatenate(runs)):
            fresh = np.random.Generator(np.random.Philox(key=[7 + thread, path]))
            np.testing.assert_array_equal(normals, fresh.standard_normal(300))


def test_noise_fill_peak_is_at_most_64_paths_of_noise(monkeypatch):
    # sizes, not timing: the rows are allocated before tracing starts, so
    # the peak is the threads' runs in flight, 64 paths at most, plus 5 %
    # for the threads themselves. Each thread's own objects (its frames,
    # its generator) are traced too, about 6 KB a thread, so 8 threads are
    # held to the looser bounds of test_memory_bounds_hold_at_many_cpus;
    # the thread pool's module is imported above, not inside the trace
    steps = 1000
    rows = np.empty((steps, PATH_BLOCK))
    for cpus in (1, 2, 3):
        _force_cpus(monkeypatch, cpus)
        peak = _peak_bytes(lambda: sdde._fill_noise(rows, 5, 0, 0.5))
        assert peak <= 1.05 * 8 * 64 * steps, (cpus, peak)


class _DrawFailed(RuntimeError):
    pass


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_failed_draw_reaches_the_caller_and_ends_every_thread(monkeypatch, cpus):
    _force_cpus(monkeypatch, cpus)
    normals = sdde.path_normals

    def failing(seed, first, shape, n_paths):
        if first <= 300 < first + n_paths:
            raise _DrawFailed("path 300")
        return normals(seed, first, shape, n_paths)

    monkeypatch.setattr(sdde, "path_normals", failing)
    p, policy = _block_setup("exponential")
    before = threading.active_count()
    with pytest.raises(_DrawFailed, match="^path 300$"):
        simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, THREAD_PATHS, 5)
    assert threading.active_count() == before



@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shared_work_raises_the_failure_of_the_earliest_item(workers):
    # items 2 and 5 fail, and on more than one thread 5 fails first; the
    # error is item 2's, as a loop over the items raises it, and one thread
    # claims no item after a failure
    five_failed, done = threading.Event(), []

    def work(slot, item):
        assert 0 <= slot < workers
        if item == 2:
            if workers > 1:
                assert five_failed.wait(timeout=30)
            raise _DrawFailed("item 2")
        if item == 5:
            five_failed.set()
            raise _DrawFailed("item 5")
        done.append(item)

    before = threading.active_count()
    with pytest.raises(_DrawFailed, match="^item 2$"):
        sdde._share_out(work, range(40), workers)
    assert threading.active_count() == before
    assert {0, 1} <= set(done) and (workers > 1 or done == [0, 1])

# --- the rows a run keeps -----------------------------------------------------

# r = 0.5 and dt = 0.01, so m = 50: T = 0.3 ends while the windows still
# read history rows (steps < m), T = 0.5 as they read the last one
# (steps = m), T = 1.7 long after
LAYOUT_T = [0.3, 0.5, 1.7]
LAYOUT_CASES = dict(
    BLOCK_CASES,
    point_feedback=(
        ExponentialKernel(-2.0, 0.2),
        PointDelay(1.5),
        FeedbackPolicy(lambda t, y: np.maximum(2.0 - 0.3 * y, 0.0) + t),
    ),
    point_open_loop=(PointDelay(-0.8), PointDelay(1.5), None),
    no_window_feedback=(
        ExponentialKernel(0.0, math.inf),
        ExponentialKernel(0.0, math.inf),
        FeedbackPolicy(lambda t, y: np.maximum(2.0 - 0.3 * y, 0.0) + t),
    ),
    # both bounds clip from step 0 (u_max = 2.5), and b1 = 0, so a
    # terminal record keeps one control row
    clipping_feedback=(
        ExponentialKernel(-2.0, 0.2),
        ExponentialKernel(0.0, math.inf),
        FeedbackPolicy(lambda t, y: 3.0 * np.cos(2.0 * y)),
    ),
)


class PointRead:
    """The point lag amp * x(t_k - r): row k of rows that keep their m
    history rows, with nothing to advance."""

    def __init__(self, amp, rows):
        self.amp, self.rows = amp, rows

    def sum(self, k, newest):
        return self.amp * self.rows[k]

    def advance(self, k):
        pass


def _padded_euler(p, history, policy, dt, n_paths, seed, window=DelayWindow):
    """Euler-Maruyama on rows that always hold the m history rows, with the
    noise in its own array: the layout simulate_paths trims. Its windows
    are DelayWindows, or another class with their sum and advance, over
    the rows whose row k + m is the newest sample of step k; a point lag
    reads row k through PointRead."""
    steps, m = round(p.T / dt), round(p.r / dt)
    t, xi = dt * np.arange(steps + 1), -p.r + dt * np.arange(m + 1)
    xi[-1] = 0.0  # the newest sample's lag, which -r + dt*m may miss by an ulp
    hist_y = np.interp(xi, history.grid.nodes, history.x1)
    hist_z = np.interp(xi, history.grid.nodes, history.delta)
    y = np.empty((m + steps + 1, n_paths))
    y[:m], y[m] = hist_y[:m, None], history.x0
    feedback = isinstance(policy, FeedbackPolicy)
    if feedback:
        z = np.empty((m + steps + 1, n_paths))
        z[:m] = hist_z[:m, None]
    else:  # one control row shared by every path
        z = np.concatenate([hist_z[:m], np.clip(policy.sample(p, t), p.u_min, p.u_max)])

    def make_window(kernel, rows):
        if kernel.amp == 0.0:
            return None
        if isinstance(kernel, PointDelay):
            return PointRead(kernel.amp, rows)
        return window(kernel, kernel_eval(kernel, xi, p.r), dt, rows)

    win_a, win_b = make_window(p.a1, y), make_window(p.b1, z)
    noise = np.stack([path_normals(seed, i, steps) for i in range(n_paths)])
    noise *= p.sigma * np.sqrt(dt)
    for k in range(steps + 1):
        if feedback:
            z[m + k] = np.clip(policy.control_fn(t[k], y[m + k]), p.u_min, p.u_max)
        if k == steps:
            break
        drift = y[m + k] * p.a0
        if win_a is not None:
            drift += win_a.sum(k, y[m + k])
        drift += z[m + k] * p.b0
        if win_b is not None:
            drift += win_b.sum(k, z[m + k])
            win_b.advance(k)
        y[m + k + 1] = (y[m + k] + drift * dt) + noise[:, k]
        if win_a is not None:
            win_a.advance(k)
    return y[m:].T, z[m:].T


@pytest.mark.parametrize("T", LAYOUT_T)
@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_trimmed_rows_equal_the_padded_layout(case, T):
    # simulate_paths copies the noise into the state rows and reads one
    # history shared by every path instead of history rows; the paths are
    # those of the padded layout bit for bit, one column or several. Its
    # terminal record (one control row under a b1-free feedback, every
    # row under a b1 term, the shared row open-loop) is their last column
    a1, b1, policy = LAYOUT_CASES[case]
    p = make_params(a0=-0.5, a1=a1, b1=b1, sigma=0.5, u_max=2.5, T=T)
    if policy is None:
        policy = _open_loop_wave(T, BLOCK_DT)
    for n_paths in (1, 5):
        ens = simulate_paths(p, BLOCK_HISTORY, policy, BLOCK_DT, n_paths, 3)
        y, z = _padded_euler(p, BLOCK_HISTORY, policy, BLOCK_DT, n_paths, 3)
        np.testing.assert_array_equal(ens.y, y)
        np.testing.assert_array_equal(ens.z, z)
        last = simulate_paths(
            p, BLOCK_HISTORY, policy, BLOCK_DT, n_paths, 3, terminal=True
        )
        np.testing.assert_array_equal(last.t, ens.t[-1:])
        np.testing.assert_array_equal(last.y, ens.y[:, -1:])
        np.testing.assert_array_equal(last.z, ens.z[..., -1:])
        assert last.clip_count == ens.clip_count
        if case == "clipping_feedback":
            assert last.clip_count > 0


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_peak_memory_does_not_grow_with_paths():
    # sizes, not timing: the peak is set by one block, not by the path count
    p, policy = _block_setup("exponential")
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    dt = 0.01  # 100 steps and a 50-step window make the block dominate

    def peak(n_paths):
        return _peak_bytes(
            lambda: evaluate_policy(p, BLOCK_HISTORY, policy, obj, dt, n_paths, 1)
        )

    assert peak(8 * PATH_BLOCK) <= 1.2 * peak(2 * PATH_BLOCK)


@pytest.mark.parametrize("case", ["feedback", "exponential", "point_lag_feedback"])
def test_one_block_holds_states_and_controls_only(case):
    # sizes, not timing: one block holds steps + 1 rows of states (the
    # noise copied into them) and, under evaluate_policy's feedback, of
    # controls; simulate_feedback's terminal record keeps one control row.
    # Its delay terms read one history shared by every path, so it keeps
    # no history rows, no noise array and no (paths, steps) costs
    dt, T, steps = 0.005, 2.0, 400  # m = 100, so steps = 4m
    if case == "point_lag_feedback":  # state_delay's point lag a1
        p = make_params(a0=-0.5, sigma=0.5, u_max=2.5, T=T)
        policy = BLOCK_CASES["feedback"][2]
        run = lambda: state_delay.simulate_feedback(
            p, -0.8, BLOCK_HISTORY, policy, dt, PATH_BLOCK, 1
        )
    else:
        a1, b1, policy = BLOCK_CASES[case]
        p = make_params(a0=-0.5, a1=a1, b1=b1, sigma=0.5, u_max=2.5, T=T)
        if policy is None:
            policy = _open_loop_wave(T, dt)
        obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
        run = lambda: evaluate_policy(p, BLOCK_HISTORY, policy, obj, dt, PATH_BLOCK, 1)
    # an open-loop z is shared, and b1 = 0 reads no past control
    rows = 2 if case == "feedback" else 1
    assert _peak_bytes(run) <= 1.1 * 8 * PATH_BLOCK * rows * (steps + 1)


@pytest.mark.parametrize("cpus", [8, 32])
@pytest.mark.parametrize(
    "check",
    [test_evaluate_peak_memory_does_not_grow_with_paths,
     lambda: test_one_block_holds_states_and_controls_only("feedback")],
    ids=["peak_does_not_grow", "one_block"],
)
def test_memory_bounds_hold_at_many_cpus(monkeypatch, check, cpus):
    # the noise threads' runs hold 64 paths at most, so the bounds above
    # hold unchanged with 8 threads (32 CPUs still make 8)
    _force_cpus(monkeypatch, cpus)
    check()


def test_memoryless_equals_lq_without_delay():
    # with a1 = b1 = 0 the two policies are the same function of t

    p = make_params(a0=-0.5, sigma=0.3)
    hist = make_history(GRID)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    cs = lq.solve_costate(p, 1.0, 0.5, 1e-3)
    a = evaluate_policy(p, hist, lq.optimal_policy_lq(cs, p), obj, 1e-3, 64, 5)
    b = evaluate_policy(p, hist, Memoryless(gamma=1.0, beta=0.5), obj, 1e-3, 64, 5)
    assert a.mean == pytest.approx(b.mean, rel=1e-9)


def test_clt_stderr_scaling():
    p = make_params(sigma=0.5)
    hist = make_history(GRID)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    small = evaluate_policy(p, hist, zero_policy(p.T, 0.01), obj, 0.01, 400, 3)
    big = evaluate_policy(p, hist, zero_policy(p.T, 0.01), obj, 0.01, 800, 3)
    assert big.stderr / small.stderr == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_one_path_stderr_is_nan():
    # a single path says nothing about the spread: NaN, never 0.0
    p = make_params(sigma=0.5)
    hist = make_history(GRID)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    est = evaluate_policy(p, hist, zero_policy(p.T, 0.01), obj, 0.01, 1, 3)
    assert est.n_paths == 1 and np.isfinite(est.mean)
    assert np.isnan(est.stderr)
    other = MCEstimate(mean=est.mean + 1.0, stderr=0.1, n_paths=100, seed=3)
    assert np.isnan(relative_gap(est, other).stderr)
    assert np.isnan(relative_gap(other, est).stderr)


def test_relative_gap_examples():
    a = MCEstimate(mean=10.0, stderr=0.0, n_paths=1, seed=0)
    b = MCEstimate(mean=9.0, stderr=0.0, n_paths=1, seed=0)
    assert relative_gap(a, b).gap == pytest.approx(0.1)
    assert relative_gap(a, a).gap == 0.0
    with pytest.raises(ConfigurationError, match="reference value is 0"):
        relative_gap(MCEstimate(0.0, 0.0, 1, 0), b)


# --- pathwise structure (A9 property suites) ----------------------------------


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.floats(0.0, 1.0))
def test_monotone_coupling(seed, a1_amp, sigma):
    """a1 >= 0 and ordered histories give ordered paths under shared noise."""
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 11)
    p = make_params(a0=-float(rng.uniform(0, 2)), a1=ExponentialKernel(a1_amp, math.inf),
                    sigma=sigma, T=0.5)
    lo = rng.uniform(0.0, 1.0, grid.n_nodes)
    hi = lo + rng.uniform(0.0, 1.0, grid.n_nodes)
    h_lo = HistoryPair(grid=grid, x0=lo[-1], x1=lo, delta=np.zeros(11))
    h_hi = HistoryPair(grid=grid, x0=hi[-1], x1=hi, delta=np.zeros(11))
    pol = zero_policy(0.5, 0.05)
    y_lo = simulate_paths(p, h_lo, pol, 0.05, 3, seed % 1000).y
    y_hi = simulate_paths(p, h_hi, pol, 0.05, 3, seed % 1000).y
    assert np.all(y_hi >= y_lo - 1e-12)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.99))
def test_pathwise_concavity_certificate(seed, lam):
    """For fixed noise y is affine in (history, control), so the per-path
    objective with concave phi0 / convex h0 is concave in that pair."""
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(0.5, 11)
    p = make_params(a0=-0.5, a1=ExponentialKernel(1.0, math.inf), b0=1.0,
                    b1=ExponentialKernel(0.5, math.inf), sigma=0.4, T=0.5)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    dt = 0.05
    t = dt * np.arange(11)

    def run(x1, z):
        h = HistoryPair(grid=grid, x0=x1[-1], x1=x1, delta=np.zeros(11))
        ens = simulate_paths(p, h, OpenLoop(t=t, z=z), dt, 2, seed % 1000)
        return objective_estimate(ens, obj).mean

    x1a = rng.uniform(0, 2, 11)
    x1b = rng.uniform(0, 2, 11)
    za = rng.uniform(0, 2, 11)
    zb = rng.uniform(0, 2, 11)
    mixed = run(lam * x1a + (1 - lam) * x1b, lam * za + (1 - lam) * zb)
    assert mixed >= lam * run(x1a, za) + (1 - lam) * run(x1b, zb) - 1e-9


def test_lipschitz_in_initial_state():
    """Common random numbers: |J(x) - J(y)| <= N * |x - y| with one constant
    N across random history pairs (linear reward makes the map affine)."""
    rng = np.random.default_rng(0)
    grid = SegmentGrid(0.5, 21)
    p = make_params(a0=-0.5, a1=ExponentialKernel(0.5, math.inf), sigma=0.3)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    pol = zero_policy(p.T, 0.01)

    def J(x1):
        h = HistoryPair(grid=grid, x0=x1[-1], x1=x1, delta=np.zeros(21))
        return evaluate_policy(p, h, pol, obj, 0.01, 8, 11).mean

    ratios = []
    for _ in range(10):
        xa = rng.uniform(0, 3, 21)
        xb = rng.uniform(0, 3, 21)
        dist = np.sqrt(np.sum(grid.weights * (xa - xb) ** 2) + (xa[-1] - xb[-1]) ** 2)
        ratios.append(abs(J(xa) - J(xb)) / dist)
    # affine response: every ratio is bounded by the operator norm of the map
    assert max(ratios) < 5.0
