import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodwill.hilbert import (
    ConfigurationError,
    DelayWindow,
    ExponentialKernel,
    PointDelay,
    ProfileX,
    SegmentGrid,
    _window_lags,
    inner_product,
    kernel_eval,
    kernel_is_zero,
)
from goodwill.sdde import _steps_of


def grid1(n=201):
    return SegmentGrid(1.0, n)


def const_profile(x0, c, grid):
    return ProfileX(x0, np.full(grid.n_nodes, float(c)))


# --- grid ---------------------------------------------------------------------


def test_grid_nodes_span_interval():
    g = SegmentGrid(0.5, 11)
    assert g.nodes[0] == -0.5
    assert g.nodes[-1] == 0.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_weights_sum_to_r():
    for r in (0.3, 1.0, 2.7):
        g = SegmentGrid(r, 101)
        assert abs(g.weights.sum() - r) <= 1e-12 * r


def test_grid_rejects_bad_arguments():
    # a nan or an infinity is refused before any node is computed, so numpy
    # warns of nothing
    bad = [(-1.0, 10), (1.0, 1), (np.nan, 201), (np.inf, 5), (-np.inf, 5), (1.0, np.nan)]
    for r, n_nodes in bad:
        with pytest.raises(ConfigurationError):
            SegmentGrid(r, n_nodes)


# --- inner product ------------------------------------------------------------


def test_inner_product_scalar_only():
    g = grid1()
    assert inner_product(ProfileX(1, np.zeros(201)), ProfileX(2, np.zeros(201)), g) == 2.0


def test_inner_product_constant_ones():
    g = grid1()
    x = const_profile(0, 1, g)
    assert inner_product(x, x, g) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_linear_profile():
    # <(1, xi), (1, xi)> = 1 + int_{-1}^0 xi^2 = 4/3, trapezoid error O(n^-2)
    g = grid1()
    x = ProfileX(1.0, g.nodes)
    assert inner_product(x, x, g) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_inner_product_grid_mismatch():
    g = grid1()
    with pytest.raises(ConfigurationError):
        inner_product(ProfileX(0, np.zeros(5)), ProfileX(0.0, np.zeros(g.n_nodes)), g)


@st.composite
def profiles(draw, n=31):
    vals = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=n + 1, max_size=n + 1
        )
    )
    return ProfileX(vals[0], np.array(vals[1:]))


@settings(max_examples=120)
@given(profiles(), profiles())
def test_inner_product_symmetric(x, y):
    g = SegmentGrid(1.0, 31)
    assert inner_product(x, y, g) == inner_product(y, x, g)


@settings(max_examples=120)
@given(profiles(), profiles(), profiles(), st.floats(-10, 10), st.floats(-10, 10))
def test_inner_product_bilinear(x, z, y, a, b):
    g = SegmentGrid(1.0, 31)
    combo = ProfileX(a * x.x0 + b * z.x0, a * x.x1 + b * z.x1)
    lhs = inner_product(combo, y, g)
    rhs = a * inner_product(x, y, g) + b * inner_product(z, y, g)
    scale = sum(
        abs(v)
        for v in (
            a * inner_product(x, y, g),
            b * inner_product(z, y, g),
        )
    )
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + scale))


@settings(max_examples=120)
@given(profiles())
def test_self_inner_product_is_nonnegative(x):
    # the trapezoid weights are positive, so <x, x> >= 0
    assert inner_product(x, x, SegmentGrid(1.0, 31)) >= 0.0


def test_grid_refinement_second_order():
    # smooth profiles: doubling the node count shrinks the quadrature error 4x
    f = lambda xi: np.exp(xi) * np.cos(3 * xi)
    fine = SegmentGrid(1.0, 4001)
    ref = inner_product(ProfileX(0, f(fine.nodes)), ProfileX(0, f(fine.nodes)), fine)
    errs = []
    for n in (51, 101, 201):
        g = SegmentGrid(1.0, n)
        p = ProfileX(0, f(g.nodes))
        errs.append(abs(inner_product(p, p, g) - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


# --- kernels ------------------------------------------------------------------


def test_kernel_eval_examples():
    g = SegmentGrid(0.5, 51)
    assert kernel_eval(ExponentialKernel(5.0, 1 / 6), 0.0, g.r) == 5.0
    assert kernel_eval(ExponentialKernel(2.5, math.inf), -0.3, g.r) == 2.5
    assert kernel_eval(ExponentialKernel(0.0, math.inf), -0.1, g.r) == 0.0


@pytest.mark.parametrize("amp", [2.5, -1.3, 0.0, -0.0, 1e-300, 1e300])
def test_infinite_decay_scale_is_the_constant_density(amp):
    # exp(-|xi| / inf) = exp(-0.0) = 1 exactly: every node, xi = -r and
    # xi = 0 among them, reads the amplitude's own bits, and the window's
    # node ratio is 1
    g = SegmentGrid(0.5, 51)
    k = ExponentialKernel(amp, math.inf)
    values = kernel_eval(k, g.nodes, g.r)
    assert values.tobytes() == np.full(g.n_nodes, amp).tobytes()
    for xi in (-g.r, 0.0):
        assert np.float64(kernel_eval(k, xi, g.r)).tobytes() == np.float64(amp).tobytes()
    assert DelayWindow(k, values, 0.01, np.ones(g.n_nodes)).rho == 1.0


def test_kernel_eval_exponential_decay():
    g = SegmentGrid(1.0, 51)
    k = ExponentialKernel(2.0, 0.5)
    assert kernel_eval(k, -1.0, g.r) == pytest.approx(2.0 * np.exp(-2.0))


def test_kernel_eval_domain_error():
    g = SegmentGrid(0.5, 11)
    with pytest.raises(ConfigurationError):
        kernel_eval(ExponentialKernel(1.0, math.inf), -0.6, g.r)
    with pytest.raises(ConfigurationError):
        kernel_eval(ExponentialKernel(1.0, math.inf), 0.1, g.r)


def test_kernel_is_zero():
    assert kernel_is_zero(ExponentialKernel(0.0, math.inf))
    assert kernel_is_zero(ExponentialKernel(-0.0, math.inf))
    assert not kernel_is_zero(ExponentialKernel(0.5, math.inf))
    assert not kernel_is_zero(ExponentialKernel(1.0, 1.0))


def test_point_lag_is_zero_at_zero_amplitude():
    assert kernel_is_zero(PointDelay(0.0))
    assert not kernel_is_zero(PointDelay(-1.0))


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: ExponentialKernel(np.nan, math.inf), "amplitude must be finite"),
        (lambda: ExponentialKernel(-np.inf, math.inf), "amplitude must be finite"),
        (lambda: ExponentialKernel(np.nan, 0.5), "amplitude must be finite"),
        (lambda: ExponentialKernel(np.inf, 0.5), "amplitude must be finite"),
        (lambda: ExponentialKernel(-1.0, np.nan), "decay_scale must be positive"),
        (lambda: ExponentialKernel(-1.0, 0.0), "decay_scale must be positive"),
        (lambda: ExponentialKernel(-1.0, -math.inf), "decay_scale must be positive"),
        (lambda: PointDelay(np.inf), "amplitude must be finite"),
        (lambda: PointDelay(np.nan), "amplitude must be finite"),
    ],
    ids=[
        "constant_nan", "constant_-inf", "exponential_amp_nan", "exponential_amp_inf",
        "exponential_scale_nan", "exponential_scale_0", "exponential_scale_-inf",
        "point_inf", "point_nan",
    ],
)
def test_kernels_refuse_non_finite_parameters(make, match):
    # refused at construction, not later as a costate blowup
    with pytest.raises(ConfigurationError, match=match):
        make()


# --- window sums ----------------------------------------------------------------


SHIPPED_R_GRID = [round(0.25 + 0.05 * i, 10) for i in range(10)]
# the shipped r-grid and the sensitivity table's finite-difference points
# r -/+ r/50, each formed as the table forms it
LAG_R = sorted({x for r in SHIPPED_R_GRID for x in (r - r / 50.0, r, r + r / 50.0)})


@pytest.mark.parametrize("dt", [1e-3, 5e-5])
@pytest.mark.parametrize("r", LAG_R)
def test_window_lags_end_at_zero_so_a_kernel_reads_its_amplitude(r, dt):
    # -r + dt*m misses 0 by an ulp at some r (5.6e-17 at r = 0.35, dt =
    # 5e-5), and exp(-|xi|/delta) with it; the newest lag is 0.0 exactly
    m = _steps_of(r, dt, "r")
    lags = _window_lags(r, dt, m)
    assert len(lags) == m + 1
    assert lags[:-1].tobytes() == (-r + dt * np.arange(m + 1))[:-1].tobytes()
    assert lags[-1] == 0.0 and not np.signbit(lags[-1])
    for amp in (1.0, 2.0, 3.0, 4.0, 5.0, -2.0):
        for decay_scale in (0.5, 0.01, math.inf):
            values = kernel_eval(ExponentialKernel(amp, decay_scale), lags, r)
            assert values[-1] == amp


def test_window_refuses_a_point_lag():
    # a point lag is one row read by its caller, not a window sum
    with pytest.raises(ConfigurationError, match="no density"):
        DelayWindow(PointDelay(-0.7), [1.0, 1.0], 1e-3, np.zeros(3))


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 513])
def test_window_sum_per_column_independent_of_column_count(n):
    # each column's raw sum of step 0 is taken in lag order whatever the
    # column count; a BLAS gemv and a one-column einsum both regroup it.
    # Random node values make any regrouping show in the bits.
    rng = np.random.default_rng(5)
    m = 500
    k, values = ExponentialKernel(1.0, 1.0), rng.standard_normal(m + 1)
    samples = rng.standard_normal((m + 1, 1024))
    want = [np.cumsum(values[:-1] * samples[:m, i])[-1] for i in range(n)]
    narrow = DelayWindow(k, values, 1e-3, np.ascontiguousarray(samples[:, :n]))
    wide = DelayWindow(k, values, 1e-3, samples)
    np.testing.assert_array_equal(narrow.h, want)
    np.testing.assert_array_equal(wide.h[:n], want)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 513])
def test_window_over_a_shared_history_equals_padded_rows(n):
    # a 1-d history shared by every column stands for the m past rows of
    # step 0: each column's first raw sum is one running sum in lag order,
    # and sum/advance read history[k] while k < m and row k - m after,
    # with the bits of a window over rows padded with the history. Random
    # node values make any regrouping show in the bits.
    rng = np.random.default_rng(7)
    dt, m, steps = 1e-3, 500, 600  # the window leaves the history at step m
    k, values = ExponentialKernel(-2.0, 0.3), rng.standard_normal(m + 1)
    history = rng.standard_normal(m + 1)
    rows = rng.standard_normal((steps + 1, n))
    padded = np.concatenate([np.tile(history[:m, None], (1, n)), rows])
    shared = DelayWindow(k, values, dt, rows, history)
    window = DelayWindow(k, values, dt, padded)
    np.testing.assert_array_equal(shared.h, np.cumsum(values[:-1] * history[:m])[-1])
    np.testing.assert_array_equal(shared.h, window.h)
    for step in range(steps):
        got = np.copy(shared.sum(step, rows[step]))
        np.testing.assert_array_equal(got, window.sum(step, padded[step + m]))
        shared.advance(step)
        window.advance(step)
        np.testing.assert_array_equal(shared.h, window.h)


def test_window_sum_in_place_forms_match_scalar_forms():
    # a window over path columns, summed and moved on in place, gives each
    # column the bits of that column's sums() pass, whose recursion runs in
    # Python floats, raw sum by raw sum from the first on (at m = 500 a
    # dot's grouping would differ)
    rng = np.random.default_rng(6)
    dt, m, steps = 1e-3, 500, 8
    for k in (ExponentialKernel(-2.0, 0.3), ExponentialKernel(0.7, math.inf)):
        values = kernel_eval(k, -m * dt + dt * np.arange(m + 1), m * dt)
        samples = rng.standard_normal((m + steps + 1, 8))
        paths = DelayWindow(k, values, dt, samples)
        raws = np.empty((8, steps + 1))
        sums = [DelayWindow(k, values, dt, samples[:, i].copy()).sums(None, raws[i])
                for i in range(8)]
        for step in range(steps):
            np.testing.assert_array_equal(paths.h, raws[:, step])
            got = paths.sum(step, samples[step + m])
            paths.advance(step)
            for i, col in enumerate(sums):
                assert got[i] == col[step]
        np.testing.assert_array_equal(paths.h, raws[:, steps])


@pytest.mark.parametrize("m", [1, 2, 50])
@pytest.mark.parametrize(
    "kernel",
    [
        ExponentialKernel(-2.0, 0.3),
        ExponentialKernel(0.7, math.inf),
        ExponentialKernel(5.0, 3e-3),  # ratio exp(-dt / 3e-3), far from 1
    ],
    ids=["exponential", "constant", "steep"],
)
def test_window_sums_equal_the_step_by_step_sums(kernel, m):
    # the costate's layout: m zero rows, a jump, then a rough run, every
    # row filled; sums() against a one-column window's sum(k, row k + m)
    # then advance(k), raw sum by raw sum
    rng = np.random.default_rng(m)
    dt = 1e-3
    samples = np.zeros(m + 300)
    samples[m:] = 2.7 + rng.standard_normal(300)
    values = kernel_eval(kernel, -m * dt + dt * np.arange(m + 1), m * dt)
    stepped = DelayWindow(kernel, values, dt, samples[:, None])
    whole, raw = DelayWindow(kernel, values, dt, samples), np.empty(300)
    want, h = np.empty(300), np.empty(300)
    for k in range(300):
        h[k] = stepped.h.item()
        want[k] = stepped.sum(k, samples.item(k + m)).item()
        stepped.advance(k)
    np.testing.assert_array_equal(whole.sums(None, raw), want)
    np.testing.assert_array_equal(raw, h)


@pytest.mark.parametrize("m, n", [(1, 300), (50, 300), (400, 300)])
@pytest.mark.parametrize(
    "kernel",
    [ExponentialKernel(0.7, math.inf), ExponentialKernel(5.0, 3e-3)],
    ids=["constant", "steep"],
)
def test_window_sums_from_a_head_equal_the_whole_pass(kernel, m, n):
    # steps 0..start - 1 see a zero row as the oldest sample, so a window
    # given their raw sums runs the loop from step start alone, and sums
    # and raw sums keep the bits of the whole pass
    rng = np.random.default_rng(m)
    dt = 1e-3
    samples = np.zeros(m + n)
    samples[m:] = 2.7 + rng.standard_normal(n)
    samples[m + 7] = -0.0
    values = kernel_eval(kernel, -m * dt + dt * np.arange(m + 1), m * dt)
    whole, raw = DelayWindow(kernel, values, dt, samples), np.empty(n)
    want = whole.sums(None, raw)
    for start in sorted({1, min(m, n - 1) // 2 or 1, min(m, n - 1)}):
        head = raw[: start + 1].copy()
        head.setflags(write=False)
        part, rest = DelayWindow(kernel, values, dt, samples), np.empty(n - start)
        assert part.sums(head, rest).tobytes() == want.tobytes()
        assert rest.tobytes() == raw[start:].tobytes()
