import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodwill.hilbert import (
    ConstantKernel,
    DelayWindow,
    DimensionError,
    DomainError,
    ExponentialKernel,
    PointDelay,
    ProfileX,
    SampledKernel,
    SegmentGrid,
    ZeroKernel,
    inner_product,
    kernel_eval,
    kernel_is_zero,
    norm,
    order_leq,
    profile_from_callable,
    zero_profile,
)


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
    with pytest.raises(ValueError):
        SegmentGrid(-1.0, 10)
    with pytest.raises(ValueError):
        SegmentGrid(1.0, 1)


# --- inner product and norm ---------------------------------------------------


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
    x = profile_from_callable(1.0, lambda xi: xi, g)
    assert inner_product(x, x, g) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_inner_product_grid_mismatch():
    g = grid1()
    with pytest.raises(DimensionError):
        inner_product(ProfileX(0, np.zeros(5)), zero_profile(g), g)


def test_norm_examples():
    g = grid1()
    assert norm(zero_profile(g), g) == 0.0
    assert norm(ProfileX(3, np.zeros(201)), g) == 3.0
    assert norm(const_profile(0, 2, g), g) == pytest.approx(2.0, abs=1e-12)


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
def test_norm_squared_is_self_inner_product(x):
    g = SegmentGrid(1.0, 31)
    ip = inner_product(x, x, g)
    assert norm(x, g) ** 2 == pytest.approx(ip, rel=1e-12, abs=1e-12)


def test_grid_refinement_second_order():
    # smooth profiles: doubling the node count shrinks the quadrature error 4x
    f = lambda xi: np.exp(xi) * np.cos(3 * xi)
    fine = SegmentGrid(1.0, 4001)
    ref = inner_product(
        profile_from_callable(0, f, fine), profile_from_callable(0, f, fine), fine
    )
    errs = []
    for n in (51, 101, 201):
        g = SegmentGrid(1.0, n)
        p = profile_from_callable(0, f, g)
        errs.append(abs(inner_product(p, p, g) - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


# --- partial order ------------------------------------------------------------


def test_order_examples():
    g = grid1(11)
    zero = zero_profile(g)
    one = const_profile(1, 1, g)
    assert order_leq(zero, one)
    assert not order_leq(ProfileX(1, np.zeros(11)), const_profile(0, 1, g))
    assert order_leq(one, one)


@settings(max_examples=120)
@given(profiles(), profiles(), profiles())
def test_order_is_partial_order(x, y, z):
    assert order_leq(x, x)
    if order_leq(x, y) and order_leq(y, x):
        assert x.x0 == y.x0 and np.array_equal(x.x1, y.x1)
    if order_leq(x, y) and order_leq(y, z):
        assert order_leq(x, z)


def test_order_grid_mismatch():
    with pytest.raises(DimensionError):
        order_leq(ProfileX(0, np.zeros(5)), ProfileX(0, np.zeros(7)))


# --- kernels ------------------------------------------------------------------


def test_kernel_eval_examples():
    g = SegmentGrid(0.5, 51)
    assert kernel_eval(ExponentialKernel(5.0, 1 / 6), 0.0, g.r) == 5.0
    assert kernel_eval(ConstantKernel(2.5), -0.3, g.r) == 2.5
    assert kernel_eval(ZeroKernel(), -0.1, g.r) == 0.0


def test_kernel_eval_exponential_decay():
    g = SegmentGrid(1.0, 51)
    k = ExponentialKernel(2.0, 0.5)
    assert kernel_eval(k, -1.0, g.r) == pytest.approx(2.0 * np.exp(-2.0))


def test_kernel_eval_sampled_interpolates():
    g = SegmentGrid(1.0, 3)  # nodes -1, -0.5, 0
    k = SampledKernel([0.0, 1.0, 0.0])
    assert kernel_eval(k, -0.75, g.r) == pytest.approx(0.5)


def test_sampled_kernel_nodes_follow_from_its_length():
    # the same five values on [-1, 0] at any sampling lag set
    k = SampledKernel([0.0, 1.0, 2.0, 3.0, 4.0])  # nodes -1, -0.75, ..., 0
    assert kernel_eval(k, -0.625, 1.0) == pytest.approx(1.5)
    assert kernel_eval(k, -0.625, 2.0) == pytest.approx(2.75)
    with pytest.raises(DimensionError):
        SampledKernel([1.0])


def test_sampled_kernel_compares_and_hashes_by_value():
    k = SampledKernel([0.0, 1.0, 2.0])
    same = SampledKernel(np.array([0, 1, 2]))
    assert k == same and hash(k) == hash(same)
    assert k != SampledKernel([0.0, 1.0, 2.5])
    assert k != SampledKernel([0.0, 1.0, 2.0, 2.0])
    assert k != ConstantKernel(1.0)
    assert len({k, same, SampledKernel([0.0, 1.0, 2.5])}) == 2


def test_sampled_kernel_keeps_a_read_only_copy():
    values = np.array([0.0, 1.0, 2.0])
    k = SampledKernel(values)
    values[0] = 5.0  # the caller's array stays writeable and is not shared
    assert k.values[0] == 0.0
    with pytest.raises(ValueError):
        k.values[1] = 3.0


def test_kernel_eval_domain_error():
    g = SegmentGrid(0.5, 11)
    with pytest.raises(DomainError):
        kernel_eval(ConstantKernel(1.0), -0.6, g.r)
    with pytest.raises(DomainError):
        kernel_eval(ConstantKernel(1.0), 0.1, g.r)


def test_kernel_is_zero():
    assert kernel_is_zero(ZeroKernel())
    assert kernel_is_zero(ConstantKernel(0.0))
    assert kernel_is_zero(SampledKernel(np.zeros(4)))
    assert not kernel_is_zero(ExponentialKernel(1.0, 1.0))


def test_point_lag_is_zero_at_zero_amplitude():
    assert kernel_is_zero(PointDelay(0.0))
    assert not kernel_is_zero(PointDelay(-1.0))


# --- window sums ----------------------------------------------------------------


def test_point_lag_window_reads_the_oldest_row():
    # the one-sample window amp * x_k, over path columns and over one column
    rng = np.random.default_rng(7)
    m, steps = 5, 6
    samples = rng.standard_normal((m + steps + 1, 3))
    k = PointDelay(-0.7)
    paths = DelayWindow(k, None, 1e-3, samples)
    col = DelayWindow(k, None, 1e-3, samples[:, 1].copy())
    for step in range(steps):
        newest = samples[step + m]
        np.testing.assert_array_equal(paths.sum(step, newest), -0.7 * samples[step])
        assert col.sum(step, float(newest[1])) == -0.7 * samples[step, 1]
        paths.advance(step)
        col.advance(step)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 513])
def test_window_sum_per_column_independent_of_column_count(n):
    # each column's raw sum is taken in lag order whatever the column
    # count; a BLAS gemv and a one-column einsum both regroup it
    rng = np.random.default_rng(5)
    m = 500
    k = SampledKernel(rng.standard_normal(m + 1))
    samples = rng.standard_normal((m + 2, 1024))
    head = k.values[:-1]

    def want(row):
        return np.array(
            [np.cumsum(head * samples[row : row + m, i])[-1] for i in range(n)]
        )

    narrow = DelayWindow(k, k.values, 1e-3, np.ascontiguousarray(samples[:, :n]))
    wide = DelayWindow(k, k.values, 1e-3, samples)
    for step in (0, 1):
        np.testing.assert_array_equal(narrow.h, want(step))
        np.testing.assert_array_equal(wide.h[:n], want(step))
        narrow.advance(step)  # a sampled kernel re-sums the next window
        wide.advance(step)


def test_window_sum_in_place_forms_match_scalar_forms():
    # a window over path columns, summed and moved on in place, gives each
    # column the bits of a window over that column alone, in Python floats
    rng = np.random.default_rng(6)
    dt, m, steps = 1e-3, 50, 8
    for k in (ExponentialKernel(-2.0, 0.3), ConstantKernel(0.7)):
        values = kernel_eval(k, -0.05 + dt * np.arange(m + 1), 0.05)
        samples = rng.standard_normal((m + steps + 1, 8))
        paths = DelayWindow(k, values, dt, samples)
        cols = [DelayWindow(k, values, dt, samples[:, i].copy()) for i in range(8)]
        for i, col in enumerate(cols):
            # the first raw sums differ in their grouping (einsum against a
            # dot), so the recursion starts from the same one
            col.h = float(paths.h[i])
        for step in range(steps):
            got = paths.sum(step, samples[step + m])
            paths.advance(step)
            for i, col in enumerate(cols):
                assert got[i] == col.sum(step, float(samples[step + m, i]))
                col.advance(step)
                assert paths.h[i] == col.h


@pytest.mark.parametrize("m", [1, 2, 50])
@pytest.mark.parametrize(
    "kernel",
    [
        ExponentialKernel(-2.0, 0.3),
        ConstantKernel(0.7),
        SampledKernel(np.sin(np.linspace(0.0, 3.0, 13))),
        PointDelay(-0.7),
    ],
    ids=["exponential", "constant", "sampled", "point"],
)
def test_window_sums_equal_the_step_by_step_sums(kernel, m):
    # the costate's layout: m zero rows, a jump, then a rough run, every
    # row filled; sums() against sum(k, row k + m) then advance(k)
    rng = np.random.default_rng(m)
    dt = 1e-3
    samples = np.zeros(m + 300)
    samples[m:] = 2.7 + rng.standard_normal(300)
    values = (
        None if isinstance(kernel, PointDelay)
        else kernel_eval(kernel, -m * dt + dt * np.arange(m + 1), m * dt)
    )
    stepped, whole = (DelayWindow(kernel, values, dt, samples) for _ in range(2))
    past = 0 if values is None else m  # a point lag's window is its one row
    want = np.empty(len(samples) - past)
    for k in range(len(want)):
        want[k] = stepped.sum(k, samples.item(k + past))
        stepped.advance(k)
    np.testing.assert_array_equal(whole.sums(), want)
    if values is not None:
        assert whole.h == stepped.h
