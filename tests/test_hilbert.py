import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodwill.hilbert import (
    ConstantKernel,
    DimensionError,
    DomainError,
    ExponentialKernel,
    ProfileX,
    SampledKernel,
    SegmentGrid,
    ZeroKernel,
    inner_product,
    kernel_eval,
    kernel_from_json,
    kernel_is_zero,
    kernel_to_json,
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


@pytest.mark.parametrize(
    "k",
    [
        ZeroKernel(),
        ConstantKernel(-3.25),
        ExponentialKernel(5.0, 1 / 6),
        SampledKernel(np.array([0.0, 0.5, 1.0])),
    ],
)
def test_kernel_json_round_trip(k):
    s = kernel_to_json(k)
    back = kernel_from_json(s)
    assert type(back) is type(k)
    g = SegmentGrid(1.0, 3)
    xi = g.nodes
    np.testing.assert_allclose(kernel_eval(back, xi, g.r), kernel_eval(k, xi, g.r))


def test_kernel_json_schema_fields():
    obj = json.loads(kernel_to_json(ExponentialKernel(5.0, 0.25)))
    assert obj == {"type": "exponential", "amp": 5.0, "delta": 0.25}
