import math

import numpy as np
import pytest
from oracle import e1_trajectory

from goodwill.hilbert import ExponentialKernel, PointDelay

# the oracle's own checks against closed forms; the engines are checked
# against it in test_lifting.py and test_lq.py


@pytest.mark.parametrize(
    "a1", [ExponentialKernel(0.0, math.inf), ExponentialKernel(0.0, 0.2), PointDelay(0.0)],
    ids=["constant", "exponential", "point"],
)
def test_no_delay_gives_the_exponential(a1):
    # three intervals of r = 0.5 and a partial fourth
    t = np.linspace(0.0, 1.7, 341)
    phi = e1_trajectory(-0.7, a1, 0.5, 1.7, 340)
    np.testing.assert_allclose(phi, np.exp(-0.7 * t), rtol=1e-12)


@pytest.mark.parametrize("a1", [0.8, -1.5])
def test_point_lag_closed_form_on_the_second_interval(a1):
    # phi = e^{a0 t} on [0, r], then phi' = a0 phi + a1 e^{a0 (t - r)}
    a0, r = -0.5, 0.5
    t = np.linspace(0.0, 2 * r, 201)
    phi = e1_trajectory(a0, PointDelay(a1), r, 2 * r, 200)
    second = t >= r
    expect = np.exp(a0 * t[second]) * (1 + a1 * (t[second] - r) * np.exp(-a0 * r))
    np.testing.assert_allclose(phi[second], expect, rtol=1e-12)
    np.testing.assert_allclose(phi[~second], np.exp(a0 * t[~second]), rtol=1e-12)


def test_a_slowly_decaying_kernel_tends_to_the_constant_one():
    # the constant kernel is the exponential one at decay_scale -> inf
    slow = e1_trajectory(-0.5, ExponentialKernel(-2.0, 1e9), 0.5, 2.0, 400)
    flat = e1_trajectory(-0.5, ExponentialKernel(-2.0, math.inf), 0.5, 2.0, 400)
    np.testing.assert_allclose(slow, flat, rtol=0, atol=1e-9)


def test_samples_do_not_depend_on_the_step():
    # one propagator per interval and step: a coarse grid reads the same
    # trajectory as every fourth sample of a fine one
    a1 = ExponentialKernel(-5.0, 1 / 6)
    coarse = e1_trajectory(-0.5, a1, 0.5, 1.0, 100)
    fine = e1_trajectory(-0.5, a1, 0.5, 1.0, 400)
    np.testing.assert_allclose(coarse, fine[::4], rtol=0, atol=1e-12)


def test_a_step_that_does_not_divide_r_is_refused():
    with pytest.raises(ValueError, match="does not divide r"):
        e1_trajectory(-0.5, ExponentialKernel(1.0, math.inf), 0.5, 1.0, 3)
