"""Reference computations for tests: the exact e1 trajectory of the scalar
linear delay equation, a delay window re-summed every step, and noise of
unit kicks that gives a scheme's response to each of its normals.

    phi'(t) = a0 phi(t) + D(t),   phi = 0 on [-r, 0), phi(0) = 1,

with D(t) = int_{-r}^0 a1(xi) phi(t + xi) dxi for a density a1, or
amp * phi(t - r) for a point lag. This is the trajectory that gives
e^{tA*} e1 = (phi(t), phi(t + .)) and the costate w0(s) = gamma phi(T - s).

Method of steps (Bellman and Cooke, Differential-Difference Equations,
1963): on the k-th interval, s in [0, r], the pieces phi_j(s) = phi(jr + s),
j = 0..k, solve one linear ODE with constant coefficients, block lower
bidiagonal in j, each piece starting where the one before ended. A density
carries its delay integral D_j(s) = D(jr + s) along: for
a1(xi) = A e^{xi/delta} (ExponentialKernel),

    D'(t) = A phi(t) - D(t)/delta - A e^{-r/delta} phi(t - r),

and a constant density is delta = inf, where 1/delta = 0. A point lag needs no D.
The matrix exponential of that ODE over one sample step (scipy.linalg.expm;
Van Loan, IEEE Trans. Automatic Control 23, 1978) is the interval's
propagator, so a trajectory costs one expm per interval, not one per sample.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from goodwill.hilbert import Kernel, PointDelay


def _generator(a0: float, a1: Kernel, r: float, k: int) -> np.ndarray:
    """The matrix of the pieces j = 0..k on the k-th interval: state
    (phi_0, ..., phi_k) for a point lag, (phi_0, D_0, ..., phi_k, D_k)
    for a density."""
    if isinstance(a1, PointDelay):
        return a0 * np.eye(k + 1) + a1.amp * np.eye(k + 1, k=-1)
    decay = 1 / a1.decay_scale
    g = np.zeros((2 * (k + 1), 2 * (k + 1)))
    for j in range(k + 1):
        p, d = 2 * j, 2 * j + 1
        g[p, p], g[p, d] = a0, 1.0
        g[d, p], g[d, d] = a1.amp, -decay
        if j:
            g[d, p - 2] = -a1.amp * math.exp(-r * decay)
    return g


def e1_trajectory(a0: float, a1: Kernel, r: float, t_end: float, n: int) -> np.ndarray:
    """phi at the n + 1 times i * t_end / n, i = 0..n, whose step must
    divide r."""
    h = t_end / n
    m = round(r / h)
    if m < 1 or abs(m * h - r) > 1e-9 * r:
        raise ValueError(f"the step {h} does not divide r = {r}")
    width = 1 if isinstance(a1, PointDelay) else 2  # entries per piece
    phi = np.empty(n + 1)
    end = np.zeros(0)  # the pieces at the end of the previous interval
    for k in range(-(-n // m)):
        start = np.zeros(width)
        start[0] = 1.0  # phi(0) = 1; D(0) = 0 over the zero history
        state = np.concatenate([start, end])
        step = expm(_generator(a0, a1, r, k) * h)
        last = min(m, n - k * m)
        for i in range(last + 1):
            phi[k * m + i] = state[-width]  # phi_k(i h) = phi(k r + i h)
            if i < last:
                state = step @ state
        end = state
    return phi


class ResummedWindow:
    """DelayWindow's sum and advance with the sum taken over the whole
    window every step, the newest sample standing in for row k + m: the
    reference for the window's O(1) recursion, over one column per path
    or one shared row."""

    def __init__(self, kernel, values, dt, rows):
        self.values, self.dt, self.rows, self.m = values, dt, rows, len(values) - 1

    def sum(self, k, newest):
        v, dt, x = self.values, self.dt, self.rows[k : k + self.m + 1].copy()
        x[-1] = newest
        return dt * (v @ x) - dt / 2 * (v[0] * x[0] + v[-1] * x[-1])

    def advance(self, k):
        pass


def unit_kicks(seed, path_index, shape, n_paths=None):
    """sdde.path_normals' stand-in with a unit kick for noise: path k draws
    1.0 at entry k of its noise, counted in C order, and 0.0 elsewhere
    (whatever the seed), so a run with as many paths as entries gives the
    response to each entry."""
    run = 1 if n_paths is None else n_paths
    out = np.zeros((run, *np.atleast_1d(shape)))
    flat = out.reshape(run, -1)
    for j in range(run):
        flat[j, path_index + j] = 1.0
    return out[0] if n_paths is None else out
