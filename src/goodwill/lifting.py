"""Structural lifting of the delay dynamics to R x L2([-r,0]).

Contains the structural map M that turns (initial goodwill, goodwill
history, advertising history) into the lifted initial state, and an RK4
engine for linear delay ODEs.

The engine is the method of steps on a uniform time grid (Bellman and
Cooke, Differential-Difference Equations, 1963): each RK4 stage reads
its lags at the same offsets from the current step, so the delay term is
a stencil built once per solve, and a step costs one gather and one
small product whatever r/dt is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Kernel, PointDelay, ProfileX, SegmentGrid, kernel_eval
from .sdde import (
    BlowupError,
    ConfigurationError,
    ModelParams,
    _check_horizon,
    _steps_of,
)


@dataclass(frozen=True)
class DelayODEProblem:
    """phi'(t) = a0 phi(t) + delay term, with phi = x1 on [-r, 0].

    The delay term is int a1(xi) phi(t + xi) dxi over [-r, 0] for a
    kernel a1 with a density, or amp * phi(t - r) for a point lag.
    """

    a0: float
    delay: Kernel
    x0: float
    x1: np.ndarray
    grid: SegmentGrid
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if len(self.x1) != self.grid.n_nodes:
            raise ConfigurationError("initial profile must live on the grid")


def lift_M(
    x0: float,
    x1: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    grid: SegmentGrid,
) -> ProfileX:
    """Structural map M(x0, x1, v) = (x0, m(.)),

        m(xi) = int_{-r}^{xi} a1(z) x1(z - xi) dz
              + int_{-r}^{xi} b1(z) v(z - xi) dz,

    each node value a trapezoid quadrature over [-r, xi]. On a uniform
    grid the shifted arguments z - xi land exactly on grid nodes.
    """
    x1 = np.asarray(x1, dtype=float)
    v = np.asarray(v, dtype=float)
    n = grid.n_nodes
    if len(x1) != n or len(v) != n:
        raise ConfigurationError("profiles must live on the grid")
    _check_horizon(params, grid)
    h = grid.spacing

    def quadrature(k: Kernel, f: np.ndarray) -> np.ndarray:
        # node i pairs kernel node j with profile node n-1-i+j, a convolution
        # with the reversed profile; the two end terms carry half weight
        kv, fr = kernel_eval(k, grid.nodes, grid.r), f[::-1]
        return h * np.convolve(kv, fr)[:n] - h / 2 * (kv[0] * fr + kv * f[-1])

    return ProfileX(x0, quadrature(params.a1, x1) + quadrature(params.b1, v))


def solve_delay_ode(problem: DelayODEProblem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the linear delay ODE on [0, t_end], in steps dt
    that divide t_end > 0 (ConfigurationError otherwise).

    The delay term is one lag quadrature: the segment grid's trapezoid
    rule against a1 for a kernel, the single lag -r for a point delay.
    A lag reads phi by linear interpolation: between accepted steps of
    the trajectory, between the accepted value and the stage value itself
    for a lag that falls inside the current step (which keeps the
    integral well defined at the xi = 0 endpoint), and on the initial
    profile, taken as piecewise linear through x1 at nodes[:-1] and then
    x0 at 0, for t < 0. A zero delay term builds no stencil and reads
    nothing: its steps are RK4 on a0 * phi, in the same loop.

    On the uniform step the lag xi_j of stage c (0, 1/2 or 1) lands at
    grid position k + c + xi_j/dt, so its offset from step k and its
    interpolation weights are the same at every step. They are merged
    once per solve into one stencil per stage over the stored trajectory,
    plus the coefficient of the stage value itself. A step then costs one
    gather of at most two entries per lag and stage and one 3-row product,
    whatever k or r/dt (the two c = 1/2 stages share a row). The history
    is a separate term of the first r/dt steps, built one lag at a time;
    the trajectory is padded with zeros ahead of t = 0, so every step
    takes the same gather. The result agrees with per-stage np.interp
    reads to round-off (tested at 1e-13 relative).

    Returns (times on [0, t_end], trajectory values).
    """
    steps = _steps_of(problem.t_end, dt, "t_end")
    dt = problem.t_end / steps
    grid = problem.grid
    r = grid.r
    times = dt * np.arange(steps + 1)

    if isinstance(problem.delay, PointDelay):
        lags, weights = np.array([-r]), np.array([problem.delay.amp])
    else:
        lags = grid.nodes
        weights = grid.weights * kernel_eval(problem.delay, lags, r)

    a0, y = float(problem.a0), float(problem.x0)
    gather = bool(np.any(weights))  # a zero delay term reads nothing
    if gather:
        offsets, coef, alpha, history = _lag_stencils(problem, lags, weights, dt, steps)
        pad = -int(offsets[0])
        read, a_half, a_one = offsets + pad, a0 + alpha[1], a0 + alpha[2]
    else:
        pad, a_half, a_one, history = 0, a0, a0, ()
    # row pad + k holds phi(t_k); the zero rows ahead of it stand for t < 0,
    # whose values the history term carries
    padded = np.zeros(pad + steps + 1)
    padded[pad] = y
    rows, n_hist = memoryview(padded), len(history)
    d0 = d_half = d_one = 0.0
    # overflow shows as a non-finite step, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if gather:
                d = np.dot(coef, padded[k:].take(read))
                if k < n_hist:
                    d += history[k]
                d0, d_half, d_one = d.tolist()
            k1 = a0 * y + d0
            k2 = a_half * (y + dt * k1 / 2) + d_half
            k3 = a_half * (y + dt * k2 / 2) + d_half
            k4 = a_one * (y + dt * k3) + d_one
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not math.isfinite(y):
                raise BlowupError(f"delay ODE blew up at step {k + 1}")
            rows[pad + k + 1] = y
    return times, padded[pad:]


_STAGES = (0.0, 0.5, 1.0)  # RK4's stage points, in steps after t_k


def _lag_stencils(problem: DelayODEProblem, lags, weights, dt: float, steps: int):
    """The delay term of each RK4 stage as a fixed stencil.

    Returns (offsets, coef, alpha, history): the delay term of stage c at
    step k is coef[c] @ phi[k + offsets] + alpha[c] * (stage value)
    + history[k, c], with phi zero before t = 0 and history zero past
    its rows, the steps whose lags reach back before t = 0.
    """
    x0, nodes = float(problem.x0), problem.grid.nodes
    profile = np.append(problem.x1[:-1], x0)  # the history, at the nodes
    n_hist = min(steps, -math.floor(lags.min() / dt))
    history = np.zeros((n_hist, len(_STAGES)))
    k = np.arange(n_hist)
    stage, offs, wts, alpha = [], [], [], []
    for row, c in enumerate(_STAGES):
        pos = c + lags / dt  # grid position of each lag, relative to step k
        # in (t_k, t_k + c dt]: between phi(t_k) and the stage value
        inside = pos > 0
        frac = pos[inside] / c  # (empty at c = 0)
        alpha.append(float(np.dot(weights[inside], frac)))
        # at or before t_k: between two accepted steps
        low = np.floor(pos[~inside]).astype(np.intp)
        f = pos[~inside] - low
        q = weights[~inside]
        up = f > 0
        offs.append(np.concatenate([low, low[up] + 1, np.zeros(len(frac), np.intp)]))
        wts.append(
            np.concatenate([(1 - f) * q, f[up] * q[up], (1 - frac) * weights[inside]])
        )
        stage.append(np.full(len(offs[-1]), row))

        # a lag whose lower neighbour lies before t = 0 reads the history
        # instead, one lag at a time over the steps where it does (no
        # steps x lags temporary); the stencil's weight on its upper
        # neighbour phi(0) = x0 is taken back at the last such step
        s = dt * k + c * dt
        past = zip(low.tolist(), f.tolist(), q.tolist(), lags[~inside].tolist())
        for lo, fj, qj, xi in past:
            n = min(n_hist, -lo)
            if n > 0:
                history[:n, row] += qj * np.interp(s[:n] + xi, nodes, profile)
            if n == -lo > 0:
                history[n - 1, row] -= qj * fj * x0
    # the offsets any stage reads, in order (np.unique would load sort code
    # that adds to the resident set)
    offs = np.concatenate(offs)
    offsets = np.flatnonzero(np.bincount(offs - offs.min())) + offs.min()
    coef = np.zeros((len(_STAGES), len(offsets)))
    at = (np.concatenate(stage), np.searchsorted(offsets, offs))
    np.add.at(coef, at, np.concatenate(wts))
    return offsets, coef, alpha, history

