"""Structural lifting of the delay dynamics to R x L2([-r,0]).

Contains the structural map M that turns (initial goodwill, goodwill
history, advertising history) into the lifted initial state, an RK4
engine for linear delay ODEs (distributed or point lag), and the two
delay semigroups realized through that engine: the adjoint semigroup of
the full model and the state semigroup of the state-delay-only model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Kernel,
    ProfileX,
    SegmentGrid,
    kernel_eval,
    kernel_is_zero,
)
from .sdde import BlowupError, ConfigurationError, ModelParams


@dataclass(frozen=True)
class DistributedKernel:
    a1: Kernel


@dataclass(frozen=True)
class PointDelay:
    a1_scalar: float


@dataclass(frozen=True)
class DelayODEProblem:
    """phi'(t) = a0 phi(t) + delay term, with phi = x1 on [-r, 0]."""

    a0: float
    delay: DistributedKernel | PointDelay
    x0: float
    x1: np.ndarray
    grid: SegmentGrid
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.t_end < 0:
            raise ValueError("horizon must be non-negative")
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
    h = grid.spacing
    a1v = kernel_eval(params.a1, grid.nodes, grid)
    b1v = kernel_eval(params.b1, grid.nodes, grid)
    m = np.zeros(n)
    for i in range(1, n):
        w = np.full(i + 1, h)
        w[0] = w[-1] = h / 2
        # node j of the z-grid pairs with history node n-1-i+j
        seg = slice(n - 1 - i, n)
        m[i] = np.dot(w, a1v[: i + 1] * x1[seg]) + np.dot(w, b1v[: i + 1] * v[seg])
    return ProfileX(x0, m)


def solve_delay_ode(problem: DelayODEProblem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the linear delay ODE on [0, t_end].

    The distributed delay integral is a trapezoid quadrature on the
    segment grid; delayed values are read by linear interpolation from
    the initial profile and the stored trajectory. Stage evaluations
    past the last accepted point interpolate between the accepted value
    and the stage value itself, which keeps the integral well defined at
    the xi = 0 endpoint.

    Returns (times on [0, t_end], trajectory values).
    """
    grid = problem.grid
    r = grid.r
    if problem.t_end == 0:
        return np.zeros(1), np.array([problem.x0], dtype=float)
    steps = max(1, round(problem.t_end / dt))
    dt_eff = problem.t_end / steps

    n = grid.n_nodes
    times = np.concatenate([grid.nodes[:-1], dt_eff * np.arange(steps + 1)])
    vals = np.empty(len(times))
    vals[: n - 1] = problem.x1[:-1]
    vals[n - 1] = problem.x0

    distributed = isinstance(problem.delay, DistributedKernel)
    if distributed:
        kq = grid.weights * kernel_eval(problem.delay.a1, grid.nodes, grid)
        use_delay = not kernel_is_zero(problem.delay.a1)
    else:
        use_delay = problem.delay.a1_scalar != 0.0

    def rhs(s: float, ys: float, known: int) -> float:
        # known = index of the last accepted sample; s >= times[known]
        out = problem.a0 * ys
        if not use_delay:
            return out
        end = known + 1
        if s > times[known]:
            # the stage point borrows the next slot until the step is accepted
            times[end], vals[end] = s, ys
            end += 1
        xs, fs = times[:end], vals[:end]
        if distributed:
            out += float(np.dot(kq, np.interp(s + grid.nodes, xs, fs)))
        else:
            out += problem.delay.a1_scalar * float(np.interp(s - r, xs, fs))
        return out

    for k in range(steps):
        i = n - 1 + k
        t0, t1 = times[i], times[i + 1]
        y0 = vals[i]
        k1 = rhs(t0, y0, i)
        k2 = rhs(t0 + dt_eff / 2, y0 + dt_eff * k1 / 2, i)
        k3 = rhs(t0 + dt_eff / 2, y0 + dt_eff * k2 / 2, i)
        k4 = rhs(t0 + dt_eff, y0 + dt_eff * k3, i)
        ynew = y0 + dt_eff / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(ynew):
            raise BlowupError(f"delay ODE blew up at step {k + 1}")
        times[i + 1], vals[i + 1] = t1, ynew

    return times[n - 1 :], vals[n - 1 :]


def _semigroup_apply(problem: DelayODEProblem, t: float, dt: float) -> ProfileX:
    if t < 0:
        raise ValueError("semigroup time must be non-negative")
    grid = problem.grid
    if t == 0:
        return ProfileX(problem.x0, problem.x1.copy())
    times, phi = solve_delay_ode(problem, dt)
    shifted = t + grid.nodes
    out = np.where(
        shifted >= 0,
        np.interp(np.maximum(shifted, 0.0), times, phi),
        np.interp(np.minimum(shifted, 0.0), grid.nodes, problem.x1),
    )
    return ProfileX(float(phi[-1]), out)


def adjoint_semigroup_apply(
    t: float, x: ProfileX, params: ModelParams, grid: SegmentGrid, dt: float
) -> ProfileX:
    """e^{tA*} x = (phi(t), phi(t + .)|[-r,0]) for the distributed-delay ODE."""
    prob = DelayODEProblem(
        params.a0, DistributedKernel(params.a1), x.x0, x.x1, grid, t_end=max(t, 0.0)
    )
    return _semigroup_apply(prob, t, dt)


def state_semigroup_apply(
    t: float, x: ProfileX, a0: float, a1_scalar: float, grid: SegmentGrid, dt: float
) -> ProfileX:
    """S(t) x = (u(t), u(t + .)|[-r,0]) for the point-delay ODE."""
    prob = DelayODEProblem(
        a0, PointDelay(a1_scalar), x.x0, x.x1, grid, t_end=max(t, 0.0)
    )
    return _semigroup_apply(prob, t, dt)
