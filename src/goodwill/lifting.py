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

from .hilbert import Kernel, ProfileX, SegmentGrid, kernel_eval
from .sdde import BlowupError, ConfigurationError, ModelParams, _check_horizon


@dataclass(frozen=True)
class PointDelay:
    a1_scalar: float


@dataclass(frozen=True)
class DelayODEProblem:
    """phi'(t) = a0 phi(t) + delay term, with phi = x1 on [-r, 0].

    The delay term is int a1(xi) phi(t + xi) dxi over [-r, 0] for a
    kernel a1, or a1_scalar phi(t - r) for a point lag.
    """

    a0: float
    delay: Kernel | PointDelay
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
    _check_horizon(params, grid)
    h = grid.spacing

    def quadrature(k: Kernel, f: np.ndarray) -> np.ndarray:
        # node i pairs kernel node j with profile node n-1-i+j, a convolution
        # with the reversed profile; the two end terms carry half weight
        kv, fr = kernel_eval(k, grid.nodes, grid.r), f[::-1]
        return h * np.convolve(kv, fr)[:n] - h / 2 * (kv[0] * fr + kv * f[-1])

    return ProfileX(x0, quadrature(params.a1, x1) + quadrature(params.b1, v))


def solve_delay_ode(problem: DelayODEProblem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the linear delay ODE on [0, t_end].

    The delay term is one lag quadrature, built once: the segment grid's
    trapezoid rule against a1 for a kernel, the single lag -r for a point
    delay. Delayed values are read by linear interpolation from the
    initial profile and the stored trajectory. Stage evaluations
    past the last accepted point interpolate between the accepted value
    and the stage value itself, which keeps the integral well defined at
    the xi = 0 endpoint.

    Returns (times on [0, t_end], trajectory values).
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
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

    if isinstance(problem.delay, PointDelay):
        lags, weights = np.array([-r]), np.array([problem.delay.a1_scalar])
    else:
        lags = grid.nodes
        weights = grid.weights * kernel_eval(problem.delay, lags, r)

    def delay_rhs(s: float, ys: float, known: int) -> float:
        # known = index of the last accepted sample; s >= times[known]
        end = known + 1
        if s > times[known]:
            # the stage point borrows the next slot until the step is accepted
            times[end], vals[end] = s, ys
            end += 1
        delayed = np.interp(s + lags, times[:end], vals[:end])
        return problem.a0 * ys + float(np.dot(weights, delayed))

    # a zero delay term reads nothing
    rhs = delay_rhs if np.any(weights) else lambda s, ys, known: problem.a0 * ys

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
    _check_horizon(params, grid)
    prob = DelayODEProblem(
        params.a0, params.a1, x.x0, x.x1, grid, t_end=max(t, 0.0)
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
