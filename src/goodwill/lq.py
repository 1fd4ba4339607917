"""Closed-form linear-reward / quadratic-cost optimal control.

The value function is v(t,x) = <w(t), x> + c(t), where the costate
w = (w0, w1) solves an advanced ODE ending at w0(T) = gamma, w1 is the
shifted read-off w1(t,xi) = w0(t-xi) on [0,T] (zero beyond T), and c
accumulates the squared positive part of <B, w>. The costate is the e1
trajectory phi (the state's delay equation from phi(0) = 1 over a zero
history) run backward: w0(t) = gamma * phi(T - t), so solve_costate
integrates gamma * phi forward. From the costate we obtain the
optimal open-loop policy, the memoryless baseline, the mean and variance
of the optimal trajectory, and the sensitivity of the value with respect
to the delay horizon.

The delay integral of the forward solve and the pairing <B, w> are
trapezoid sums over a hilbert.DelayWindow of m+1 samples of phi; for
exponential and constant kernels they are updated in O(1) per step, and
a sampled kernel is re-summed over its window. The two agree to 1e-12
relative over 1e5 steps (tests compare them). The pairing is one pass
over the filled phi rows. A costate that leaves the finite range raises
sdde.BlowupError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ConstantKernel,
    DelayWindow,
    DomainError,
    PointDelay,
    ProfileX,
    SegmentGrid,
    kernel_eval,
    kernel_is_zero,
)
from .lifting import DelayODEProblem, solve_delay_ode
from .sdde import (
    BlowupError,
    ConfigurationError,
    Memoryless,
    ModelParams,
    OpenLoop,
    Policy,
    _check_horizon,
    _steps_of,
    open_loop_controls,
)


@dataclass(frozen=True)
class CostateSolution:
    """Costate w0, running constant c, and <B, w> samples on [0, T]."""

    t: np.ndarray
    w0: np.ndarray
    c: np.ndarray
    bw: np.ndarray
    beta: float
    params: ModelParams

    @property
    def T(self) -> float:
        return float(self.t[-1])

    def w0_at(self, t) -> float:
        return np.interp(t, self.t, self.w0)

    def c_at(self, t) -> float:
        return np.interp(t, self.t, self.c)


def solve_costate(
    params: ModelParams, gamma: float, beta: float, dt: float
) -> CostateSolution:
    """The costate w0(t) = gamma * phi(T - t), from the e1 trajectory phi.

    gamma * phi solves the delay equation
    x' = a0 x + int a1(xi) x(u + xi) dxi forward from gamma over a zero
    history, by Heun's predictor-corrector on the layout of
    sdde.simulate_paths: m history rows, then one row per step, with the
    delay integral a trapezoid DelayWindow over the rows. <B, w> is a
    second window over the same rows, and c accumulates the squared
    positive part of <B, w> from c(T) = 0.

    With a1 = 0 the slope is a0 * phi and the Heun loop runs on local
    floats; an exponential or constant a1 runs on local floats too, with
    the window's sum and advance written out inline, and a sampled a1
    sums and advances its window at each step. The pairing comes after,
    from the filled rows in one DelayWindow.sums pass. The bits are those
    of a loop of sum/advance calls per step.
    """
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    n = _steps_of(params.T, dt, "T")
    m = _steps_of(params.r, dt, "r")

    t = dt * np.arange(n + 1)
    xi = -params.r + dt * np.arange(m + 1)

    # row m + i holds gamma * phi(u_i), u_i = i*dt, that is w0(T - u_i);
    # the zero history rows below it stand for w0 = 0 beyond T
    phi = np.zeros(m + n + 1)
    phi[m] = gamma
    p = phi.item  # samples as Python floats: scalar arithmetic is faster

    # the rows jump from 0 to gamma at u = 0 (row m), which the window at
    # step i holds at node j = m - i; a jump interior to the window carries the
    # trapezoid boundary weight dt/2, not dt, so each window sum drops
    # jump(values)[i] = dt/2 * values[j] * gamma
    def jump(values: np.ndarray) -> np.ndarray:
        out = np.zeros(n + 1)
        i = np.arange(1, min(m, n + 1))
        out[i] = dt / 2 * values[m - i] * gamma
        return out

    a0, half, prev, rows = float(params.a0), dt / 2, p(m), memoryview(phi)
    # overflow shows as a non-finite costate, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        win_a = None
        if not kernel_is_zero(params.a1):
            a1v = kernel_eval(params.a1, xi, params.r)
            win_a = DelayWindow(params.a1, a1v, dt, phi)
            jump_a = jump(a1v).item

        if win_a is None:
            # the slope is a0 * phi: Heun's step on Python floats
            for i in range(m + 1, m + n + 1):
                f1 = a0 * prev
                prev = prev + half * (f1 + a0 * (prev + dt * f1))
                rows[i] = prev
        elif win_a.rho is not None:
            # the window's sum and advance, inlined on Python floats: a, b
            # are its end terms and h its raw sum
            first, last, rho, h = win_a.first, win_a.last, win_a.rho, win_a.h
            for i in range(1, n + 1):
                a, b = first * p(i - 1), last * prev
                f1 = a0 * prev + (dt * (h + 0.5 * (b - a)) - jump_a(i - 1))
                h = rho * (h - a + b)
                pred = prev + dt * f1
                a, b = first * p(i), last * pred
                f2 = a0 * pred + (dt * (h + 0.5 * (b - a)) - jump_a(i))
                prev = prev + half * (f1 + f2)
                rows[m + i] = prev
        else:

            def slope(i: int, phi_i: float) -> float:
                return params.a0 * phi_i + (win_a.sum(i, phi_i) - jump_a(i))

            for i in range(1, n + 1):
                prev = p(m + i - 1)
                f1 = slope(i - 1, prev)
                win_a.advance(i - 1)
                f2 = slope(i, prev + dt * f1)
                phi[m + i] = prev + dt / 2 * (f1 + f2)

        bw = params.b0 * phi[m:]
        if not kernel_is_zero(params.b1):
            # every row of phi is filled now, so the pairing is one pass
            b1v = kernel_eval(params.b1, xi, params.r)
            bw = bw + DelayWindow(params.b1, b1v, dt, phi).sums() - jump(b1v)

        # c(T - u_i) sums dt/2 (g_{l-1} + g_l) over l = 1..i, in that order
        g = np.maximum(bw, 0.0) ** 2 / (4.0 * beta)
        c = np.zeros(n + 1)
        c[1:] = np.cumsum(dt / 2 * (g[:-1] + g[1:]))
        w0, bw, c = (np.flip(v).copy() for v in (phi[m:], bw, c))
        _check_finite(w0, t, "w0")
        _check_finite(bw, t, "<B, w>")
        _check_finite(c, t, "c")

    return CostateSolution(t=t, w0=w0, c=c, bw=bw, beta=beta, params=params)


def _check_finite(values: np.ndarray, t: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # phi runs forward from u = 0, i.e. backward from t = T, so the last
        # bad index fails first
        raise BlowupError(
            f"costate {name} left the finite range at t={t[bad[-1]]:g}"
        )


def optimal_policy_lq(costate: CostateSolution, params: ModelParams) -> OpenLoop:
    """Open-loop optimal control z*(t) = <B, w(t)>^+ / (2 beta)."""
    z = np.maximum(costate.bw, 0.0) / (2.0 * costate.beta)
    return OpenLoop(t=costate.t, z=z)


def memoryless_policy(params: ModelParams, gamma: float, beta: float) -> Policy:
    """Baseline z0(t) = gamma*b0*exp((T-t)a0)/(2 beta), optimal for a1=b1=0."""
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    return Memoryless(gamma=gamma, beta=beta)


def value_lq(
    t: float, xbar: ProfileX, costate: CostateSolution, grid: SegmentGrid
) -> float:
    """v(t, x) = <w(t), x> + c(t) for a lifted state x.

    The function component w1(t, .) drops to zero at xi = t - T (w0(T)
    is generally non-zero there), so the L2 pairing is integrated with
    that cutoff placed exactly rather than by a nodewise rule across the
    jump.
    """
    if t < -1e-12 or t > costate.T + 1e-12:
        raise DomainError(f"t={t} outside [0, {costate.T}]")
    _check_horizon(costate.params, grid)
    xi = grid.nodes
    cut = t - costate.T
    if cut <= xi[0] + 1e-15:
        pts, vals = xi, np.asarray(xbar.x1, dtype=float)
    else:
        mask = xi > cut
        pts = np.concatenate([[cut], xi[mask]])
        vals = np.concatenate(
            [[np.interp(cut, xi, xbar.x1)], np.asarray(xbar.x1)[mask]]
        )
    pairing = float(np.trapezoid(costate.w0_at(t - pts) * vals, pts))
    return float(costate.w0_at(t)) * float(xbar.x0) + pairing + float(costate.c_at(t))


@functools.lru_cache(maxsize=1)
def _e1_trajectory(params: ModelParams, grid: SegmentGrid, t: float, dt: float):
    """The e1 trajectory phi on [0, t] and the policy-free terms it gives.

    phi solves the distributed delay ODE from x0 = 1, x1 = 0. Returns the
    read-only arrays (times, phi, q, tail): q(s) = <B, e^{(t-s)A*} e1>
    at the times (None for a point b1, which has no density to pair
    with) and tail = phi(t + xi) at the grid nodes. One entry is kept:
    trajectory_mean for two policies and trajectory_variance on one
    model share a solve, and nothing outlives the next model.
    """
    prob = DelayODEProblem(params.a0, params.a1, 1.0, np.zeros(grid.n_nodes), grid, t)
    times, phi = solve_delay_ode(prob, dt)

    def phi_at(u):
        # u is a fresh array, clipped at 0 in place: the (steps x nodes)
        # argument of q then needs one temporary of its size, not three
        before = ~(u >= 0)
        out = np.interp(np.maximum(u, 0.0, out=u), times, phi)
        out[before] = 0.0
        return out

    tail = phi_at(t + grid.nodes)
    q = None
    if not isinstance(params.b1, PointDelay):
        b1v = kernel_eval(params.b1, grid.nodes, params.r)
        q = params.b0 * phi_at(t - times)
        if not kernel_is_zero(params.b1):
            shifted = (t - times)[:, None] + grid.nodes[None, :]
            q = q + phi_at(shifted) @ (grid.weights * b1v)
    for a in (times, phi, q, tail):
        if a is not None:
            a.setflags(write=False)
    return times, phi, q, tail


def trajectory_mean(
    t: float,
    y_init: ProfileX,
    policy: Policy,
    params: ModelParams,
    grid: SegmentGrid,
    dt: float,
) -> float:
    """E Y0(t) = <Y(0), e^{tA*}e1> + int_0^t <B z(s), e^{(t-s)A*}e1> ds.

    A single delay ODE solve for phi with e1 initial data supplies every
    semigroup evaluation: e^{uA*}e1 = (phi(u), phi(u + .)). That solve
    and the control response q(s) = <B, e^{(t-s)A*}e1> depend on the
    model, the grid, t and dt only, so they sit in a one-entry memo
    (read-only arrays) that the means of several policies and
    trajectory_variance on the same model share; a call adds only the
    policy's part. The control is clipped to [u_min, u_max], as in
    sdde.simulate_paths.
    """
    _check_horizon(params, grid)
    if t == 0:
        return float(y_init.x0)
    times, phi, q, tail = _e1_trajectory(params, grid, t, dt)
    if q is None:
        kernel_eval(params.b1, grid.nodes, params.r)  # refuses the point lag
    term1 = y_init.x0 * float(phi[-1]) + float(np.dot(grid.weights, y_init.x1 * tail))
    z = open_loop_controls(policy, params, times, "trajectory_mean")
    return term1 + float(np.trapezoid(z * q, times))


def trajectory_variance(
    t: float, params: ModelParams, grid: SegmentGrid, dt: float
) -> float:
    """Var Y0(t) = sigma^2 int_0^t phi(u)^2 du with the e1 trajectory phi,
    read from the one-entry memo that trajectory_mean fills (one solve
    per model, read-only arrays)."""
    _check_horizon(params, grid)
    if t == 0:
        return 0.0
    times, phi, _, _ = _e1_trajectory(params, grid, t, dt)
    return params.sigma**2 * float(np.trapezoid(phi**2, times))


def sensitivity_dV_dr(
    t: float,
    x: ProfileX,
    params: ModelParams,
    gamma: float,
    beta: float,
    dt: float,
) -> float:
    """dV/dr(t, x; r) = w1(t,-r) x1(-r)
                        + b1(-r)/(2 beta) * int_t^{T-r} <B,w(s)> w1(s,-r) ds,

    with w1(s,-r) = w0(s+r) chi{s+r <= T}: the value depends on r through
    the lower limit of the two segment integrals in <w(t),x> and <B,w>,
    and each boundary term carries the costate read r ahead of the
    current time. The sensitivity therefore vanishes once t + r > T.

    The formula needs a1 = 0, so that w0 does not itself depend on r; a
    non-zero a1 raises ConfigurationError (the formula would drop the
    d(w0)/dr terms: 29% off a finite difference at a1 = -5 e^{-|xi|/(1/6)}).
    When b1 is also constant (b0, b1-hat below) the closed form

        gamma e^{a0(T-t-r)} x1(-r)
        + (b1 gamma^2 / (4 beta a0)) (b0 + b1 (1 - e^{-a0 r}) / a0)
          e^{-a0 r} (e^{2 a0 (T-t)} - e^{2 a0 r})

    is used on t in [0, T-r]; it matches a central finite difference of
    the costate value over re-solved delays to O(h^2). Otherwise the two
    terms are quadratures of the costate, exact up to its discretization.
    """
    if not kernel_is_zero(params.a1):
        raise ConfigurationError("the delay sensitivity needs a1 = 0")
    if t < -1e-12 or t > params.T + 1e-12:
        raise DomainError(f"t={t} outside [0, {params.T}]")
    a0, b0, r, T = params.a0, params.b0, params.r, params.T
    x1_at_minus_r = float(x.x1[0])

    if t + r > T + 1e-12:
        return 0.0

    if (isinstance(params.b1, ConstantKernel) or kernel_is_zero(params.b1)) and a0 < 0:
        b1 = params.b1.c if isinstance(params.b1, ConstantKernel) else 0.0
        term1 = gamma * np.exp(a0 * (T - t - r)) * x1_at_minus_r
        term2 = (
            b1
            * gamma**2
            / (4.0 * beta * a0)
            * (b0 + b1 * (1.0 - np.exp(-a0 * r)) / a0)
            * np.exp(-a0 * r)
            * (np.exp(2.0 * a0 * (T - t)) - np.exp(2.0 * a0 * r))
        )
        return float(term1 + term2)

    cs = solve_costate(params, gamma, beta, dt)
    b1_at_minus_r = float(kernel_eval(params.b1, -r, r))
    term1 = cs.w0_at(t + r) * x1_at_minus_r
    mask = (cs.t >= t - 1e-12) & (cs.t <= T - r + 1e-12)
    s = cs.t[mask]
    integrand = cs.bw[mask] * cs.w0_at(s + r)
    term2 = b1_at_minus_r / (2.0 * beta) * float(np.trapezoid(integrand, s))
    return float(term1 + term2)
