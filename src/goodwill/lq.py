"""Closed-form linear-reward / quadratic-cost optimal control.

The value function is v(t,x) = <w(t), x> + c(t), where the costate
w = (w0, w1) solves an advanced ODE integrated backward from
w0(T) = gamma, w1 is the shifted read-off w1(t,xi) = w0(t-xi) on [0,T],
and c accumulates the squared positive part of <B, w>. From the costate
we obtain the optimal open-loop policy, the memoryless baseline, the
mean and variance of the optimal trajectory, and the sensitivity of the
value with respect to the delay horizon.

The backward sweep and the pairing <B, w> are trapezoid sums over a
window of m+1 costate samples; for exponential and constant kernels
they are updated in O(1) per step by the recursion of hilbert.DelaySum,
and a sampled kernel is re-summed over its window. The two agree to
1e-12 relative over 1e5 steps (tests compare them). A costate that
leaves the finite range raises sdde.BlowupError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ConstantKernel,
    DelaySum,
    DomainError,
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
    """Backward-swept costate w0, running constant c, and <B, w> samples."""

    t: np.ndarray
    w0: np.ndarray
    c: np.ndarray
    bw: np.ndarray
    gamma: float
    beta: float
    params: ModelParams

    @property
    def T(self) -> float:
        return float(self.t[-1])

    def w0_at(self, t) -> float:
        return np.interp(t, self.t, self.w0)

    def w1_at(self, t, xi):
        """w1(t, xi) = w0(t - xi) when t - xi <= T, else 0."""
        arg = np.asarray(t) - np.asarray(xi)
        return np.where(arg <= self.T + 1e-12, np.interp(arg, self.t, self.w0), 0.0)

    def c_at(self, t) -> float:
        return np.interp(t, self.t, self.c)

    def to_csv(self) -> str:
        zs = optimal_policy_lq(self, self.params).z
        zm = Memoryless(self.gamma, self.beta).sample(self.params, self.t)
        lines = ["t,w0,c,z_star,z_memoryless"]
        for k in range(len(self.t)):
            lines.append(
                f"{self.t[k]:.10g},{self.w0[k]:.10g},{self.c[k]:.10g},"
                f"{zs[k]:.10g},{zm[k]:.10g}"
            )
        return "\n".join(lines) + "\n"


def solve_costate(
    params: ModelParams, gamma: float, beta: float, dt: float
) -> CostateSolution:
    """Integrate the advanced costate ODE backward from w0(T) = gamma.

    Heun predictor-corrector; at time t the delay integral reads w0 at
    arguments t - xi in [t, t + r], all already available during the
    backward sweep (zero beyond T).
    """
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    n = _steps_of(params.T, dt, "T")
    m = _steps_of(params.r, dt, "r")

    t = dt * np.arange(n + 1)
    xi = -params.r + dt * np.arange(m + 1)

    # w0ext[k] = w0(t_k) for k <= n, zero afterwards (the chi_[0,T] factor);
    # at t_k the lag xi_j = -r + j*dt reads w0ext[k + m - j], so the window
    # runs from w0ext[k + m] (lag r) to w0ext[k] (lag 0), and its past
    # samples, oldest first, are w0ext[k + m : k : -1]
    w0ext = np.zeros(n + 1 + m)
    w0ext[n] = gamma

    w = w0ext.item  # samples as Python floats: scalar arithmetic is faster

    # at t_k the integrand cuts off at xi = t_k - T, on node j = k + m - n;
    # an interior cutoff node carries a trapezoid boundary weight dt/2, not
    # dt, so each window sum drops cutoff(values)[k] = dt/2 * values[j] * gamma
    j = np.arange(n + 1) + m - n
    interior = (j >= 1) & (j <= m - 1)

    def cutoff(values: np.ndarray) -> np.ndarray:
        out = np.zeros(n + 1)
        out[interior] = dt / 2 * values[j[interior]] * gamma
        return out

    has_a1 = not kernel_is_zero(params.a1)
    if has_a1:
        a1v = kernel_eval(params.a1, xi, params.r)
        sum_a = DelaySum(params.a1, a1v, dt)
        cut_a = cutoff(a1v).item

    def wprime(k: int, h: float, wk: float) -> float:
        if not has_a1:
            return -params.a0 * wk
        return -params.a0 * wk - (sum_a.at(h, w(k + m), wk) - cut_a(k))

    # overflow shows as a non-finite costate, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.0  # the past of the window at t_n holds only zeros
        for k in range(n - 1, -1, -1):
            f1 = wprime(k + 1, h, w(k + 1))
            pred = w(k + 1) - dt * f1
            if has_a1:
                h = sum_a.slide(h, w(k + m + 1), w(k + 1), w0ext[k + m : k : -1])
            f2 = wprime(k, h, pred)
            w0ext[k] = w(k + 1) - dt / 2 * (f1 + f2)
        w0 = w0ext[: n + 1].copy()
        _check_finite(w0, t, "w0")

        bw = params.b0 * w0
        if not kernel_is_zero(params.b1):
            b1v = kernel_eval(params.b1, xi, params.r)
            sum_b = DelaySum(params.b1, b1v, dt)
            pairing = np.empty(n + 1)
            h = 0.0
            for k in range(n, -1, -1):
                pairing[k] = sum_b.at(h, w(k + m), w(k))
                if k:
                    h = sum_b.slide(h, w(k + m), w(k), w0ext[k + m - 1 : k - 1 : -1])
            bw = bw + pairing - cutoff(b1v)
        _check_finite(bw, t, "<B, w>")

        # c[k] = c[k+1] + dt/2 (g[k] + g[k+1]) from c[n] = 0, added in
        # that order by the reversed running sum
        g = np.maximum(bw, 0.0) ** 2 / (4.0 * beta)
        c = np.zeros(n + 1)
        c[:-1] = np.cumsum((dt / 2 * (g[:-1] + g[1:]))[::-1])[::-1]
        _check_finite(c, t, "c")

    return CostateSolution(
        t=t, w0=w0, c=c, bw=bw, gamma=gamma, beta=beta, params=params
    )


def _check_finite(values: np.ndarray, t: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # the sweep runs backward from T, so the last bad index fails first
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


def _e1_trajectory(params: ModelParams, grid: SegmentGrid, t: float, dt: float):
    """phi solving the distributed delay ODE with x0 = 1, x1 = 0 on [0, t]."""
    prob = DelayODEProblem(params.a0, params.a1, 1.0, np.zeros(grid.n_nodes), grid, t)
    return solve_delay_ode(prob, dt)


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
    semigroup evaluation: e^{uA*}e1 = (phi(u), phi(u + .)). The control
    is clipped to [u_min, u_max], as in sdde.simulate_paths.
    """
    _check_horizon(params, grid)
    if t == 0:
        return float(y_init.x0)
    times, phi = _e1_trajectory(params, grid, t, dt)

    def phi_at(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0, np.interp(np.maximum(u, 0.0), times, phi), 0.0)

    term1 = y_init.x0 * float(phi[-1]) + float(
        np.dot(grid.weights, y_init.x1 * phi_at(t + grid.nodes))
    )

    z = open_loop_controls(policy, params, times, "trajectory_mean")
    b1v = kernel_eval(params.b1, grid.nodes, params.r)
    # <B, psi(s)> with psi(s) = e^{(t-s)A*} e1
    q = params.b0 * phi_at(t - times)
    if not kernel_is_zero(params.b1):
        shifted = (t - times)[:, None] + grid.nodes[None, :]
        q = q + phi_at(shifted) @ (grid.weights * b1v)
    return term1 + float(np.trapezoid(z * q, times))


def trajectory_variance(
    t: float, params: ModelParams, grid: SegmentGrid, dt: float
) -> float:
    """Var Y0(t) = sigma^2 int_0^t phi(u)^2 du with the e1 trajectory phi."""
    _check_horizon(params, grid)
    if t == 0:
        return 0.0
    times, phi = _e1_trajectory(params, grid, t, dt)
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

    When a1 = 0 and b1 is constant (b0, b1-hat below) the closed form

        gamma e^{a0(T-t-r)} x1(-r)
        + (b1 gamma^2 / (4 beta a0)) (b0 + b1 (1 - e^{-a0 r}) / a0)
          e^{-a0 r} (e^{2 a0 (T-t)} - e^{2 a0 r})

    is used on t in [0, T-r]; it matches a central finite difference of
    the costate value over re-solved delays to O(h^2). The quadrature
    route is exact (up to the costate discretization) only when w0 does
    not itself depend on r, i.e. for a1 = 0; with a non-zero a1 kernel
    it drops the d(w0)/dr terms.
    """
    if t < -1e-12 or t > params.T + 1e-12:
        raise DomainError(f"t={t} outside [0, {params.T}]")
    a0, b0, r, T = params.a0, params.b0, params.r, params.T
    x1_at_minus_r = float(x.x1[0])

    if t + r > T + 1e-12:
        return 0.0

    closed_form_ok = (
        kernel_is_zero(params.a1)
        and (isinstance(params.b1, ConstantKernel) or kernel_is_zero(params.b1))
        and a0 < 0
    )
    if closed_form_ok:
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
