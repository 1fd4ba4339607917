"""Closed-form linear-reward / quadratic-cost optimal control.

The value function is v(t,x) = <w(t), x> + c(t), where the costate
w = (w0, w1) solves an advanced ODE ending at w0(T) = gamma, w1 is the
shifted read-off w1(t,xi) = w0(t-xi) on [0,T] (zero beyond T), and c
accumulates the running term H(<B, w>), the control Hamiltonian
H(p) = sup over z in [u_min, u_max] of p z - beta z^2. H and its
argmax, written once here (hamiltonian, hamiltonian_argmax), also give
the optimal policy, the envelope term of the delay sensitivity and the
feedback maps of state_delay. The costate is the e1
trajectory phi (the state's delay equation from phi(0) = 1 over a zero
history) run backward: w0(t) = gamma * phi(T - t), so solve_costate
integrates gamma * phi forward. From the costate we obtain the
optimal open-loop policy, the memoryless baseline, the mean and variance
of the optimal trajectory, and the sensitivity of the value with respect
to the delay horizon.

The delay integral of the forward solve and the pairing <B, w> are
trapezoid sums over a hilbert.DelayWindow of m+1 samples of phi,
updated in O(1) per step; the recursion agrees with a full re-sum of the
window to 1e-12 relative over 1e5 steps (tests compare them).
The pairing is one pass over the filled phi rows. Without a1 those rows
depend on neither r nor b1, so a one-entry memo lets the solves of an r
or b1 sweep share them, and one head of the pairing's zero-history steps
too. A costate that leaves the finite range raises sdde.BlowupError.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DelayWindow,
    PointDelay,
    ProfileX,
    SegmentGrid,
    _window_lags,
    inner_product,
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


# [rows, block, pattern, size] of the last a1-free solve, one entry keyed on
# the exact bits of (a0, gamma, dt) and the step count n (bits, not values:
# 0.0 == -0.0 and nan != nan). The rows phi[m:] do not depend on r or b1, so
# the solves of a sweep over either share one Heun loop; the block of n + 1
# floats holds the b1 pairing's zero-history raw sums of steps 0..size - 1
# for the window's (rho, last) bits `pattern` (_prefixed_sums). Read-only.
_A1_FREE: dict = {}


def solve_costate(
    params: ModelParams, gamma: float, beta: float, dt: float
) -> CostateSolution:
    """The costate w0(t) = gamma * phi(T - t), from the e1 trajectory phi.

    gamma * phi solves the delay equation
    x' = a0 x + int a1(xi) x(u + xi) dxi forward from gamma over a zero
    history, by Heun's predictor-corrector on one array: m zero history
    rows, then one row per step (a DelayWindow's layout without a separate
    history), with the delay integral a trapezoid DelayWindow over the
    rows. <B, w> is a second window over the same rows, and c accumulates
    the running term H(<B, w>) from c(T) = 0 (see hamiltonian).

    With a1 = 0 the slope is a0 * phi and the Heun loop runs on local
    floats. Its rows depend on (a0, gamma, dt) and the step count alone,
    so the last such solve's rows are kept, read-only, and a solve with
    the same bits of those copies them instead (sensitivity sweeps over r
    and b1 repeat them). With a1 the loop runs on local floats too, the
    window's sum and advance written out inline, O(1) a step, the rows
    and jump terms streamed through memoryviews. The pairing comes after,
    from the filled rows in one DelayWindow.sums pass, an a1-free one past
    the zero-history steps that the memo's one head holds (_prefixed_sums).
    The bits are those of a loop of sum/advance calls per step.
    """
    if not beta > 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    n = _steps_of(params.T, dt, "T")
    m = _steps_of(params.r, dt, "r")

    # row m + i holds gamma * phi(u_i), u_i = i*dt, that is w0(T - u_i);
    # the zero history rows below it stand for w0 = 0 beyond T. phi is
    # allocated first, and on a memo miss the head block right after it, so
    # what the memo keeps sits below the call's temporaries on the heap, not
    # between them (about 0.3 MB less peak RSS in the exact_fine benchmark)
    phi = np.zeros(m + n + 1)
    phi[m] = gamma
    a1_free = kernel_is_zero(params.a1)
    key = (struct.pack("3d", params.a0, gamma, dt), n)
    memo = _A1_FREE.get(key) if a1_free else None
    if a1_free and memo is None:
        _A1_FREE.clear()
        block = np.empty(n + 1)
    t = dt * np.arange(n + 1)
    xi = _window_lags(params.r, dt, m)
    p = phi.item  # samples as Python floats: scalar arithmetic is faster

    # the rows jump from 0 to gamma at u = 0 (row m), which the window at
    # step i holds at node j = m - i; a jump interior to the window carries the
    # trapezoid boundary weight dt/2, not dt, so each window sum drops
    # jump(values)[i] = dt/2 * values[j] * gamma
    def jump(values: np.ndarray) -> np.ndarray:
        out, k = np.zeros(n + 1), min(m, n + 1)
        out[1:k] = dt / 2 * values[m - 1 : m - k : -1] * gamma
        return out

    a0, half, prev, rows = float(params.a0), dt / 2, p(m), memoryview(phi)
    # overflow shows as a non-finite costate, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        if a1_free:
            # the slope is a0 * phi, so rows m.. depend on (a0, gamma, dt, n)
            # alone: a solve that repeats the last one's copies its rows
            if memo is not None:
                phi[m:] = memo[0]
            else:
                # Heun's step on Python floats
                for i in range(m + 1, m + n + 1):
                    f1 = a0 * prev
                    prev = prev + half * (f1 + a0 * (prev + dt * f1))
                    rows[i] = prev
                # the memo keeps this call's own rows, not a copy of them:
                # nothing writes to phi after this point
                memo = _A1_FREE[key] = [phi[m:], block, b"", 0]
                for kept in memo[:2]:
                    kept.setflags(write=False)
        else:
            # the window's sum and advance, inlined on Python floats: a, b
            # are its end terms and h its raw sum; rows 0..n and the jump
            # terms stream through memoryviews, each step's newest row and
            # jump being the next step's oldest (row i is read at step i,
            # after step i - m wrote it)
            a1v = kernel_eval(params.a1, xi, params.r)
            win, jump_a = DelayWindow(params.a1, a1v, dt, phi), jump(a1v)
            first, last, rho, h = win.first, win.last, win.rho, win.h
            a, old_jump = first * p(0), jump_a.item(0)
            for k, x, new_jump in zip(
                range(m + 1, m + n + 1), rows[1 : n + 1], memoryview(jump_a)[1:]
            ):
                b = last * prev
                f1 = a0 * prev + (dt * (h + 0.5 * (b - a)) - old_jump)
                h = rho * (h - a + b)
                pred = prev + dt * f1
                a, b = first * x, last * pred
                f2 = a0 * pred + (dt * (h + 0.5 * (b - a)) - new_jump)
                prev = prev + half * (f1 + f2)
                rows[k] = prev
                old_jump = new_jump

        bw = params.b0 * phi[m:]
        if not kernel_is_zero(params.b1):
            # every row of phi is filled now, so the pairing is one pass
            b1v = kernel_eval(params.b1, xi, params.r)
            del xi
            win = DelayWindow(params.b1, b1v, dt, phi)
            bw += _prefixed_sums(win, min(m, n), memo) if a1_free else win.sums()
            bw -= jump(b1v)
            del b1v

        # c(T - u_i) sums dt/2 (g_{l-1} + g_l) over l = 1..i, in that order,
        # g = H(bw); the sums run straight into c(t), reversed, and each
        # array is freed once read, which keeps the solve's peak memory down
        g = hamiltonian(bw, beta, params.u_min, params.u_max)
        steps = g[:-1] + g[1:]
        del g
        steps *= dt / 2
        c = np.zeros(n + 1)
        np.cumsum(steps, out=c[-2::-1])
        del steps
        w0 = np.flip(phi[m:]).copy()
        bw = np.flip(bw).copy()
        _check_finite(w0, t, "w0")
        _check_finite(bw, t, "<B, w>")
        _check_finite(c, t, "c")

    return CostateSolution(t=t, w0=w0, c=c, bw=bw, beta=beta, params=params)


def _prefixed_sums(win: DelayWindow, s: int, memo: list) -> np.ndarray:
    """win.sums() of an a1-free pairing. Its oldest samples at steps 0..s - 1
    are zero rows, so the raw sums of steps 0..s depend on the rows (the
    memo's key), rho and last alone. The memo's block keeps one head of them
    from step 0, grown in place; another (rho, last) starts it again."""
    block, pattern = memo[1], struct.pack("2d", win.rho, win.last)
    size = memo[3] if memo[2] == pattern else 0
    start = min(s, size - 1) if size else 0
    raw = np.empty(len(block) - start)
    sums = win.sums(block[: start + 1] if size else None, raw)
    if size <= s:
        block.setflags(write=True)
        block[start : s + 1] = raw[: s + 1 - start]
        block.setflags(write=False)
        memo[2:] = pattern, s + 1
    return sums


def _check_finite(values: np.ndarray, t: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # phi runs forward from u = 0, i.e. backward from t = T, so the last
        # bad index fails first
        raise BlowupError(
            f"costate {name} left the finite range at t={t[bad[-1]]:g}"
        )


def hamiltonian(p, beta: float, lo: float, hi: float, cost: str = "quadratic"):
    """H(p) = sup over z in [lo, hi] of p z - h0(z), 0 <= lo <= hi <= inf,
    for h0(z) = beta z^2 ("quadratic") or beta z ("linear").

    The quadratic sup is p^+^2 / (4 beta), computed as such, wherever no
    bound binds, and p z* - beta z*^2 at the samples where one does. That
    z* = p^+ / (2 beta) is monotone in p, so the extremes of p decide
    whether any bound binds (fmin/fmax pass over a nan), and a call where
    none does builds no array beyond its result. The linear sup is
    z* (p - beta), which is hi (p - beta)^+ for lo = 0.
    """
    p = np.asarray(p, dtype=float)
    if cost == "linear":
        out = hamiltonian_argmax(p, beta, lo, hi, cost) * (p - beta)
    else:
        out = np.maximum(p, 0.0) ** 2 / (4.0 * beta)
        least = max(np.fmin.reduce(p, axis=None, initial=np.inf), 0.0) / (2.0 * beta)
        most = max(np.fmax.reduce(p, axis=None, initial=-np.inf), 0.0) / (2.0 * beta)
        if least < lo or most > hi:
            z = np.maximum(p, 0.0) / (2.0 * beta)
            bound = (z < lo) | (z > hi)
            z = np.clip(z, lo, hi)
            out = np.where(bound, p * z - beta * z**2, out)
    return out if out.ndim else float(out)


def hamiltonian_argmax(
    p, beta: float, lo: float, hi: float, cost: str = "quadratic", tie=None
):
    """The z* in [lo, hi] that attains H(p): clip(p^+ / (2 beta), lo, hi)
    for the quadratic cost; for the linear one lo below p = beta, hi above
    it and tie (default lo) at it."""
    p = np.asarray(p, dtype=float)
    if cost == "linear":
        out = np.where(p < beta, lo, np.where(p > beta, hi, lo if tie is None else tie))
    else:
        out = np.clip(np.maximum(p, 0.0) / (2.0 * beta), lo, hi)
    return out if out.ndim else float(out)


def optimal_policy_lq(costate: CostateSolution, params: ModelParams) -> OpenLoop:
    """Open-loop optimal control z*(t) = clip(<B, w(t)>^+ / (2 beta), u_min,
    u_max), the argmax of H(<B, w(t)>)."""
    z = hamiltonian_argmax(costate.bw, costate.beta, params.u_min, params.u_max)
    return OpenLoop(t=costate.t, z=z)


def memoryless_policy(params: ModelParams, gamma: float, beta: float) -> Policy:
    """Baseline z0(t) = gamma*b0*exp((T-t)a0)/(2 beta), optimal for a1=b1=0."""
    if not beta > 0:
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
    if not -1e-12 <= t <= costate.T + 1e-12:
        raise ConfigurationError(f"t={t} outside [0, {costate.T}]")
    _check_horizon(costate.params, grid)
    if len(xbar.x1) != grid.n_nodes:
        raise ConfigurationError("the profile must live on the grid")
    xi, x1 = grid.nodes, np.asarray(xbar.x1, dtype=float)
    # a cut at or below -r is -r, where the points and values are the grid's own
    cut = t - costate.T if t - costate.T > xi[0] + 1e-15 else xi[0]
    mask = xi > cut
    pts = np.concatenate([[cut], xi[mask]])
    vals = np.concatenate([[np.interp(cut, xi, x1)], x1[mask]])
    # overflow shows as a non-finite value, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        pairing = float(np.trapezoid(costate.w0_at(t - pts) * vals, pts))
    value = float(costate.w0_at(t)) * float(xbar.x0) + pairing + float(costate.c_at(t))
    if not np.isfinite(value):
        raise BlowupError(f"the value left the finite range at t={t:g}")
    return value


@functools.lru_cache(maxsize=1)
def _e1_trajectory(params: ModelParams, grid: SegmentGrid, t: float, dt: float):
    """The e1 trajectory phi on [0, t] and the policy-free terms it gives.

    phi solves the distributed delay ODE from x0 = 1, x1 = 0. Returns the
    read-only arrays (times, phi, q, tail): q(s) = <B, e^{(t-s)A*} e1>
    at the times (None for a point b1, which has no density to pair
    with) and tail = phi(t + xi) at the grid nodes. q is summed one lag
    at a time, so the call holds a few arrays of steps + 1 floats, never
    a (steps x nodes) one. One entry is kept: trajectory_mean for two
    policies and trajectory_variance on one model share a solve, and
    nothing outlives the next model.
    """
    prob = DelayODEProblem(params.a0, params.a1, 1.0, np.zeros(grid.n_nodes), grid, t)
    times, phi = solve_delay_ode(prob, dt)

    def phi_at(u):
        return np.where(u >= 0, np.interp(u, times, phi), 0.0)

    tail = phi_at(t + grid.nodes)
    q = None
    if not isinstance(params.b1, PointDelay):
        b1v = kernel_eval(params.b1, grid.nodes, params.r)
        q = params.b0 * phi_at(t - times)
        if not kernel_is_zero(params.b1):
            for xi, w in zip(grid.nodes, grid.weights * b1v):
                q += w * phi_at(t - times + xi)
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
    term1 = inner_product(y_init, ProfileX(float(phi[-1]), tail), grid)
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
                        + b1(-r) * int_t^{T-r} z*(s) w1(s,-r) ds,

    with w1(s,-r) = w0(s+r) chi{s+r <= T}: the value depends on r through
    the lower limit of the two segment integrals in <w(t),x> and <B,w>,
    and each boundary term carries the costate read r ahead of the
    current time. The sensitivity therefore vanishes once t + r > T.
    The running term H(<B,w>) has derivative z* (hamiltonian_argmax) in
    <B,w>, so the second term pairs z* with the boundary term of <B,w>.

    The formula needs a1 = 0, so that w0 does not itself depend on r; a
    non-zero a1 raises ConfigurationError (the formula would drop the
    d(w0)/dr terms: 29% off a finite difference at a1 = -5 e^{-|xi|/(1/6)}).
    When b1 is also constant (decay_scale = inf; b0, b1-hat below) and
    no bound binds (u_min = 0 and u_max >= gamma (b0 + b1 r) / (2 beta),
    the largest <B,w> / (2 beta) can be) the closed form

        gamma e^{a0(T-t-r)} x1(-r)
        + (b1 gamma^2 / (4 beta a0)) (b0 + b1 (1 - e^{-a0 r}) / a0)
          e^{-a0 r} (e^{2 a0 (T-t)} - e^{2 a0 r})

    is used on t in [0, T-r], its second term being 0 for gamma < 0; it
    matches a central finite difference of the costate value over
    re-solved delays to O(h^2). Otherwise the two terms are quadratures
    of the costate, exact up to its discretization.
    """
    if not kernel_is_zero(params.a1):
        raise ConfigurationError("the delay sensitivity needs a1 = 0")
    if not -1e-12 <= t <= params.T + 1e-12:
        raise ConfigurationError(f"t={t} outside [0, {params.T}]")
    if not beta > 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    a0, b0, r, T = params.a0, params.b0, params.r, params.T
    x1_at_minus_r = float(x.x1[0])
    constant = getattr(params.b1, "decay_scale", None) == np.inf  # a point lag has none

    if t + r > T + 1e-12:
        return 0.0

    # overflow shows as a non-finite value, which raises BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = params.b1.amp if constant else 0.0
        # <B, w> / (2 beta) lies in [0, gamma (b0 + b1 r) / (2 beta)]
        binds = params.u_min > 0 or params.u_max < gamma * (b0 + b1 * r) / (2.0 * beta)
        closed = (constant or kernel_is_zero(params.b1)) and a0 < 0
        if closed and (b1 == 0.0 or not binds):
            term1 = gamma * np.exp(a0 * (T - t - r)) * x1_at_minus_r
            # 0 * inf would be nan; and a float's ** raises on overflow.
            # <B, w> has gamma's sign (a1 = 0, b0 >= 0, b1 >= 0), so for
            # gamma < 0 its positive part, and with it this term, is 0
            term2 = 0.0 if b1 == 0.0 or gamma < 0 else (
                b1
                * np.float64(gamma) ** 2
                / (4.0 * beta * a0)
                * (b0 + b1 * (1.0 - np.exp(-a0 * r)) / a0)
                * np.exp(-a0 * r)
                * (np.exp(2.0 * a0 * (T - t)) - np.exp(2.0 * a0 * r))
            )
        else:
            cs = solve_costate(params, gamma, beta, dt)
            b1_at_minus_r = float(kernel_eval(params.b1, -r, r))
            term1 = cs.w0_at(t + r) * x1_at_minus_r
            mask = (cs.t >= t - 1e-12) & (cs.t <= T - r + 1e-12)
            s, bw = cs.t[mask], cs.bw[mask]
            # 2 beta z*: in y = 2 beta z the running term is
            # (<B, w> y - y^2 / 2) / (2 beta), whose argmax over 2 beta [u_min,
            # u_max] is <B, w>^+ itself (with its bits) where no bound binds
            lo, hi = 2.0 * beta * params.u_min, 2.0 * beta * params.u_max
            integrand = hamiltonian_argmax(bw, 0.5, lo, hi) * cs.w0_at(s + r)
            term2 = b1_at_minus_r / (2.0 * beta) * float(np.trapezoid(integrand, s))
        value = float(term1 + term2)
    if not np.isfinite(value):
        raise BlowupError(f"the delay sensitivity left the finite range at t={t:g}")
    return value
