"""Regularization schemes for the value function approximation study.

Mollified reward/cost (truncate-then-convolve for the reward, plain
convolution for the cost), the Lasry-Lions sup-inf convolution, a
finite-difference scheme for the lifted evolution with the rank-one
perturbed diffusion, and the empirical convergence table for the
regularized objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import ProfileX, SegmentGrid, kernel_eval, kernel_is_zero
from .sdde import (
    PATH_BLOCK,
    BlowupError,
    ConfigurationError,
    ModelParams,
    Policy,
    _check_horizon,
    _mean_stderr,
    _steps_of,
    open_loop_controls,
    path_normals,
)

_MOLLIFIER_POINTS = 2001
# evaluation points per (points x _MOLLIFIER_POINTS) temporary of _convolve
_CONVOLVE_ROWS = 64


def _unit_bump() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [-1, 1] and the smooth unit-mass bump zeta sampled there."""
    u = np.linspace(-1.0, 1.0, _MOLLIFIER_POINTS)
    z = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    z[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return u, z / np.trapezoid(z, u)


# the one bump every mollifier uses; eps2 only scales its support
BUMP_U, BUMP_ZETA = _unit_bump()


def _check_eps1(eps1: float):
    if not eps1 >= 0:
        raise ConfigurationError(f"eps1 must be non-negative, got {eps1}")


def _convolve(fn, eps2: float, eval_points):
    """(fn * zeta_eps2)(x) by quadrature: int fn(x - eps2 u) zeta(u) du.

    The points go _CONVOLVE_ROWS at a time, so the temporaries stay
    bounded however many there are; each point's sum is the same.
    """
    if not eps2 > 0:
        raise ConfigurationError(f"eps2 must be positive, got {eps2}")
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    out = np.empty(len(pts))
    for i in range(0, len(pts), _CONVOLVE_ROWS):
        args = pts[i : i + _CONVOLVE_ROWS, None] - eps2 * BUMP_U[None, :]
        vals = fn(args) * BUMP_ZETA[None, :]
        out[i : i + _CONVOLVE_ROWS] = np.trapezoid(vals, BUMP_U, axis=1)
    return out


def mollify_phi(phi0, eps2: float, eval_points):
    """Truncate the reward outside [-1/eps2, 1/eps2], then mollify at
    scale eps2."""

    def truncated(x):  # called only after _convolve has checked eps2 > 0
        return np.where(np.abs(x) <= 1.0 / eps2, phi0(x), 0.0)

    return _convolve(truncated, eps2, eval_points)


def mollify_h(h0, eps2: float, eval_points):
    """Mollify the cost at scale eps2 (no truncation)."""
    return _convolve(h0, eps2, eval_points)


def sup_inf_convolution(
    h_values: np.ndarray, grid_x: np.ndarray, eps: float, delta: float
) -> np.ndarray:
    """Lasry-Lions regularization on a bounded grid:

        h_{eps,delta}(x) = sup_z inf_y (|z-y|^2/(2 eps) - |z-x|^2/(2 delta)
                                        + h(y)),   0 < delta < eps.

    Nested grid scans; the result is sandwiched between inf h and h.
    """
    if not 0 < delta < eps:
        raise ConfigurationError(f"need 0 < delta < eps, got delta={delta}, eps={eps}")
    h = np.asarray(h_values, dtype=float)
    x = np.asarray(grid_x, dtype=float)
    if h.shape != x.shape:
        raise ConfigurationError("h_values and grid_x must have the same shape")
    d2 = (x[:, None] - x[None, :]) ** 2
    inner = np.min(d2 / (2.0 * eps) + h[None, :], axis=1)  # inf over y, per z
    return np.max(inner[:, None] - d2 / (2.0 * delta), axis=0)  # sup over z, per x


@dataclass(frozen=True)
class LiftedEnsemble:
    """Terminal lifted states of the perturbed evolution."""

    y0: np.ndarray  # (n_paths,)
    y1: np.ndarray  # (n_paths, n_nodes)


def simulate_lifted_perturbed(
    params: ModelParams,
    lifted_init: ProfileX,
    policy: Policy,
    eps1: float,
    grid: SegmentGrid,
    dt: float,
    n_paths: int,
    seed: int,
) -> LiftedEnsemble:
    """Finite-difference evolution of the lifted state with perturbed noise.

    Scalar component: dY0 = (a0 Y0 + Y1(0) + b0 z) dt + sigma dW0.
    Function component: first-order upwind transport for -d/dxi with the
    a1(xi) Y0 + b1(xi) z source, boundary Y1(-r) = 0, plus a single
    shared Brownian increment scaled by eps1 * b1(xi) (the rank-one
    perturbation).

    Paths are stepped sdde.PATH_BLOCK at a time in preallocated buffers,
    so the noise takes O(PATH_BLOCK * steps) memory whatever the path
    count; a path's result does not depend on the count or the blocking.
    """
    _check_eps1(eps1)
    dxi = grid.spacing
    if dt > dxi + 1e-15:
        raise ConfigurationError(
            f"CFL violation: dt={dt} exceeds grid spacing {dxi:.6g}"
        )
    steps = _steps_of(params.T, dt, "T")
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    if len(lifted_init.x1) != grid.n_nodes:
        raise ConfigurationError("lifted initial state must live on the grid")
    _check_horizon(params, grid)

    t = dt * np.arange(steps + 1)
    z = open_loop_controls(policy, params, t, "simulate_lifted_perturbed")

    a1v = kernel_eval(params.a1, grid.nodes, params.r)
    b1v = kernel_eval(params.b1, grid.nodes, params.r)
    lam = dt / dxi
    sig0 = params.sigma * np.sqrt(dt)
    sig1 = eps1 * np.sqrt(dt)
    perturbed = sig1 > 0 and not kernel_is_zero(params.b1)

    y0_out = np.empty(n_paths)
    y1_out = np.empty((n_paths, grid.n_nodes))
    rows = min(PATH_BLOCK, n_paths)
    # state and next state, double-buffered, and the step's temporaries
    y0_buf, y0_new_buf, drift_buf, kick_buf = (np.empty(rows) for _ in range(4))
    y1_buf, y1_new_buf, work_buf = (np.empty((rows, grid.n_nodes)) for _ in range(3))
    b1z = np.empty(grid.n_nodes)
    noise_buf = np.empty((2, steps, rows))  # time-major: a step reads one row
    for first in range(0, n_paths, PATH_BLOCK):
        n = min(PATH_BLOCK, n_paths - first)
        y0, y0_new, drift, kick = (b[:n] for b in (y0_buf, y0_new_buf, drift_buf, kick_buf))
        y1, y1_new, work = (b[:n] for b in (y1_buf, y1_new_buf, work_buf))
        noise = noise_buf[:, :, :n]
        for j in range(n):
            noise[:, :, j] = path_normals(seed, first + j, (2, steps))
        y0.fill(float(lifted_init.x0))
        y1[:] = np.asarray(lifted_init.x1, dtype=float)

        for k in range(steps):
            # y0_new = y0 + (a0 y0 + y1(0) + b0 z) dt + sig0 dW0
            np.multiply(y0, params.a0, out=drift)
            drift += y1[:, -1]
            drift += params.b0 * z[k]
            drift *= dt
            np.add(y0, drift, out=y0_new)
            np.multiply(noise[0, k], sig0, out=kick)
            y0_new += kick

            # y1_new = y1 - lam * upwind + dt * (a1 y0 + b1 z), the ghost
            # value at xi = -r being 0
            work[:, 0] = y1[:, 0]
            np.subtract(y1[:, 1:], y1[:, :-1], out=work[:, 1:])
            work *= lam
            np.subtract(y1, work, out=y1_new)
            np.multiply(y0[:, None], a1v[None, :], out=work)
            np.multiply(b1v, z[k], out=b1z)
            work += b1z
            work *= dt
            y1_new += work
            if perturbed:
                np.multiply(noise[1, k], sig1, out=kick)
                np.multiply(kick[:, None], b1v[None, :], out=work)
                y1_new += work

            if not (np.isfinite(y0_new).all() and np.isfinite(y1_new).all()):
                raise BlowupError(f"lifted evolution lost finiteness at step {k+1}")
            y0, y0_new = y0_new, y0
            y1, y1_new = y1_new, y1

        y0_out[first : first + n] = y0
        y1_out[first : first + n] = y1

    return LiftedEnsemble(y0=y0_out, y1=y1_out)


@dataclass(frozen=True)
class ConvergenceRow:
    eps1: float
    eps2: float
    j_eps: float
    stderr: float
    gap: float


def convergence_study(
    params: ModelParams,
    lifted_init: ProfileX,
    policy: Policy,
    gamma: float,
    beta: float,
    baseline: float,
    eps1_seq,
    eps2_seq,
    grid: SegmentGrid,
    dt: float,
    n_paths: int,
    seed: int,
) -> list[ConvergenceRow]:
    """Gap table |J_eps - baseline| for the regularized objective under a
    fixed open-loop policy, one row per (eps1, eps2) pair. A one-path
    row reports stderr NaN: one path carries no spread information."""
    _check_horizon(params, grid)
    for eps1 in eps1_seq:
        _check_eps1(eps1)
    t = dt * np.arange(_steps_of(params.T, dt, "T") + 1)
    z = open_loop_controls(policy, params, t, "convergence_study")
    # the control is shared by every path, so its cost depends on eps2 alone
    costs = [
        np.sum(mollify_h(lambda x: beta * x**2, eps2, z[:-1])) * dt
        for eps2 in eps2_seq
    ]

    rows = []
    for eps1 in eps1_seq:
        ens = simulate_lifted_perturbed(
            params, lifted_init, policy, eps1, grid, dt, n_paths, seed
        )
        for eps2, cost in zip(eps2_seq, costs):
            terminal = mollify_phi(lambda x: gamma * x, eps2, ens.y0)
            mean, se = _mean_stderr(terminal - cost)
            rows.append(
                ConvergenceRow(
                    eps1=float(eps1),
                    eps2=float(eps2),
                    j_eps=mean,
                    stderr=se,
                    gap=abs(mean - baseline),
                )
            )
    return rows
