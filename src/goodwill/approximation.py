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
    """(fn * zeta_eps2)(x) by quadrature: int fn(x - eps2 u) zeta(u) du."""
    if not eps2 > 0:
        raise ConfigurationError(f"eps2 must be positive, got {eps2}")
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    args = pts[:, None] - eps2 * BUMP_U[None, :]
    vals = fn(args)
    return np.trapezoid(vals * BUMP_ZETA[None, :], BUMP_U, axis=1)


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

    y0 = np.full(n_paths, float(lifted_init.x0))
    y1 = np.tile(np.asarray(lifted_init.x1, dtype=float), (n_paths, 1))

    noise = np.empty((n_paths, 2, steps))
    for p in range(n_paths):
        noise[p] = path_normals(seed, p, (2, steps))
    sig0 = params.sigma * np.sqrt(dt)
    sig1 = eps1 * np.sqrt(dt)

    for k in range(steps):
        tip = y1[:, -1]
        y0_new = y0 + (params.a0 * y0 + tip + params.b0 * z[k]) * dt
        y0_new += sig0 * noise[:, 0, k]

        upwind = np.empty_like(y1)
        upwind[:, 0] = y1[:, 0]  # ghost value 0 at xi = -r
        upwind[:, 1:] = y1[:, 1:] - y1[:, :-1]
        source = a1v[None, :] * y0[:, None] + (b1v * z[k])[None, :]
        y1_new = y1 - lam * upwind + dt * source
        if sig1 > 0 and not kernel_is_zero(params.b1):
            y1_new += sig1 * noise[:, 1, k][:, None] * b1v[None, :]

        if not (np.all(np.isfinite(y0_new)) and np.all(np.isfinite(y1_new))):
            raise BlowupError(f"lifted evolution lost finiteness at step {k+1}")
        y0, y1 = y0_new, y1_new

    return LiftedEnsemble(y0=y0, y1=y1)


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
