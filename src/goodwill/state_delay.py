"""Feedback machinery for delay in the state only (b1 = 0, a point lag a1).

Covers the scaled Hamiltonians of the goodwill model with forgetting,
the quadratic-cost and bang-bang feedback maps, closed-loop simulation
driven by an externally supplied gradient of the value function (run in
path blocks, keeping y(T) only), and the transcendental parameter
condition, at the model's delay r, for the invariant measure of the
uncontrolled dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import PointDelay, kernel_is_zero
from .sdde import (
    PATH_BLOCK,
    ConfigurationError,
    FeedbackPolicy,
    HistoryPair,
    ModelParams,
    PathEnsemble,
    simulate_paths,
)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Control cost shape plus the scalings used by the scaled Hamiltonians.

    cost is "quadratic" (h0(z) = beta z^2) or "linear" (h0(z) = beta z);
    the control set is U = [0, R].
    """

    cost: str
    beta: float
    b0: float
    sigma: float
    R: float

    def __post_init__(self):
        if self.cost not in ("quadratic", "linear"):
            raise ConfigurationError(f"unknown cost form {self.cost!r}")
        if min(self.beta, self.b0, self.sigma, self.R) <= 0:
            raise ConfigurationError("beta, b0, sigma, R must all be positive")

    @property
    def R_tilde(self) -> float:
        return self.b0 * self.R / self.sigma

    @property
    def beta_tilde(self) -> float:
        # quadratic cost composes h0 with the sigma/b0 rescaling twice,
        # the linear cost only once
        if self.cost == "quadratic":
            return self.sigma**2 * self.beta / self.b0**2
        return self.sigma * self.beta / self.b0


def hamiltonian_H0(p0, spec: HamiltonianSpec):
    """H0(p0) = sup over scaled controls z0 in [0, R~] of
    sigma*z0*p0 - h0(sigma*z0/b0)."""
    p0 = np.asarray(p0, dtype=float)
    s, bt, Rt = spec.sigma, spec.beta_tilde, spec.R_tilde
    if spec.cost == "quadratic":
        interior = (s * p0) ** 2 / (4.0 * bt)
        upper = s * p0 * Rt - bt * Rt**2
        out = np.where(p0 < 0, 0.0, np.where(p0 <= 2 * bt * Rt / s, interior, upper))
    else:
        out = np.where(p0 > bt / s, (s * p0 - bt) * Rt, 0.0)
    return out if out.ndim else float(out)


def hamiltonian_H(q0, spec: HamiltonianSpec):
    """H(q0) = H0(q0 / sigma)."""
    return hamiltonian_H0(np.asarray(q0, dtype=float) / spec.sigma, spec)


def feedback_quadratic(d0v, spec: HamiltonianSpec):
    """Optimal control for quadratic cost given the value gradient d0v:
    0 below 0, b0*d0v/(2 beta) in between, R above 2 beta R / b0."""
    if spec.cost != "quadratic":
        raise ConfigurationError("feedback_quadratic needs a quadratic cost spec")
    d0v = np.asarray(d0v, dtype=float)
    out = np.clip(spec.b0 * d0v / (2.0 * spec.beta), 0.0, spec.R)
    return out if out.ndim else float(out)


def bangbang_threshold(spec: HamiltonianSpec) -> float:
    # argmax over [0, R] of b0*z*d0v - beta*z switches at d0v = beta/b0
    return spec.beta / spec.b0


def feedback_bangbang(d0v, spec: HamiltonianSpec, tie_value: float = 0.0):
    """Bang-bang control for linear cost: 0 below the threshold, R above,
    tie_value exactly at it."""
    if spec.cost != "linear":
        raise ConfigurationError("feedback_bangbang needs a linear cost spec")
    if not 0.0 <= tie_value <= spec.R:
        raise ConfigurationError(f"tie_value {tie_value} outside [0, {spec.R}]")
    d0v = np.asarray(d0v, dtype=float)
    thr = bangbang_threshold(spec)
    out = np.where(d0v < thr, 0.0, np.where(d0v > thr, spec.R, tie_value))
    return out if out.ndim else float(out)


def quadratic_feedback_policy(spec: HamiltonianSpec, gradient_fn) -> FeedbackPolicy:
    return FeedbackPolicy(lambda t, y: feedback_quadratic(gradient_fn(t, y), spec))


def bangbang_feedback_policy(
    spec: HamiltonianSpec, gradient_fn, tie_value: float = 0.0
) -> FeedbackPolicy:
    return FeedbackPolicy(
        lambda t, y: feedback_bangbang(gradient_fn(t, y), spec, tie_value)
    )


def simulate_feedback(
    params: ModelParams,
    a1_scalar: float,
    history: HistoryPair,
    policy: FeedbackPolicy,
    dt: float,
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Closed-loop Euler-Maruyama for dy = [a0 y + a1 y(t-r) + b0 z] dt + s dW,
    recorded at the terminal time only.

    The control at each step is the feedback policy applied to the
    current state; params must carry zero a1/b1 kernels, and the lag is
    simulated as the point lag params.a1 = PointDelay(a1_scalar). The
    paths run PATH_BLOCK at a time, so memory is O(PATH_BLOCK * (m + steps))
    for m = r/dt and steps = T/dt, whatever n_paths is: one block's states
    (its noise copied into them) with the m history rows the lag reads, and
    its controls. The ensemble holds t = [T], y(T) and z(T) as (n_paths, 1)
    columns, and the clip count of every step of every path; each path's
    numbers equal those of one simulate_paths pass over all of them, bit
    for bit.
    """
    if not kernel_is_zero(params.b1) or not kernel_is_zero(params.a1):
        raise ConfigurationError(
            "simulate_feedback covers the state-delay-only model: "
            "a1 and b1 kernels must be zero"
        )
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    params = replace(params, a1=PointDelay(a1_scalar))
    y, z, clip_count = np.empty((n_paths, 1)), np.empty((n_paths, 1)), 0
    for first in range(0, n_paths, PATH_BLOCK):
        n = min(PATH_BLOCK, n_paths - first)
        ens = simulate_paths(params, history, policy, dt, n, seed, first_path=first)
        y[first : first + n] = ens.y[:, -1:]
        z[first : first + n] = ens.z[:, -1:]
        clip_count += ens.clip_count
        t = ens.t[-1:].copy()
        del ens  # free the block before the next one is built
    return PathEnsemble(t=t, y=y, z=z, dt=dt, seed=seed, clip_count=clip_count)


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    gamma_root: float | None
    upper_bound: float | None
    diagnostic: str


def invariant_measure_condition(
    a0: float, a1_scalar: float, r: float
) -> ConditionReport:
    """Check the stability condition of dy = [a0 y + a1 y(t-r)] dt at delay r.

    Scaling time by r turns the delay r into 1 and the pair into
    (a, b) = (a0*r, a1*r), so the check is a < -b < sqrt(g^2 + a^2), where
    g solves g*cot(g) = a on ]0, pi[ (Hayes 1950 for delay 1); gamma_root
    and upper_bound are g and sqrt(g^2 + a^2).
    """
    if not 0 < r < np.inf:
        raise ConfigurationError(f"r must be positive and finite, got {r}")
    a, b = a0 * r, a1_scalar * r
    if not a < 1.0:  # g*cot(g) decreases from 1 to -inf on ]0, pi[
        return ConditionReport(
            holds=False,
            gamma_root=None,
            upper_bound=None,
            diagnostic=f"no root of the cot equation in ]0, pi[ for a0*r={a}",
        )
    g = _cot_root(a)
    bound = float(np.sqrt(g * g + a * a))
    holds = bool(a < -b < bound)
    return ConditionReport(
        holds=holds, gamma_root=g, upper_bound=bound, diagnostic="ok"
    )


def _cot_root(a: float) -> float:
    """The root g of g*cot(g) = a on ]0, pi[, for a < 1, by bisection.

    g*cot(g) decreases from 1 to -inf on ]0, pi[, so the bracket halves
    until it stops shrinking, its midpoint rounding to one of its ends.
    """
    lo, hi = 0.0, math.pi
    while True:
        g = 0.5 * (lo + hi)
        if g <= lo or g >= hi:
            return g
        if g / math.tan(g) > a:
            lo = g
        else:
            hi = g
