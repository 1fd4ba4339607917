"""Feedback machinery for delay in the state only (b1 = 0, a point lag a1).

Covers the quadratic-cost and bang-bang feedback maps, the argmax of
lq's control Hamiltonian at p = b0 * d0v, closed-loop simulation
driven by an externally supplied gradient of the value function (run in
path blocks, keeping y(T), z(T) and the clip count only), and the
transcendental parameter condition, at the model's delay r, for the
invariant measure of the uncontrolled dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import PointDelay, kernel_is_zero
from .lq import hamiltonian_argmax
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
    """Control cost shape and the control set U = [0, R] of the feedback maps.

    cost is "quadratic" (h0(z) = beta z^2) or "linear" (h0(z) = beta z).
    No map reads sigma, so sigma = 0 (a noiseless closed loop) is a spec:
    it stays a field so that the five positional arguments (cost, beta,
    b0, sigma, R) that perfbench/workloads.py passes keep their meaning.
    """

    cost: str
    beta: float
    b0: float
    sigma: float
    R: float

    def __post_init__(self):
        if self.cost not in ("quadratic", "linear"):
            raise ConfigurationError(f"unknown cost form {self.cost!r}")
        # a nan fails every comparison, so it fails this one too
        if not (all(v > 0 for v in (self.beta, self.b0, self.R)) and self.sigma >= 0):
            raise ConfigurationError("beta, b0, R must all be positive, sigma >= 0")


def feedback_quadratic(d0v, spec: HamiltonianSpec):
    """Optimal control for quadratic cost given the value gradient d0v, the
    argmax over [0, R] of b0 d0v z - beta z^2: 0 below 0, b0*d0v/(2 beta)
    in between, R above 2 beta R / b0."""
    if spec.cost != "quadratic":
        raise ConfigurationError("feedback_quadratic needs a quadratic cost spec")
    p = spec.b0 * np.asarray(d0v, dtype=float)
    return hamiltonian_argmax(p, spec.beta, 0.0, spec.R)


def feedback_bangbang(d0v, spec: HamiltonianSpec, tie_value: float = 0.0):
    """Bang-bang control for linear cost: 0 below the threshold beta/b0, R
    above, tie_value exactly at it. The argmax over [0, R] of
    b0 d0v z - beta z is that of d0v z - (beta/b0) z, so d0v itself is
    compared with beta/b0."""
    if spec.cost != "linear":
        raise ConfigurationError("feedback_bangbang needs a linear cost spec")
    if not 0.0 <= tie_value <= spec.R:
        raise ConfigurationError(f"tie_value {tie_value} outside [0, {spec.R}]")
    threshold = spec.beta / spec.b0
    return hamiltonian_argmax(d0v, threshold, 0.0, spec.R, "linear", tie_value)


def quadratic_feedback_policy(spec: HamiltonianSpec, gradient_fn) -> FeedbackPolicy:
    return FeedbackPolicy(lambda t, y: feedback_quadratic(gradient_fn(t, y), spec))


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
    paths run PATH_BLOCK at a time through simulate_paths(terminal=True),
    so memory is O(PATH_BLOCK * steps + m) for m = r/dt and steps = T/dt,
    whatever n_paths is: one block's states (its noise copied into them)
    and one row of controls, reused every step since b1 = 0 reads no past
    control, the lag reading the m history samples from one array shared
    by every path. The ensemble holds t = [T], y(T) and z(T) as
    (n_paths, 1) columns, and the clip count of every step of every path;
    each path's numbers equal those of one simulate_paths pass over all
    of them, bit for bit.
    """
    if not kernel_is_zero(params.b1) or not kernel_is_zero(params.a1):
        raise ConfigurationError(
            "simulate_feedback covers the state-delay-only model: "
            "a1 and b1 kernels must be zero"
        )
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    params = replace(params, a1=PointDelay(a1_scalar))
    blocks = [
        simulate_paths(
            params, history, policy, dt, min(PATH_BLOCK, n_paths - first), seed,
            first_path=first, terminal=True,
        )
        for first in range(0, n_paths, PATH_BLOCK)
    ]
    return PathEnsemble(
        t=blocks[0].t,
        y=np.concatenate([b.y for b in blocks]),
        z=np.concatenate([b.z for b in blocks]),
        dt=dt,
        seed=seed,
        clip_count=sum(b.clip_count for b in blocks),
    )


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
    and upper_bound are g and sqrt(g^2 + a^2). A non-finite a or b raises
    ConfigurationError.
    """
    if not 0 < r < np.inf:
        raise ConfigurationError(f"r must be positive and finite, got {r}")
    a, b = a0 * r, a1_scalar * r
    if not (math.isfinite(a) and math.isfinite(b)):
        msg = f"a0 and a1 must be finite, times r={r} too; got {a0}, {a1_scalar}"
        raise ConfigurationError(msg)
    if not a < 1.0:  # g*cot(g) decreases from 1 to -inf on ]0, pi[
        return ConditionReport(
            holds=False,
            gamma_root=None,
            upper_bound=None,
            diagnostic=f"no root of the cot equation in ]0, pi[ for a0*r={a}",
        )
    g = _cot_root(a)
    bound = math.hypot(g, a)  # g*g + a*a would overflow for |a| near 1e308
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
