"""Euler-Maruyama simulation of the controlled goodwill SDDE.

The goodwill stock follows

    dy(t) = [a0 y(t) + int a1(xi) y(t+xi) dxi + b0 z(t)
             + int b1(xi) z(t+xi) dxi] dt + sigma dW(t),

with prescribed goodwill and advertising histories on [-r, 0]. The
delay integrals are trapezoid quadratures on the simulation time step,
so every lookback lands on a stored sample. Both go through
hilbert.DelaySum: for exponential and constant kernels it updates the
a1 state window and the b1 control window in O(1) per step; a sampled
kernel is re-summed over its m+1 samples. The two agree to 1e-12
relative (tests compare them). Open-loop and feedback policies share one
step loop over time-major paths (one row per step); an open-loop
control is one number per step, shared by every path. Each path draws
its noise from a Philox stream keyed by (seed, path index), which makes
ensembles reproducible independently of how paths are scheduled.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import (
    ConstantKernel,
    DelaySum,
    ExponentialKernel,
    Kernel,
    SampledKernel,
    SegmentGrid,
    kernel_eval,
    kernel_is_zero,
)

BLOWUP_LIMIT = 1e12


class ConfigurationError(ValueError):
    """Inconsistent simulation configuration (step sizes, bounds, ...)."""


class BlowupError(RuntimeError):
    """A path left the finite range during integration."""


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the goodwill SDDE and the control interval."""

    a0: float
    a1: Kernel
    b0: float
    b1: Kernel
    sigma: float
    r: float
    T: float
    u_min: float = 0.0
    u_max: float = np.inf

    def __post_init__(self):
        if self.a0 > 0:
            raise ValueError(f"a0 must be <= 0, got {self.a0}")
        if self.b0 < 0:
            raise ValueError(f"b0 must be >= 0, got {self.b0}")
        if self.r <= 0 or self.T <= 0:
            raise ValueError("r and T must be positive")
        if not 0 <= self.u_min <= self.u_max:
            raise ValueError(
                f"need 0 <= u_min <= u_max, got [{self.u_min}, {self.u_max}]"
            )
        _check_kernel_nonneg(self.b1, "b1")


def _check_kernel_nonneg(k: Kernel, name: str):
    if isinstance(k, ConstantKernel) and k.c < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, ExponentialKernel) and k.amp < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, SampledKernel) and np.any(k.values < 0):
        raise ValueError(f"{name} must be non-negative at every node")


@dataclass(frozen=True)
class HistoryPair:
    """Initial goodwill level plus goodwill and advertising histories."""

    grid: SegmentGrid
    x0: float
    x1: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "delta", delta)
        if len(x1) != self.grid.n_nodes or len(delta) != self.grid.n_nodes:
            raise ConfigurationError("history profiles must live on the grid")
        if self.x0 < 0 or np.any(x1 < 0) or np.any(delta < 0):
            raise ValueError("histories must be non-negative")
        if abs(x1[-1] - self.x0) > 1e-9 * (1.0 + abs(self.x0)):
            raise ValueError("x1(0) must equal x0")


# --- policies ---------------------------------------------------------------


@dataclass(frozen=True)
class OpenLoop:
    """Control given as samples z(t_k) on a time grid."""

    t: np.ndarray
    z: np.ndarray

    def sample(self, params: ModelParams, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.t, self.z)


@dataclass(frozen=True)
class Memoryless:
    """z0(t) = gamma*b0*exp((T-t)*a0)/(2*beta), optimal when a1 = b1 = 0."""

    gamma: float
    beta: float

    def sample(self, params: ModelParams, t: np.ndarray) -> np.ndarray:
        return (
            self.gamma * params.b0 * np.exp((params.T - t) * params.a0)
            / (2.0 * self.beta)
        )


@dataclass(frozen=True)
class FeedbackPolicy:
    """State feedback z = control_fn(t, y); y is the per-path state array."""

    control_fn: Callable[[float, np.ndarray], np.ndarray]


Policy = OpenLoop | Memoryless | FeedbackPolicy


def open_loop_controls(
    policy: Policy, params: ModelParams, t: np.ndarray, who: str
) -> np.ndarray:
    """Samples z(t) of an open-loop policy, clipped to [u_min, u_max]; a
    feedback policy has none."""
    if isinstance(policy, FeedbackPolicy):
        raise ConfigurationError(f"{who} needs an open-loop policy")
    return np.clip(policy.sample(params, t), params.u_min, params.u_max)


# --- ensembles and estimates ------------------------------------------------


@dataclass(frozen=True)
class PathEnsemble:
    t: np.ndarray
    y: np.ndarray  # (n_paths, steps+1)
    z: np.ndarray  # (n_paths, steps+1) or (1, steps+1) when shared
    dt: float
    seed: int
    clip_count: int = 0

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("path_id,t,y,z\n")
        shared = self.z.shape[0] == 1
        for p in range(self.n_paths):
            zrow = self.z[0] if shared else self.z[p]
            for k, tk in enumerate(self.t):
                buf.write(f"{p},{tk:.10g},{self.y[p, k]:.10g},{zrow[k]:.10g}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": self.mean,
                "stderr": self.stderr,
                "n_paths": self.n_paths,
                "seed": self.seed,
            }
        )


@dataclass(frozen=True)
class GapEstimate:
    gap: float
    stderr: float


# --- objective specification ------------------------------------------------


@dataclass(frozen=True)
class LinearReward:
    gamma: float

    def __call__(self, x):
        return self.gamma * x


@dataclass(frozen=True)
class PowerReward:
    """Concave power reward coeff * max(x,0)^exponent, 0 < exponent <= 1."""

    coeff: float
    exponent: float

    def __post_init__(self):
        if not 0 < self.exponent <= 1:
            raise ValueError("exponent must lie in (0, 1]")

    def __call__(self, x):
        return self.coeff * np.maximum(x, 0.0) ** self.exponent


@dataclass(frozen=True)
class QuadraticCost:
    beta: float

    def __call__(self, z):
        return self.beta * z * z


@dataclass(frozen=True)
class LinearCost:
    beta: float

    def __call__(self, z):
        return self.beta * z


@dataclass(frozen=True)
class ObjectiveSpec:
    """Terminal reward phi0 and running advertising cost h0.

    growth_K and growth_m bound the reward, |phi0(x)| <= K(1+|x|)^m.
    """

    phi0: Callable
    h0: Callable
    growth_K: float = 1.0
    growth_m: float = 1.0

    def check_growth(self, xs) -> bool:
        xs = np.asarray(xs, dtype=float)
        return bool(
            np.all(
                np.abs(self.phi0(xs))
                <= self.growth_K * (1.0 + np.abs(xs)) ** self.growth_m + 1e-12
            )
        )


# --- simulation -------------------------------------------------------------


def _steps_of(span: float, dt: float, what: str) -> int:
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > 1e-9 * span:
        raise ConfigurationError(f"dt={dt} does not divide {what}={span}")
    return n


# One generator serves every path: path_normals resets its Philox state
# to counter 0 and key [seed, path_index] before each draw, which gives
# the same bits as a fresh Generator(Philox(key=[seed, path_index]))
# without seeding a new bit generator (from OS entropy) for every path.
_PATH_GENERATOR = np.random.Generator(np.random.Philox(0))
_PATH_GENERATOR_LOCK = threading.Lock()


def path_normals(seed: int, path_index: int, shape) -> np.ndarray:
    """Noise increments for one path from a counter-based substream."""
    state = {
        "bit_generator": "Philox",
        # the key conversion Philox(key=[...]) applies to a list
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.asarray([seed, path_index]).astype(np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    with _PATH_GENERATOR_LOCK:
        _PATH_GENERATOR.bit_generator.state = state
        return _PATH_GENERATOR.standard_normal(shape)


def simulate_paths(
    params: ModelParams,
    history: HistoryPair,
    policy: Policy,
    dt: float,
    n_paths: int,
    seed: int,
    a1_point: float = 0.0,
) -> PathEnsemble:
    """Explicit Euler-Maruyama over [0, T] for n_paths independent paths.

    a1_point adds a discrete lag term a1_point * y(t - r) to the drift,
    used by the state-delay-only model where the forgetting distribution
    is concentrated on a point.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    if dt > params.r or dt > params.T:
        raise ConfigurationError("dt must not exceed r or T")
    steps = _steps_of(params.T, dt, "T")
    m = _steps_of(params.r, dt, "r")
    grid = history.grid
    t = dt * np.arange(steps + 1)
    xi = -params.r + dt * np.arange(m + 1)

    sum_a = sum_b = None
    if not kernel_is_zero(params.a1):
        sum_a = DelaySum(params.a1, kernel_eval(params.a1, xi, grid), dt)
    if not kernel_is_zero(params.b1):
        sum_b = DelaySum(params.b1, kernel_eval(params.b1, xi, grid), dt)

    hist_y = np.interp(xi, grid.nodes, history.x1)
    hist_z = np.interp(xi, grid.nodes, history.delta)

    # time-major windows: row m + k holds time t_k, rows below m the history
    y_pad = np.empty((m + steps + 1, n_paths))
    y_pad[:m] = hist_y[:m, None]
    y_pad[m] = history.x0

    # an open-loop control is one number per step, a feedback control one
    # per path
    feedback = isinstance(policy, FeedbackPolicy)
    if feedback:
        z_pad = np.empty((m + steps + 1, n_paths))
        z_pad[:m] = hist_z[:m, None]
        clip_count = 0
    else:
        z_open = policy.sample(params, t)
        clipped = np.clip(z_open, params.u_min, params.u_max)
        clip_count = int(np.count_nonzero(clipped != z_open))
        z_pad = np.concatenate([hist_z[:m], clipped])

    noise = np.empty((n_paths, steps))
    for p in range(n_paths):
        noise[p] = path_normals(seed, p, steps)
    sig = params.sigma * np.sqrt(dt)

    if sum_a is not None:
        ha = sum_a.start(y_pad[:m])
    if sum_b is not None:
        hb = sum_b.start(z_pad[:m])
    for k in range(steps + 1):
        ycur = y_pad[m + k]
        if feedback:
            zk = np.asarray(policy.control_fn(t[k], ycur), dtype=float)
            zk = np.broadcast_to(zk, (n_paths,))
            z_pad[m + k] = np.clip(zk, params.u_min, params.u_max)
            clip_count += int(np.count_nonzero(z_pad[m + k] != zk))
        if k == steps:
            break  # the terminal control is stored, never used in a drift
        zcur = z_pad[m + k]
        drift = params.a0 * ycur
        if sum_a is not None:
            drift = drift + sum_a.at(ha, y_pad[k], ycur)
        if a1_point != 0.0:
            drift = drift + a1_point * y_pad[k]
        drift = drift + params.b0 * zcur
        if sum_b is not None:
            drift = drift + sum_b.at(hb, z_pad[k], zcur)
            hb = sum_b.slide(hb, z_pad[k], zcur, z_pad[k + 1 : k + m + 1])
        ynew = ycur + drift * dt + sig * noise[:, k]
        if not np.all(np.isfinite(ynew)) or np.max(np.abs(ynew)) > BLOWUP_LIMIT:
            bad = int(np.argmax(~np.isfinite(ynew) | (np.abs(ynew) > BLOWUP_LIMIT)))
            raise BlowupError(
                f"path {bad} left the finite range at step {k + 1} (t={t[k + 1]:g})"
            )
        y_pad[m + k + 1] = ynew
        if sum_a is not None:
            ha = sum_a.slide(ha, y_pad[k], ycur, y_pad[k + 1 : k + m + 1])

    y, z = y_pad[m:].T, np.atleast_2d(z_pad[m:].T)
    return PathEnsemble(t=t, y=y, z=z, dt=dt, seed=seed, clip_count=clip_count)


def objective_estimate(ensemble: PathEnsemble, obj: ObjectiveSpec) -> MCEstimate:
    """Per-path phi0(y(T)) minus the left-endpoint cost integral, averaged."""
    if ensemble.n_paths == 0:
        raise ConfigurationError("ensemble is empty")
    terminal = obj.phi0(ensemble.y[:, -1])
    costs = obj.h0(ensemble.z[:, :-1]).sum(axis=1) * ensemble.dt
    values = terminal - costs  # broadcasts when z is shared across paths
    n = ensemble.n_paths
    mean = float(np.mean(values))
    # one path carries no spread information: NaN, not a claim of certainty
    stderr = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return MCEstimate(mean=mean, stderr=stderr, n_paths=n, seed=ensemble.seed)


def evaluate_policy(
    params: ModelParams,
    history: HistoryPair,
    policy: Policy,
    obj: ObjectiveSpec,
    dt: float,
    n_paths: int,
    seed: int,
    a1_point: float = 0.0,
) -> MCEstimate:
    ens = simulate_paths(params, history, policy, dt, n_paths, seed, a1_point)
    return objective_estimate(ens, obj)


def relative_gap(v_opt: MCEstimate, v_base: MCEstimate) -> GapEstimate:
    """(v_opt - v_base)/v_opt with first-order propagated standard error."""
    if v_opt.mean == 0.0:
        raise ZeroDivisionError("reference value is zero")
    gap = (v_opt.mean - v_base.mean) / v_opt.mean
    se = np.hypot(
        v_base.mean / v_opt.mean**2 * v_opt.stderr, v_base.stderr / v_opt.mean
    )
    return GapEstimate(gap=float(gap), stderr=float(se))
