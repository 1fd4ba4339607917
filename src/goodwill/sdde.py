"""Euler-Maruyama simulation of the controlled goodwill SDDE.

The goodwill stock follows

    dy(t) = [a0 y(t) + int a1(xi) y(t+xi) dxi + b0 z(t)
             + int b1(xi) z(t+xi) dxi] dt + sigma dW(t),

with prescribed goodwill and advertising histories on [-r, 0]. The delay
integrals are trapezoid quadratures on the simulation time step, so
every lookback lands on a stored or a history sample. A density kernel's
integral is a hilbert.DelayWindow sliding along the time-major state or
control rows and their history: for exponential and constant kernels it
updates the a1 state window and the b1 control window in O(1) per step
(the recursion agrees with a full re-sum to 1e-12 relative; tests
compare them). A point lag is amp * x(t - r), one multiply of the row r
behind, or of the history sample while t < r. Open-loop and
feedback policies share one step loop over time-major rows (one row per
step, one column per path); an open-loop control is one number per step,
shared by every path. The loop and the windows fill preallocated
per-path buffers in place; only a feedback policy's control and its clip
count make per-step arrays. Each path draws its noise from a Philox
stream keyed by (seed, path index), and every per-path sum runs in an
order that does not depend on how many paths share an array, so a path's
result is bit-identical whatever the path count, blocking or scheduling.

simulate_paths keeps steps + 1 = T/dt + 1 rows of states, and of controls
under feedback; asked for the terminal record only, a feedback run whose
b1 is zero keeps one control row, reused every step. The initial datum is
the same for every path, so the m = r/dt history samples a delay term
reads before t = r are one array, shared by every path, not rows copied
into each path. Each path's noise substream is drawn whole (the ziggurat
takes a variable number of Philox words per normal, so a later time chunk
has no known counter to start from) and copied into the state rows it
perturbs, so the noise needs no array of its own beyond a buffer of 64
paths. One fill function draws it on one thread per usable CPU, the
caller's among them, at most one per 64-path chunk and 8 in all (numpy's
normal draw releases the GIL); each thread fills the columns it claims
through its share of that buffer and re-keys one generator per path, so
neither the bits nor the memory depend on the CPU count. There is no
option for it.
evaluate_policy simulates PATH_BLOCK (2048) paths at a time and keeps
only each path's objective, so its memory is O(PATH_BLOCK * steps + m)
whatever the path count; state_delay.simulate_feedback blocks the same
way with terminal records, so it keeps y(T), z(T) and the clip count,
and one control row per block. A feedback policy's control_fn is then
called on one block of states at a time, so it must act path-wise: the
control of a path may depend on that path's state only.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hilbert import (
    ConfigurationError,
    DelayWindow,
    Kernel,
    PointDelay,
    SegmentGrid,
    kernel_eval,
    kernel_is_zero,
)

BLOWUP_LIMIT = 1e12
# evaluate_policy and state_delay.simulate_feedback simulate this many
# paths at a time
PATH_BLOCK = 2048
# simulate_paths draws the noise of at most this many paths at a time,
# split among its threads, each of which takes at least _NOISE_LINE
# paths (one 64-byte cache line of a state row)
_NOISE_CHUNK = 64
_NOISE_LINE = 8
# the most time steps any solver takes over one span (T or r); checked
# before anything is allocated
MAX_STEPS = 10**7


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
        # each check is written so that a nan fails it
        if not self.a0 <= 0:
            raise ConfigurationError(f"a0 must be <= 0, got {self.a0}")
        if not self.b0 >= 0:
            raise ConfigurationError(f"b0 must be >= 0, got {self.b0}")
        if not (self.r > 0 and self.T > 0):
            raise ConfigurationError("r and T must be positive")
        if not self.sigma >= 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        if not 0 <= self.u_min <= self.u_max:
            raise ConfigurationError(
                f"need 0 <= u_min <= u_max, got [{self.u_min}, {self.u_max}]"
            )
        if self.b1.amp < 0:  # the b1 sign rule: advertising carryover adds goodwill
            raise ConfigurationError("b1 must be non-negative")


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
        if x1.shape != delta.shape or x1.shape != (self.grid.n_nodes,):
            raise ConfigurationError("history profiles must be 1-d and live on the grid")
        if not all(np.all((0 <= v) & (v < np.inf)) for v in (self.x0, x1, delta)):
            raise ConfigurationError("histories must be non-negative and finite")
        if abs(x1[-1] - self.x0) > 1e-9 * (1.0 + abs(self.x0)):
            raise ConfigurationError("x1(0) must equal x0")


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
        with np.errstate(over="ignore"):  # +-inf past 1e308, which the bounds clip
            return (
                self.gamma * params.b0 * np.exp((params.T - t) * params.a0)
                / (2.0 * self.beta)
            )


@dataclass(frozen=True)
class FeedbackPolicy:
    """State feedback z = control_fn(t, y); y is the per-path state array.

    control_fn must act path-wise (entry i of z from entry i of y alone):
    evaluate_policy calls it on one block of paths at a time."""

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
    """Paths sampled at the times t: whole paths from simulate_paths, or
    the terminal time alone (t = [T]) from simulate_paths(terminal=True)
    and state_delay.simulate_feedback."""

    t: np.ndarray
    y: np.ndarray  # (n_paths, len(t))
    z: np.ndarray  # (n_paths, len(t)), or (len(t),) when shared by all paths
    dt: float
    seed: int
    clip_count: int = 0

    def __post_init__(self):
        times = len(self.t)
        if self.y.ndim != 2 or self.y.shape[1] != times:
            raise ConfigurationError(
                f"y has shape {self.y.shape}, expected (n_paths, {times})"
            )
        if self.z.shape not in ((times,), (self.y.shape[0], times)):
            raise ConfigurationError(
                f"z has shape {self.z.shape}, expected ({times},) or "
                f"({self.y.shape[0]}, {times})"
            )

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    # the objective of each path, in path order
    values: np.ndarray | None = field(default=None, compare=False, repr=False)


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
class QuadraticCost:
    beta: float

    def __call__(self, z):
        return self.beta * z * z


@dataclass(frozen=True)
class ObjectiveSpec:
    """Terminal reward phi0 and running advertising cost h0; the paper
    assumes polynomial growth of the reward, |phi0(x)| <= K(1+|x|)^m."""

    phi0: Callable
    h0: Callable


# --- simulation -------------------------------------------------------------


def _check_horizon(params: ModelParams, grid: SegmentGrid):
    """Raise ConfigurationError unless the grid spans the model's [-r, 0]."""
    if abs(grid.r - params.r) > 1e-12 * params.r:
        raise ConfigurationError(
            f"segment grid has r={grid.r:g}, the model has r={params.r:g}"
        )


def _steps_of(span: float, dt: float, what: str) -> int:
    """The number of steps dt in span. Raises ConfigurationError unless
    dt > 0 divides span > 0 into 1 to MAX_STEPS steps (a NaN or infinite
    count fails too)."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if not span > 0:
        raise ConfigurationError(f"{what} must be positive, got {span}")
    steps = span / dt
    if not steps <= MAX_STEPS:
        raise ConfigurationError(
            f"{what}/dt = {steps:.3g} steps exceeds the limit of {MAX_STEPS:.0e}"
        )
    n = round(steps)
    if n < 1 or abs(n * dt - span) > 1e-9 * span:
        raise ConfigurationError(f"dt={dt} does not divide {what}={span}")
    return n


class _ThreadGenerator(threading.local):
    """One generator per thread, kept with the state of its Philox(0) at
    counter 0: path_normals re-keys that state to [seed, path_index] and
    hands it back, which gives the bits of a fresh Generator(Philox(key=
    [seed, path_index])) and builds no generator or state per path."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(0))
        self.state = self.generator.bit_generator.state


_THREAD_GENERATOR = _ThreadGenerator()


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [-2**63, 2**63): the Philox key holds it as a
    uint64, onto which this range maps one to one."""
    if not -(2**63) <= seed < 2**63:
        raise ConfigurationError(f"seed must be in [-2**63, 2**63), got {seed}")


def path_normals(seed: int, path_index: int, shape) -> np.ndarray:
    """Noise increments for one path from a counter-based substream. The
    key passes through an int64 array, which holds path indices in
    [0, 2**63) one to one (a larger one would go through float64)."""
    _check_seed(seed)
    if not 0 <= path_index < 2**63:
        raise ConfigurationError(f"path_index must be in [0, 2**63), got {path_index}")
    own = _THREAD_GENERATOR
    # the key conversion Philox(key=[...]) applies to a list
    own.state["state"]["key"] = np.asarray([seed, path_index]).astype(np.uint64)
    own.generator.bit_generator.state = own.state  # copied, so it stays at 0
    return own.generator.standard_normal(shape)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_noise(rows, seed, first_path, scale):
    """Put scale * path_normals(seed, first_path + j, steps) into column j
    of rows (time-major), on one thread per usable CPU, the caller's among
    them, at most one per _NOISE_CHUNK paths and 8 in all. Each thread
    claims the next run of columns until none is left, so a thread slowed
    by a busy CPU takes fewer, and draws it into its own path-major buffer
    before one copy (a column at a time would write a cache line per
    number). The buffers share _NOISE_CHUNK paths, a multiple of
    _NOISE_LINE each, so memory does not grow with the CPU count."""
    from concurrent.futures import ThreadPoolExecutor

    steps, n_paths = rows.shape
    workers = min(
        _usable_cpus(), -(-n_paths // _NOISE_CHUNK), _NOISE_CHUNK // _NOISE_LINE
    )
    width = min(_NOISE_CHUNK // workers // _NOISE_LINE * _NOISE_LINE, n_paths)
    unclaimed, lock = iter(range(0, n_paths, width)), threading.Lock()

    def draw():
        buffer = np.empty((width, steps))
        while True:
            with lock:
                first = next(unclaimed, None)
            if first is None:
                return
            chunk = buffer[: n_paths - first]
            for i, row in enumerate(chunk):
                row[:] = path_normals(seed, first_path + first + i, steps)
            chunk *= scale
            rows[:, first : first + len(chunk)] = chunk.T

    # threads start per task, and leaving the block joins them, failed or not
    with ThreadPoolExecutor(workers) as pool:
        tasks = [pool.submit(draw) for _ in range(workers - 1)]
        draw()
        for task in tasks:
            task.result()  # re-raises a task's exception


def simulate_paths(
    params: ModelParams,
    history: HistoryPair,
    policy: Policy,
    dt: float,
    n_paths: int,
    seed: int,
    first_path: int = 0,
    *,
    terminal: bool = False,
) -> PathEnsemble:
    """Explicit Euler-Maruyama over [0, T] for n_paths independent paths.

    A point lag in params.a1 or params.b1 (hilbert.PointDelay, as in the
    state-delay-only model, whose forgetting sits at one lag) adds
    amp * y(t - r) or amp * z(t - r) to the drift. The paths are numbered
    from first_path: path p draws the noise substream (seed, p), so the
    paths s.. of one run equal the rows s.. of a larger run.

    Each path keeps its steps + 1 states (and controls, under feedback),
    O(n_paths * steps + m) memory: a delay term reads the m = r/dt history
    samples, the same for every path, from one array of m + 1 numbers.
    The noise is copied into the state rows it perturbs, so it takes no
    (n_paths, steps) array of its own.

    With terminal=True the ensemble is the terminal record: t = [T], y(T)
    as an (n_paths, 1) copy, z(T) likewise (or its one shared number
    under an open-loop policy) and the clip count of every step, each
    equal to the last column of the whole paths bit for bit. A feedback
    run then keeps one control row, reused every step, unless a b1 term
    reads past controls.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    if first_path < 0:
        raise ConfigurationError(f"first_path must be >= 0, got {first_path}")
    if first_path + n_paths > 2**63:  # path_normals refuses the index 2**63
        raise ConfigurationError(
            f"first_path + n_paths must be at most 2**63, got {first_path + n_paths}"
        )
    _check_horizon(params, history.grid)
    steps = _steps_of(params.T, dt, "T")
    m = _steps_of(params.r, dt, "r")
    grid = history.grid
    t = dt * np.arange(steps + 1)
    xi = -params.r + dt * np.arange(m + 1)
    hist_y = np.interp(xi, grid.nodes, history.x1)
    hist_z = np.interp(xi, grid.nodes, history.delta)

    # time-major rows, one column per path: row k holds time t_k. The
    # history is the same for every path, so a delay term reads its sample
    # k, one number shared by every column, while k < m
    y = np.empty((steps + 1, n_paths))
    y[0] = history.x0
    # row k + 1 holds sigma*dW of step k until that step adds the drift
    _fill_noise(y[1:], seed, first_path, params.sigma * np.sqrt(dt))

    # an open-loop control is one number per step, a feedback control one
    # per path
    feedback = isinstance(policy, FeedbackPolicy)
    if feedback:
        # step k writes row k % len(z): a terminal record without b1 reads
        # no past control, so one row serves every step
        keep = 1 if terminal and kernel_is_zero(params.b1) else steps + 1
        z = np.empty((keep, n_paths))
        clip_count = 0
    else:
        z_open = policy.sample(params, t)
        z = np.clip(z_open, params.u_min, params.u_max)
        clip_count = int(np.count_nonzero(z != z_open))

    # a density kernel's integral is a DelayWindow along its rows and
    # history; a nonzero point lag's term is amp * x(t_k - r)
    win_a, win_b = (
        None if kernel_is_zero(k) or isinstance(k, PointDelay)
        else DelayWindow(k, kernel_eval(k, xi, params.r), dt, rows, hist)
        for k, rows, hist in ((params.a1, y, hist_y), (params.b1, z, hist_z))
    )
    lag_a, lag_b = (
        k.amp if isinstance(k, PointDelay) and not kernel_is_zero(k) else None
        for k in (params.a1, params.b1)
    )

    def lagged(rows, hist, k):
        """x(t_k - r): the history's sample k while k < m, then row k - m."""
        return hist[k] if k < m else rows[k - m]

    # per-step buffers, filled in place; the control terms of an open-loop
    # policy are scalars, shared by every path
    drift, term = np.empty(n_paths), np.empty(n_paths)
    zterm = term if feedback else None
    for k in range(steps + 1):
        ycur = y[k]
        zcur = z[k % len(z)]
        if feedback:
            # clip and != broadcast one number for every path themselves
            zk = np.asarray(policy.control_fn(t[k], ycur), dtype=float)
            np.clip(zk, params.u_min, params.u_max, out=zcur)
            clip_count += int(np.count_nonzero(zcur != zk))
        if k == steps:
            break  # the terminal control is stored, never used in a drift
        np.multiply(ycur, params.a0, out=drift)
        if win_a is not None:
            drift += win_a.sum(k, ycur)
        elif lag_a is not None:
            drift += np.multiply(lagged(y, hist_y, k), lag_a, out=term)
        drift += np.multiply(zcur, params.b0, out=zterm)
        if win_b is not None:
            drift += win_b.sum(k, zcur)
            win_b.advance(k)
        elif lag_b is not None:
            drift += np.multiply(lagged(z, hist_z, k), lag_b, out=zterm)
        drift *= dt
        drift += ycur
        # the noise already in the new row joins y + drift (+ commutes,
        # so the bits are those of (y + drift) + noise)
        ynew = y[k + 1]
        ynew += drift
        # maximum propagates NaN, so this also catches a non-finite state
        if not np.maximum.reduce(np.abs(ynew, out=term)) <= BLOWUP_LIMIT:
            bad = int(np.argmax(~np.isfinite(ynew) | (np.abs(ynew) > BLOWUP_LIMIT)))
            raise BlowupError(
                f"path {first_path + bad} left the finite range at step {k + 1} "
                f"(t={t[k + 1]:g})"
            )
        if win_a is not None:
            win_a.advance(k)

    if terminal:  # copies, so the block's rows can go
        t, y, z = t[-1:].copy(), y[-1:].copy(), z[-1:].copy()
    # .T leaves an open-loop control row as it is
    return PathEnsemble(t=t, y=y.T, z=z.T, dt=dt, seed=seed, clip_count=clip_count)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error. One value carries no spread
    information, so its stderr is NaN, never a claim of certainty (0).
    Values whose squared deviations overflow are scaled into range."""
    n = len(values)
    with np.errstate(over="ignore"):
        std = np.std(values, ddof=1) if n > 1 else np.nan
    if np.isinf(std):  # finite values, so they scale into range
        scale = np.max(np.abs(values))
        std = np.std(values / scale, ddof=1) * scale
    return float(np.mean(values)), float(std / np.sqrt(n))


def objective_estimate(ensemble: PathEnsemble, obj: ObjectiveSpec) -> MCEstimate:
    """Per-path phi0(y(T)) minus the left-endpoint cost integral, averaged."""
    if ensemble.n_paths == 0:
        raise ConfigurationError("ensemble is empty")
    if len(ensemble.t) < 2:
        # a terminal record (simulate_feedback's) has no running cost
        raise ConfigurationError(
            "objective_estimate needs whole paths, got an ensemble with "
            f"{len(ensemble.t)} time point(s)"
        )
    terminal = obj.phi0(ensemble.y[:, -1])
    z = ensemble.z
    if z.ndim == 1:  # one control shared by every path
        cost = obj.h0(z[:-1]).sum()
    else:
        # a running sum adds each path's costs in time order whatever the
        # path count (a plain sum is pairwise for one path only); -0.0 is
        # the identity of +, so this is np.cumsum's last column, without
        # an (n_paths, steps) array of costs
        cost = np.full(ensemble.n_paths, -0.0)
        for k in range(z.shape[1] - 1):
            cost += obj.h0(z[:, k])
    values = terminal - cost * ensemble.dt
    mean, stderr = _mean_stderr(values)
    return MCEstimate(mean, stderr, ensemble.n_paths, ensemble.seed, values)


def evaluate_policy(
    params: ModelParams,
    history: HistoryPair,
    policy: Policy,
    obj: ObjectiveSpec,
    dt: float,
    n_paths: int,
    seed: int,
) -> MCEstimate:
    """objective_estimate over n_paths paths, simulated PATH_BLOCK at a time.

    Only each path's objective outlives its block, so memory is
    O(PATH_BLOCK * steps + m) whatever n_paths is. The mean and stderr
    come from the whole per-path vector, so they equal those of a single
    simulate_paths over every path, bit for bit.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {n_paths}")
    values = np.empty(n_paths)
    for first in range(0, n_paths, PATH_BLOCK):
        n = min(PATH_BLOCK, n_paths - first)
        ens = simulate_paths(params, history, policy, dt, n, seed, first_path=first)
        values[first : first + n] = objective_estimate(ens, obj).values
        del ens  # free the block before the next one is built
    mean, stderr = _mean_stderr(values)
    return MCEstimate(mean, stderr, n_paths, seed, values)


def relative_gap(v_opt: MCEstimate, v_base: MCEstimate) -> GapEstimate:
    """(v_opt - v_base)/v_opt with first-order propagated standard error;
    ConfigurationError when v_opt is 0, which leaves the gap undefined, or
    when v_opt squared, which the error divides by, is 0 or not finite."""
    square = v_opt.mean * v_opt.mean  # ** would raise OverflowError instead
    if square == 0.0 or not np.isfinite(square):
        value = f"{v_opt.mean:g}, whose square is {square:g}" if v_opt.mean else "0"
        raise ConfigurationError(
            f"the relative gap is undefined: the reference value is {value}"
        )
    gap = (v_opt.mean - v_base.mean) / v_opt.mean
    se = np.hypot(
        v_base.mean / v_opt.mean**2 * v_opt.stderr, v_base.stderr / v_opt.mean
    )
    return GapEstimate(gap=float(gap), stderr=float(se))
