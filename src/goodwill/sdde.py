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
behind, or of the history sample while t < r: a window's oldest sample
(hilbert._delayed). Open-loop and feedback policies share one step loop
over time-major rows (one row per step, one column per path); an
open-loop control is one number per step, shared by every path, so its
drift terms are taken once per call as one float per step. The loop and
the windows fill preallocated per-path buffers in place; only a feedback
policy's control and its clip count make per-step arrays. Each path draws
its noise from a Philox stream keyed by (seed, path index), and every
per-path sum runs in an order that does not depend on how many paths
share an array, so a path's result is bit-identical whatever the path
count, blocking or scheduling.

simulate_paths keeps steps + 1 = T/dt + 1 rows of states, and of controls
under feedback; asked for the terminal record only, a feedback run whose
b1 is zero keeps one control row, reused every step. The initial datum is
the same for every path, so the m = r/dt history samples a delay term
reads before t = r are one array, shared by every path, not rows copied
into each path. Each path's noise substream is drawn whole (the ziggurat
takes a variable number of Philox words per normal, so a later time chunk
has no known counter to start from) and copied into the state rows it
perturbs, so the noise needs no array of its own beyond the runs of paths
in flight, 64 paths in all. One fill function draws it on one thread per
usable CPU, the caller's among them, at most one per 64-path chunk and 8
in all (numpy's normal draw releases the GIL); each claim of a thread is
one path_normals call for a run of columns, which checks the key once,
re-keys the thread's one generator (built at its first draw, so importing
the module loads no numpy.random) per path in place and draws each path
straight into its row of the run. Neither the bits nor the memory depend
on the CPU count. There is no option for it. relative_gap pairs the
per-path values of two such runs, which share their noise paths.
evaluate_policy simulates PATH_BLOCK (2048) paths at a time and keeps
only each path's objective, so its memory is O(PATH_BLOCK * steps + m)
whatever the path count; state_delay.simulate_feedback blocks the same
way with terminal records, so it keeps y(T), z(T) and the clip count,
and one control row per block. A feedback policy's control_fn is then
called on one block of states at a time, so it must act path-wise: the
control of a path may depend on that path's state only.
"""

from __future__ import annotations

import operator
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
    _delayed,
    _window_lags,
    kernel_eval,
    kernel_is_zero,
)

BLOWUP_LIMIT = 1e12
# evaluate_policy and state_delay.simulate_feedback simulate this many
# paths at a time
PATH_BLOCK = 2048
_MAX_THREADS = 8  # the most threads of any thread pool in this package
# simulate_paths draws the noise of at most _NOISE_CHUNK paths at a time,
# split among its threads, each of which takes at least _NOISE_LINE
# paths (one 64-byte cache line of a state row)
_NOISE_LINE = 8
_NOISE_CHUNK = _MAX_THREADS * _NOISE_LINE
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


_THREAD = threading.local()


def _thread_generator():
    """This thread's one generator and the state of its Philox(0) at
    counter 0, built at the thread's first draw, so that importing the
    package loads no numpy.random. path_normals re-keys that state to
    [seed, path_index] and hands it back before each path, which gives
    the bits of a fresh Generator(Philox(key=[seed, path_index])) and
    builds no generator or state per path. The kept state holds Python
    ints, not numpy arrays, which the state setter reads more than twice
    as fast."""
    if not hasattr(_THREAD, "generator"):
        generator = np.random.Generator(np.random.Philox(0))
        state = generator.bit_generator.state
        _THREAD.generator, _THREAD.state = generator, {
            **state,
            "state": {name: words.tolist() for name, words in state["state"].items()},
            "buffer": state["buffer"].tolist(),
        }
    return _THREAD.generator, _THREAD.state


def _integer(value, name: str) -> int:
    """value as a Python int; ConfigurationError unless it is an integer
    (a numpy one too), since a float would key the stream of its truncation."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed) -> int:
    """The seed as a Python int. Refuse a seed that is not an integer in
    [-2**63, 2**63): the Philox key holds it as a uint64, onto which this
    range maps one to one."""
    seed = _integer(seed, "seed")
    if not -(2**63) <= seed < 2**63:
        raise ConfigurationError(f"seed must be in [-2**63, 2**63), got {seed}")
    return seed


def path_normals(
    seed: int, path_index: int, shape, n_paths: int | None = None
) -> np.ndarray:
    """Noise increments for one path from a counter-based substream, or
    with n_paths = n for the run of paths path_index .. path_index + n - 1
    as one (n, *shape) array whose row j is path path_index + j's draw.
    The key is checked once per call. The kept state's two key words are
    set in place from Python ints, the seed as the uint64 it is congruent
    to, so a numpy integer of any kind keys the stream its value names; a
    key that is not an integer is refused. Each path is drawn straight
    into its row, so a run builds no array per path."""
    seed = _check_seed(seed)
    path_index = _integer(path_index, "path_index")
    if not 0 <= path_index < 2**63:
        raise ConfigurationError(f"path_index must be in [0, 2**63), got {path_index}")
    run = 1 if n_paths is None else _integer(n_paths, "n_paths")
    if run < 1:
        raise ConfigurationError(f"n_paths must be at least 1, got {run}")
    if path_index + run > 2**63:
        raise ConfigurationError(
            f"path_index + n_paths must be at most 2**63, got {path_index + run}"
        )
    generator, kept = _thread_generator()
    bits, key = generator.bit_generator, kept["state"]["key"]
    key[0] = seed & (2**64 - 1)
    out = np.empty((run, *(shape if np.iterable(shape) else (shape,))))
    # standard_normal fills its output in C order, so a flat row holds
    # the bits of a draw of any shape
    for j, row in enumerate(out.reshape(run, -1)):
        key[1] = path_index + j
        bits.state = kept  # copied, so it stays at 0
        generator.standard_normal(out=row)
    return out[0] if n_paths is None else out


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share_out(work, items, workers: int):
    """Call work(slot, item) for every item on `workers` threads, the
    caller's (slot 0) among them, each of which claims the next item under a
    lock until none is left. A failure stops the claiming, and the earliest
    item's failure is raised, as a loop over the items would raise it."""
    from concurrent.futures import ThreadPoolExecutor

    unclaimed, lock, failures = iter(enumerate(items)), threading.Lock(), {}

    def run(slot):
        while True:
            with lock:
                claim = None if failures else next(unclaimed, None)
            if claim is None:
                return
            try:
                work(slot, claim[1])
            except BaseException as exc:
                failures[claim[0]] = exc

    # threads start per task, and leaving the block joins them
    with ThreadPoolExecutor(workers) as pool:
        for slot in range(1, workers):
            pool.submit(run, slot)
        run(0)
    if failures:
        raise failures[min(failures)]


def _fill_noise(rows, seed, first_path, scale):
    """Put scale * path_normals(seed, first_path + j, steps) into column j
    of rows (time-major), on one thread per usable CPU, the caller's among
    them, at most one per _NOISE_CHUNK paths and _MAX_THREADS in all
    (_share_out), so a thread slowed by a busy CPU claims fewer. Each claim
    is a run of columns, whole cache lines (a multiple of _NOISE_LINE
    paths) when more than one thread draws, taken by one path_normals call
    into a path-major array, scaled there in place and copied into its
    columns once (a column at a time would write a cache line per
    number). Neither pass is buffered: one multiply of the transposed run
    into the columns would make the ufunc buffer both layouts, 128 KB a
    claim, and runs slower. The threads' runs in flight hold _NOISE_CHUNK
    paths at most, so memory does not grow with the CPU count."""
    steps, n_paths = rows.shape
    workers = min(_usable_cpus(), -(-n_paths // _NOISE_CHUNK), _MAX_THREADS)
    width = min(_NOISE_CHUNK // workers // _NOISE_LINE * _NOISE_LINE, n_paths)

    def draw(slot, first):
        n = min(width, n_paths - first)
        chunk = path_normals(seed, first_path + first, steps, n)
        chunk *= scale
        rows[:, first : first + n] = chunk.T

    _share_out(draw, range(0, n_paths, width), workers)


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
    (n_paths, steps) array of its own, only the runs of at most 64 paths
    that the fill threads draw at a time. An open-loop policy's drift terms,
    b0 z(t_k) and the b1 term (one DelayWindow.sums pass for a density),
    are one float per step, taken before the step loop with the bits of
    the per-step multiply and window.

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
    xi = _window_lags(params.r, dt, m)
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
    # history; a nonzero point lag's term is amp * x(t_k - r). Every path
    # shares an open-loop control: its terms are one float per step, the
    # b1 term read from the history and control, z(t_k - r) at entry k
    z_rows, z_hist = (z, hist_z) if feedback else (np.concatenate([hist_z[:m], z]), None)
    win_a, win_b = (
        None if kernel_is_zero(k) or isinstance(k, PointDelay)
        else DelayWindow(k, kernel_eval(k, xi, params.r), dt, rows, hist)
        for k, rows, hist in ((params.a1, y, hist_y), (params.b1, z_rows, z_hist))
    )
    lag_a, lag_b = (
        k.amp if isinstance(k, PointDelay) and not kernel_is_zero(k) else None
        for k in (params.a1, params.b1)
    )
    if not feedback:
        zterms = [z * params.b0]
        if win_b is not None:
            zterms.append(win_b.sums())
        elif lag_b is not None:
            zterms.append(z_rows[: steps + 1] * lag_b)
        zterms = list(zip(*(terms.tolist() for terms in zterms)))

    # per-step buffers, filled in place
    drift, term = np.empty(n_paths), np.empty(n_paths)
    for k in range(steps + 1):
        ycur = y[k]
        if feedback:
            zcur = z[k % len(z)]
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
            drift += np.multiply(_delayed(y, hist_y, k, m), lag_a, out=term)
        if feedback:
            drift += np.multiply(zcur, params.b0, out=term)
            if win_b is not None:
                drift += win_b.sum(k, zcur)
                win_b.advance(k)
            elif lag_b is not None:
                drift += np.multiply(_delayed(z, hist_z, k, m), lag_b, out=term)
        else:
            for zterm in zterms[k]:
                drift += zterm
        drift *= dt
        drift += ycur
        # the noise already in the new row joins y + drift (+ commutes,
        # so the bits are those of (y + drift) + noise)
        ynew = y[k + 1]
        ynew += drift
        # no rounding takes a sum of squares with a term above the limit's
        # square below a quarter of it (vdot, unlike dot, does not warn
        # when a square overflows); maximum propagates NaN
        if not (np.vdot(ynew, ynew) < 0.25 * BLOWUP_LIMIT**2
                or np.maximum.reduce(np.abs(ynew, out=term)) <= BLOWUP_LIMIT):
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
    """(v_opt - v_base)/v_opt with its first-order (delta-method) standard
    error; ConfigurationError when v_opt is 0, which leaves the gap
    undefined, or when v_opt squared is 0 or not finite.

    When both estimates carry per-path values of one length, path i of
    each is taken as a pair (evaluate_policy runs path i of any policy on
    substream (seed, i): common random numbers), and the stderr is that
    of the mean of psi_i = ((x_i - x)*y/x - (y_i - y))/x, x and y being
    the means of v_opt and v_base. For independent runs it estimates the
    same error as the unpaired formula; runs that share their noise get
    the far smaller error that they have. Estimates of unequal length, or
    without values, combine their two stderrs as if independent."""
    x, y = v_opt.mean, v_base.mean
    square = x * x  # ** would raise OverflowError instead
    if square == 0.0 or not np.isfinite(square):
        value = f"{x:g}, whose square is {square:g}" if x else "0"
        raise ConfigurationError(
            f"the relative gap is undefined: the reference value is {value}"
        )
    gap = (x - y) / x
    xs, ys = v_opt.values, v_base.values
    if xs is not None and ys is not None and len(xs) == len(ys):
        _, se = _mean_stderr(((xs - x) * (y / x) - (ys - y)) / x)
    else:
        se = np.hypot(y / x**2 * v_opt.stderr, v_base.stderr / x)
    return GapEstimate(gap=float(gap), stderr=float(se))
