"""Discrete representation of the state space R x L2([-r,0]).

A point of the space is a scalar plus a sampled segment profile on a
uniform grid over [-r, 0]; integrals are trapezoid quadratures on that
grid. Delay kernels live here too, each with an amplitude amp (any kernel
whose amp is 0 is the zero kernel): the exponential density on [-r, 0],
evaluated at any lags in [-r, 0], whose infinite decay scale is the
constant density, and the point lag amp * x(t - r). With them comes
DelayWindow, the trapezoid sum of a density over a window that slides one
time step at a time (the delay terms of the simulator and of the costate
solve). ConfigurationError, the one exception every module raises for
invalid input, is defined here, at the bottom of the import graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Invalid input: a parameter outside its range, a step that does not
    fit its span, profiles off the grid, ..."""


@dataclass(frozen=True)
class SegmentGrid:
    """Uniform grid on [-r, 0] with trapezoid quadrature weights."""

    r: float
    n_nodes: int = 201
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.r < np.inf:  # a nan fails it
            raise ConfigurationError(f"delay horizon must be finite positive, got {self.r}")
        if not self.n_nodes >= 2:
            raise ConfigurationError(f"need at least 2 nodes, got {self.n_nodes}")
        nodes = np.linspace(-self.r, 0.0, self.n_nodes)
        h = self.r / (self.n_nodes - 1)
        weights = np.full(self.n_nodes, h)
        weights[0] = weights[-1] = h / 2
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def spacing(self) -> float:
        return self.r / (self.n_nodes - 1)


@dataclass(frozen=True)
class ProfileX:
    """Element (x0, x1(.)) of R x L2([-r,0]), x1 sampled at grid nodes."""

    x0: float
    x1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.x1.ndim != 1:
            raise ConfigurationError("profile component must be a 1-d array")


def inner_product(x: ProfileX, y: ProfileX, grid: SegmentGrid) -> float:
    """<x,y> = x0*y0 + integral of x1*y1 over [-r,0] (trapezoid)."""
    if len(x.x1) != grid.n_nodes or len(y.x1) != grid.n_nodes:
        raise ConfigurationError(
            f"profile lengths {len(x.x1)}, {len(y.x1)} do not match grid "
            f"with {grid.n_nodes} nodes"
        )
    return x.x0 * y.x0 + float(np.dot(grid.weights, x.x1 * y.x1))


# --- delay kernels -----------------------------------------------------------


@dataclass(frozen=True)
class _Amplitude:
    """The amplitude amp every kernel carries; a finite one."""

    amp: float

    def __post_init__(self):
        if not np.isfinite(self.amp):
            raise ConfigurationError(f"kernel amplitude must be finite, got {self.amp}")


@dataclass(frozen=True)
class ExponentialKernel(_Amplitude):
    """amp * exp(-|xi| / decay_scale); decay_scale = inf is the constant
    density amp, bit for bit, since exp(-0.0) = 1 exactly."""

    decay_scale: float

    def __post_init__(self):
        super().__post_init__()
        if not self.decay_scale > 0:  # a nan fails it
            raise ConfigurationError(
                f"decay_scale must be positive, got {self.decay_scale}"
            )


@dataclass(frozen=True)
class PointDelay(_Amplitude):
    """The point lag amp * x(t - r): all the weight at xi = -r, no density."""


Kernel = PointDelay | ExponentialKernel


def kernel_eval(k: Kernel, xi, r: float):
    """Evaluate a kernel at lags xi in [-r, 0] (scalar or array)."""
    if isinstance(k, PointDelay):
        raise ConfigurationError(
            "a point lag has no density: it needs a kernel with one"
        )
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < -r - 1e-12 * r) or np.any(xi > 1e-12 * r):
        raise ConfigurationError(f"kernel argument outside [-{r}, 0]")
    if not isinstance(k, ExponentialKernel):
        raise TypeError(f"unknown kernel type {type(k).__name__}")
    out = k.amp * np.exp(-np.abs(xi) / k.decay_scale)
    return out if out.ndim else float(out)


def kernel_is_zero(k: Kernel) -> bool:
    return k.amp == 0.0


def _window_lags(r: float, dt: float, m: int) -> np.ndarray:
    """A window's lags -r + j*dt, j = 0..m, the newest 0.0 exactly, as it
    is by definition (-r + m*dt may miss 0 by an ulp, and a(0) with it)."""
    return np.append(-r + dt * np.arange(m), 0.0)


class DelayWindow:
    """Trapezoid sum of a density kernel over a window that slides along
    samples one time step apart (a point lag has no window: its delay
    term is the one sample amp * x_k).

    The window at step k holds m + 1 samples x_0..x_m, x_j sitting at the
    lag xi_j = -r + j*dt (_window_lags), and `values` are a(xi_j). Its sum is

        dt * sum_j a_j x_j  -  dt/2 * (a_0 x_0 + a_m x_m),

    kept as the raw sum h = sum_{j<m} a_j x_j of the m past samples; the
    caller passes the newest sample x_m to `sum`, so a predictor may stand
    in for it. The node values have a fixed ratio
    rho = a_j / a_{j+1} = exp(-dt/delta) (1 at delta = inf), so `advance`
    moves the window on in O(1):

        h' = rho * (h - a_0 x_0 + a_m x_m)

    (the linear-chain recursion, with a tail term because the window is
    finite), from the end terms of the last `sum`.

    `samples` is time-major. Without `history`, rows k..k+m form the
    window at step k: the m past samples of step 0 are its first rows.
    With a 1-d `history` of at least m samples, row k is the sample at
    step k, and the m past samples of step 0 are the history, shared by
    every column: the window's oldest sample at step k is history[k]
    while k < m, and row k - m after.

    Step 0's raw sum is taken at construction as one running sum in lag
    order per column, over the m past samples of step 0 (which must be
    filled by then): a 1-d array or a shared history has one such sum, so
    a 1-d window equals a one-column window bit for bit, and a path's sums
    do not depend on how many columns share the array. After that a 1-d
    sample array is summed in Python floats, and a 2-d array, one column
    per path, in place: `sum` returns a buffer that the next `sum`
    overwrites. While the oldest sample is the shared history's, its end
    term a_0 x_0 is one float for every column, not a column buffer. The
    rows the window reads must be filled before it reaches them. Once
    every row of a 1-d array without history is filled, `sums` gives the
    sums of all steps in one pass: the end terms as two arrays, the
    recursion in one loop over Python floats, with the operations of
    `sum` and `advance` in their order.
    """

    def __init__(
        self,
        kernel: Kernel,
        values,
        dt: float,
        samples: np.ndarray,
        history: np.ndarray | None = None,
    ):
        if isinstance(kernel, PointDelay):
            raise ConfigurationError("a point lag has no density to sum")
        self.samples, self.history = samples, history
        self.columns = samples.ndim == 2
        values = np.asarray(values, dtype=float)
        self.first = float(values[0])
        self.last = float(values[-1])
        self.m = len(values) - 1
        self.dt = dt
        self.rho = float(np.exp(-dt / kernel.decay_scale))
        # h of step 0: a running sum of its m past samples in lag order
        head = values[:-1]
        past = samples[: self.m] if history is None else history[: self.m]
        h = np.cumsum(head * past.T, axis=-1)[..., -1]
        if not self.columns:
            self.h = float(h)
            return
        n = samples.shape[1]
        self.h, self.e0_row, self.e1, self.out = (np.empty(n) for _ in range(4))
        self.h[:] = h

    def _oldest(self, k: int):
        """The oldest sample of the window at step k."""
        if self.history is None:
            return self.samples[k]
        return self.history[k] if k < self.m else self.samples[k - self.m]

    def sum(self, k: int, newest):
        """The trapezoid sum of the window at step k, whose newest sample
        is `newest`; its end terms are kept for `advance`."""
        # one float for a 1-d window, and for every column while the
        # oldest sample is the shared history's
        oldest = self._oldest(k)
        self.e0 = (self.first * float(oldest) if oldest.ndim == 0
                   else np.multiply(oldest, self.first, out=self.e0_row))
        if not self.columns:
            self.e1 = self.last * newest
            return self.dt * (self.h + 0.5 * (self.e1 - self.e0))
        out = self.out
        np.multiply(newest, self.last, out=self.e1)
        np.subtract(self.e1, self.e0, out=out)
        out *= 0.5
        out += self.h
        out *= self.dt
        return out

    def advance(self, k: int):
        """Move the window from step k to step k + 1: the oldest sample
        leaves it and the newest given to the last `sum` joins its past."""
        if not self.columns:
            self.h = self.rho * (self.h - self.e0 + self.e1)
        else:
            np.subtract(self.h, self.e0, out=self.h)
            self.h += self.e1
            self.h *= self.rho

    def sums(self, head: np.ndarray | None = None, raw: np.ndarray | None = None):
        """The sum of every step of a 1-d window without history whose rows
        are all filled, row k + m being the newest sample of step k: entry
        k equals `sum(k, samples[k + m])` followed by `advance(k)`, bit for
        bit, and the window is left where those calls leave it. The end
        terms are two arrays and the raw sums the recursion, run in one
        float loop into `raw`, one per step from start on. If rows 0..start - 1
        are zeros and values >= 0, `head` may bring the raw sums of steps
        0..start = len(head) - 1 of a window with the same rho, last value and
        newest samples: first * 0.0 is +0.0 and h - 0.0 is h, bit for bit."""
        m, rows = self.m, self.samples
        n = len(rows) - m
        head = np.array([self.h]) if head is None else head
        start = len(head) - 1
        e0, e1 = self.first * rows[start:n], self.last * rows[m:]
        raw = np.empty(n - start) if raw is None else raw
        h, rho = head.item(start), self.rho
        at = memoryview(raw)
        for k, (a, b) in enumerate(zip(memoryview(e0), memoryview(e1)[start:])):
            at[k] = h
            h = rho * (h - a + b)
        self.h, self.e0, self.e1 = h, e0.item(-1), e1.item(n - 1)
        # dt * (h + 0.5 * (e1 - e0)) of `sum`, in place
        e1[start:] -= e0
        e1 *= 0.5
        e1[:start] += head[:start]
        e1[start:] += raw
        e1 *= self.dt
        return e1
