"""Discrete representation of the state space R x L2([-r,0]).

A point of the space is a scalar plus a sampled segment profile on a
uniform grid over [-r, 0]; integrals are trapezoid quadratures on that
grid. Delay kernels live here too: zero, constant, exponential and
sampled densities on [-r, 0], evaluated given only the horizon r whatever
grid the caller samples them on, and the point lag amp * x(t - r). With
them come DelayWindow, their trapezoid sum over a window that slides one
time step at a time (the delay terms of the simulator and of the costate
solve), and the partial order used by the monotonicity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Profiles or kernels defined on incompatible grids."""


class DomainError(ValueError):
    """Argument outside the interval the object is defined on."""


@dataclass(frozen=True)
class SegmentGrid:
    """Uniform grid on [-r, 0] with trapezoid quadrature weights."""

    r: float
    n_nodes: int = 201
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"delay horizon must be positive, got {self.r}")
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
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
            raise DimensionError("profile component must be a 1-d array")


def zero_profile(grid: SegmentGrid) -> ProfileX:
    return ProfileX(0.0, np.zeros(grid.n_nodes))


def profile_from_callable(x0: float, f, grid: SegmentGrid) -> ProfileX:
    return ProfileX(x0, np.asarray(f(grid.nodes), dtype=float))


def _check_same_grid(x: ProfileX, y: ProfileX, grid: SegmentGrid):
    if len(x.x1) != grid.n_nodes or len(y.x1) != grid.n_nodes:
        raise DimensionError(
            f"profile lengths {len(x.x1)}, {len(y.x1)} do not match grid "
            f"with {grid.n_nodes} nodes"
        )


def inner_product(x: ProfileX, y: ProfileX, grid: SegmentGrid) -> float:
    """<x,y> = x0*y0 + integral of x1*y1 over [-r,0] (trapezoid)."""
    _check_same_grid(x, y, grid)
    return x.x0 * y.x0 + float(np.dot(grid.weights, x.x1 * y.x1))


def norm(x: ProfileX, grid: SegmentGrid) -> float:
    return float(np.sqrt(inner_product(x, x, grid)))


def order_leq(x: ProfileX, y: ProfileX) -> bool:
    """Nodewise partial order: x <= y iff x0 <= y0 and x1 <= y1 at every node."""
    if len(x.x1) != len(y.x1):
        raise DimensionError("profiles on different grids are incomparable")
    return bool(x.x0 <= y.x0 and np.all(x.x1 <= y.x1))


# --- delay kernels -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroKernel:
    pass


@dataclass(frozen=True)
class ConstantKernel:
    c: float


@dataclass(frozen=True)
class ExponentialKernel:
    """amp * exp(-|xi| / decay_scale)."""

    amp: float
    decay_scale: float

    def __post_init__(self):
        if self.decay_scale <= 0:
            raise ValueError(f"decay_scale must be positive, got {self.decay_scale}")


@dataclass(frozen=True, eq=False)
class SampledKernel:
    """Values at equally spaced lags from -r to 0, the first at -r.

    The kernel keeps a read-only copy of the values, and compares and
    hashes by their shape and bytes, so a model holding it can key a
    cache like any other kernel.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 2:
            raise DimensionError("a sampled kernel needs a 1-d array of 2+ values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, SampledKernel):
            return NotImplemented
        return (
            self.values.shape == other.values.shape
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash((self.values.shape, self.values.tobytes()))


@dataclass(frozen=True)
class PointDelay:
    """The point lag amp * x(t - r): all the weight at xi = -r, no density."""

    amp: float


Kernel = PointDelay | ZeroKernel | ConstantKernel | ExponentialKernel | SampledKernel


def kernel_eval(k: Kernel, xi, r: float):
    """Evaluate a kernel at lags xi in [-r, 0] (scalar or array).

    A sampled kernel holds its values at len(values) equally spaced lags
    from -r to 0 and is linearly interpolated between them.
    """
    if isinstance(k, PointDelay):
        raise ValueError("a point lag has no density: it needs a kernel with one")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < -r - 1e-12 * r) or np.any(xi > 1e-12 * r):
        raise DomainError(f"kernel argument outside [-{r}, 0]")
    if isinstance(k, ZeroKernel):
        out = np.zeros_like(xi)
    elif isinstance(k, ConstantKernel):
        out = np.full_like(xi, k.c)
    elif isinstance(k, ExponentialKernel):
        out = k.amp * np.exp(-np.abs(xi) / k.decay_scale)
    elif isinstance(k, SampledKernel):
        out = np.interp(xi, np.linspace(-r, 0.0, len(k.values)), k.values)
    else:
        raise TypeError(f"unknown kernel type {type(k).__name__}")
    return out if out.ndim else float(out)


def kernel_is_zero(k: Kernel) -> bool:
    if isinstance(k, ZeroKernel):
        return True
    if isinstance(k, ConstantKernel):
        return k.c == 0.0
    if isinstance(k, (ExponentialKernel, PointDelay)):
        return k.amp == 0.0
    if isinstance(k, SampledKernel):
        return bool(np.all(k.values == 0.0))
    return False


def check_kernel_nonneg(k: Kernel, name: str):
    """Raise ValueError unless the kernel is non-negative on [-r, 0]."""
    if isinstance(k, ConstantKernel) and k.c < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, (ExponentialKernel, PointDelay)) and k.amp < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, SampledKernel) and np.any(k.values < 0):
        raise ValueError(f"{name} must be non-negative at every node")


class DelayWindow:
    """Trapezoid sum of a kernel over a window that slides along samples
    one time step apart.

    `samples` is time-major: rows k..k+m form the window at step k, row
    k + j sitting at the lag xi_j = -r + j*dt, and `values` are a(xi_j).
    The sum at step k is

        dt * sum_j a_j x_j  -  dt/2 * (a_0 x_0 + a_m x_m),

    kept as the raw sum h = sum_{j<m} a_j x_j of the m past rows; the
    caller passes the newest sample x_m to `sum`, so a predictor may stand
    in for row k + m. When the node values have a fixed ratio
    rho = a_j / a_{j+1} (rho = exp(-dt/delta) for an exponential kernel,
    1 for a constant one), `advance` moves the window on in O(1):

        h' = rho * (h - a_0 x_0 + a_m x_m)

    (the linear-chain recursion, with a tail term because the window is
    finite), from the end terms of the last `sum`. A sampled kernel has
    no such ratio and re-sums its window in lag order. A point lag is the
    one-sample window amp * x_k (row k, at lag -r): it takes no node
    values (None) and has nothing to advance.

    A 1-d sample array is summed in Python floats. A 2-d array holds one
    column per path and is summed in place, each column in lag order, so
    a path's sums do not depend on how many columns share the array: a
    BLAS gemv regroups its sums by the column count, and einsum sums a
    lone column as a SIMD dot, so that column goes through a running sum
    instead. `sum` then returns a buffer that the next `sum` overwrites.
    The rows the window reads must be filled before it reaches them; the
    m past rows of step 0 are summed at construction. Once every row of a
    1-d array is filled, `sums` gives the sums of all steps in one pass:
    the end terms as two arrays, the recursion in one loop over Python
    floats, with the operations of `sum` and `advance` in their order.
    """

    def __init__(self, kernel: Kernel, values, dt: float, samples: np.ndarray):
        self.samples = samples
        self.columns = samples.ndim == 2
        self.point = kernel.amp if isinstance(kernel, PointDelay) else None
        if self.point is not None:
            self.m = 0  # no past rows: the window is the one row k
            self.out = np.empty(samples.shape[1]) if self.columns else None
            return
        values = np.asarray(values, dtype=float)
        self.head = values[:-1]
        self.first = float(values[0])
        self.last = float(values[-1])
        self.m = len(values) - 1
        self.dt = dt
        if isinstance(kernel, ExponentialKernel):
            self.rho = float(np.exp(-dt / kernel.decay_scale))
        elif isinstance(kernel, ConstantKernel):
            self.rho = 1.0
        else:
            self.rho = None
        if self.columns:
            n = samples.shape[1]
            self.h, self.e0, self.e1, self.out = (np.empty(n) for _ in range(4))
        self._resum(0)

    def _resum(self, k: int):
        """h of the window at step k, summed over its past rows."""
        past = self.samples[k : k + self.m]
        if not self.columns:
            self.h = float(self.head @ past)
        elif past.shape[1] == 1:
            self.h[0] = np.cumsum(self.head * past[:, 0])[-1]
        else:
            np.einsum("j,ji->i", self.head, past, out=self.h)

    def sum(self, k: int, newest):
        """The trapezoid sum of the window at step k, whose newest sample
        is `newest`; its end terms are kept for `advance`."""
        if self.point is not None:
            return np.multiply(self.samples[k], self.point, out=self.out)
        if not self.columns:
            self.e0 = self.first * self.samples.item(k)
            self.e1 = self.last * newest
            return self.dt * (self.h + 0.5 * (self.e1 - self.e0))
        out = self.out
        np.multiply(self.samples[k], self.first, out=self.e0)
        np.multiply(newest, self.last, out=self.e1)
        np.subtract(self.e1, self.e0, out=out)
        out *= 0.5
        out += self.h
        out *= self.dt
        return out

    def advance(self, k: int):
        """Move the window from step k to step k + 1: the oldest sample
        leaves it and the newest given to the last `sum` joins its past,
        so that sample must by now be row k + m (a sampled kernel reads it
        from there)."""
        if self.point is not None:
            return
        if self.rho is None:
            self._resum(k + 1)
        elif not self.columns:
            self.h = self.rho * (self.h - self.e0 + self.e1)
        else:
            np.subtract(self.h, self.e0, out=self.h)
            self.h += self.e1
            self.h *= self.rho

    def sums(self) -> np.ndarray:
        """The sum of every step of a 1-d window whose rows are all filled,
        row k + m being the newest sample of step k (a point lag's window
        is its one row k): entry k equals `sum(k, samples[k + m])` followed
        by `advance(k)`, bit for bit, and the window is left where those
        calls leave it. The recursion takes its end terms as two arrays and
        runs in one float loop; a sampled kernel or a point lag goes step
        by step."""
        m = self.m
        n = len(self.samples) - m
        if self.point is not None or self.rho is None:
            out = np.empty(n)
            for k in range(n):
                out[k] = self.sum(k, self.samples.item(k + m))
                self.advance(k)
            return out
        e0 = self.first * self.samples[:n]
        e1 = self.last * self.samples[m:]
        raw = np.empty(n)
        at = memoryview(raw)
        h, rho = self.h, self.rho
        for k, (a, b) in enumerate(zip(memoryview(e0), memoryview(e1))):
            at[k] = h
            h = rho * (h - a + b)
        self.h, self.e0, self.e1 = h, a, b
        # dt * (h + 0.5 * (e1 - e0)) of `sum`, in place
        e1 -= e0
        e1 *= 0.5
        e1 += raw
        e1 *= self.dt
        return e1
