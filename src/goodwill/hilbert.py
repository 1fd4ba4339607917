"""Discrete representation of the state space R x L2([-r,0]).

A point of the space is a scalar plus a sampled segment profile on a
uniform grid over [-r, 0]; integrals are trapezoid quadratures on that
grid. Delay kernels (zero / constant / exponential / sampled) live here
too: each is a function of the lag on [-r, 0], evaluated given only the
horizon r, whatever grid the caller samples it on. With them come
DelaySum, their trapezoid sum over a window that slides one time step
at a time, and the partial order used by the monotonicity checks.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class SampledKernel:
    """Values at equally spaced lags from -r to 0, the first at -r."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise DimensionError("a sampled kernel needs a 1-d array of 2+ values")


Kernel = ZeroKernel | ConstantKernel | ExponentialKernel | SampledKernel


def kernel_eval(k: Kernel, xi, r: float):
    """Evaluate a kernel at lags xi in [-r, 0] (scalar or array).

    A sampled kernel holds its values at len(values) equally spaced lags
    from -r to 0 and is linearly interpolated between them.
    """
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
    if isinstance(k, ExponentialKernel):
        return k.amp == 0.0
    if isinstance(k, SampledKernel):
        return bool(np.all(k.values == 0.0))
    return False


def check_kernel_nonneg(k: Kernel, name: str):
    """Raise ValueError unless the kernel is non-negative on [-r, 0]."""
    if isinstance(k, ConstantKernel) and k.c < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, ExponentialKernel) and k.amp < 0:
        raise ValueError(f"{name} must be non-negative")
    if isinstance(k, SampledKernel) and np.any(k.values < 0):
        raise ValueError(f"{name} must be non-negative at every node")


class DelaySum:
    """Trapezoid sum of a kernel against samples one time step apart.

    The window at a step holds the samples x_0..x_m at the lags
    xi_j = -r + j*dt, and `values` are a(xi_j). The sum

        dt * sum_j a_j x_j  -  dt/2 * (a_0 x_0 + a_m x_m)

    is kept as the raw sum H = sum_{j<m} a_j x_j of the m past samples;
    the caller supplies the newest sample x_m to `at`, so a predictor may
    stand in for it. When the node values have a fixed ratio
    rho = a_j / a_{j+1} (rho = exp(-dt/delta) for an exponential kernel,
    1 for a constant one), moving the window one step on costs O(1):

        H' = rho * (H - a_0 x_0 + a_m x_m)

    (the linear-chain recursion, with a tail term because the window is
    finite). A sampled kernel has no such ratio and re-sums its window.
    Samples may be arrays (one entry per path) or scalars.
    """

    def __init__(self, kernel: Kernel, values: np.ndarray, dt: float):
        self.values = np.asarray(values, dtype=float)
        self.dt = dt
        self.first = float(self.values[0])
        self.last = float(self.values[-1])
        if isinstance(kernel, ExponentialKernel):
            self.rho = float(np.exp(-dt / kernel.decay_scale))
        elif isinstance(kernel, ConstantKernel):
            self.rho = 1.0
        else:
            self.rho = None

    def start(self, past):
        """H of a window whose m past samples are the rows of `past`
        (oldest first); a 2-D past gives one H per column (per path)."""
        return self.values[:-1] @ past

    def at(self, h, oldest, newest):
        """The trapezoid sum of the window with raw past sum h."""
        return self.dt * (h + 0.5 * (self.last * newest - self.first * oldest))

    def slide(self, h, oldest, newest, past):
        """H one step on: `oldest` leaves the window and `newest` joins its
        past; `past` is the new window's past, read only without a ratio."""
        if self.rho is None:
            return self.start(past)
        return self.rho * (h - self.first * oldest + self.last * newest)


def kernel_to_json(k: Kernel) -> str:
    if isinstance(k, ZeroKernel):
        obj = {"type": "zero"}
    elif isinstance(k, ConstantKernel):
        obj = {"type": "constant", "c": k.c}
    elif isinstance(k, ExponentialKernel):
        obj = {"type": "exponential", "amp": k.amp, "delta": k.decay_scale}
    elif isinstance(k, SampledKernel):
        obj = {"type": "sampled", "values": list(k.values)}
    else:
        raise TypeError(f"unknown kernel type {type(k).__name__}")
    return json.dumps(obj)


def kernel_from_json(s: str) -> Kernel:
    obj = json.loads(s)
    t = obj.get("type")
    if t == "zero":
        return ZeroKernel()
    if t == "constant":
        return ConstantKernel(float(obj["c"]))
    if t == "exponential":
        return ExponentialKernel(float(obj["amp"]), float(obj["delta"]))
    if t == "sampled":
        return SampledKernel(np.asarray(obj["values"], dtype=float))
    raise ValueError(f"unknown kernel tag {t!r}")
