"""Regularization schemes for the value function approximation study.

Mollified reward/cost (truncate-then-convolve for the reward, plain
convolution for the cost), a finite-difference scheme for the lifted
evolution with the rank-one perturbed diffusion, and the empirical
convergence table for the regularized objective.

The lifted scheme keeps its state node-major, one row of paths per node,
so the upwind difference is one subtract (a zero ghost row stands at
xi = -r) and y1(0) one row; a block is checked for finiteness once, after
its last step. One call steps any number of eps1 values side by side:
each path's noise is drawn once for all of them, and each value runs on
its own thread, one per usable CPU, with the bits of its own call. The
convergence table makes that one call for its eps1 list, then shares its
mollifications out over the CPUs. Paths go PATH_BLOCK and mollifier
points _CONVOLVE_ROWS at a time, so a thread's arrays fit L2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdde
from .hilbert import ProfileX, SegmentGrid, kernel_eval, kernel_is_zero
from .sdde import (
    BlowupError,
    ConfigurationError,
    _MAX_THREADS,
    ModelParams,
    Policy,
    _check_horizon,
    _mean_stderr,
    _share_out,
    _steps_of,
    open_loop_controls,
    path_normals,
)

_MOLLIFIER_POINTS = 2001
# points per (points x _MOLLIFIER_POINTS) temporary of _convolve: 256 KB
_CONVOLVE_ROWS = 16
# paths per lifted block: a group's state and work rows at 201 nodes, 0.8 MB
PATH_BLOCK = 512
# the lifted scheme's CFL bound: a step may exceed the grid spacing by at
# most this relative round-off
CFL_RTOL = 1e-12


def _finite(state) -> bool:
    # a finite sum has only finite terms; any other sum is checked entrywise
    return bool(np.isfinite(state.sum()) or np.isfinite(state).all())


def _unit_bump() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [-1, 1] and the smooth unit-mass bump zeta sampled there."""
    u = np.linspace(-1.0, 1.0, _MOLLIFIER_POINTS)
    z = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    z[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return u, z / np.trapezoid(z, u)


# the one bump every mollifier uses; eps2 only scales its support
BUMP_U, BUMP_ZETA = _unit_bump()
BUMP_DU = np.diff(BUMP_U)


def _check_eps(eps1_seq=(), eps2_seq=()):
    for e in eps1_seq:
        if not 0 <= e < np.inf:
            raise ConfigurationError(f"eps1 must be non-negative and finite, got {e}")
    for e in eps2_seq:
        if not 0 < e < np.inf:
            raise ConfigurationError(f"eps2 must be positive and finite, got {e}")


def _convolve(fn, eps2: float, eval_points):
    """(fn * zeta_eps2)(x) by quadrature: int fn(x - eps2 u) zeta(u) du.

    The points go _CONVOLVE_ROWS at a time through two buffers, so memory
    stays bounded; np.trapezoid's operations, in its order, keep each
    point's sum.
    """
    _check_eps(eps2_seq=[eps2])
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    out, shift = np.empty(len(pts)), eps2 * BUMP_U
    rows = min(_CONVOLVE_ROWS, len(pts))
    args_buf, pair_buf = np.empty((rows, len(BUMP_U))), np.empty((rows, len(BUMP_DU)))
    for i in range(0, len(pts), _CONVOLVE_ROWS):
        vals, pairs = args_buf[: len(pts) - i], pair_buf[: len(pts) - i]
        np.subtract(pts[i : i + _CONVOLVE_ROWS, None], shift, out=vals)
        np.multiply(fn(vals), BUMP_ZETA, out=vals)
        np.add(vals[:, 1:], vals[:, :-1], out=pairs)
        np.multiply(BUMP_DU, pairs, out=pairs)
        pairs /= 2.0
        np.sum(pairs, axis=1, out=out[i : i + _CONVOLVE_ROWS])
    return out


def mollify_phi(phi0, eps2: float, eval_points):
    """Truncate the reward outside [-1/eps2, 1/eps2], then mollify at
    scale eps2."""

    def truncated(x):  # called only after _convolve has checked eps2
        return np.where(np.abs(x) <= 1.0 / eps2, phi0(x), 0.0)

    return _convolve(truncated, eps2, eval_points)


def mollify_h(h0, eps2: float, eval_points):
    """Mollify the cost at scale eps2 (no truncation)."""
    return _convolve(h0, eps2, eval_points)


@dataclass(frozen=True)
class LiftedEnsemble:
    """Terminal lifted states of the perturbed evolution; a sequence of
    eps1 values puts its shape in front of both."""

    y0: np.ndarray  # (n_paths,), or (len(eps1), n_paths)
    y1: np.ndarray  # (n_paths, n_nodes), or (len(eps1), n_paths, n_nodes)


def simulate_lifted_perturbed(
    params: ModelParams,
    lifted_init: ProfileX,
    policy: Policy,
    eps1,
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

    eps1 is one value or a sequence of them, each of whose runs (a group)
    has the bits of its own call. Paths are stepped PATH_BLOCK at a time
    in preallocated buffers, so the noise takes O(PATH_BLOCK * steps)
    memory whatever the path count; a path's result does not depend on the
    count or the blocking. Each path's noise is drawn once, on the caller's
    thread, for every group: its first row drives y0, its second (drawn
    when some group is perturbed) the rank-one term. A block's groups are
    stepped on one thread per usable CPU, the caller's among them, at most
    one per group and _MAX_THREADS in all (sdde._share_out), in buffers
    allocated on the caller's thread; besides them the call holds len(eps1)
    terminal (n_paths, n_nodes) arrays. A group's state is node-major,
    (n_nodes + 2, paths): a zero ghost row for xi = -r, never written, one
    row per node and a last row for y0, updated in place (y0 last, as the y1
    source reads the old y0) and transposed once into y1 at the end of the
    block. A non-finite entry stays non-finite, so one check after the
    block's last step (a sum, and every entry only if it is not finite) sees
    every step's; a block that fails it runs again on the same noise,
    checking every step, to name the first step that failed. Every entry
    takes the same operations in the same order as on path-major rows. A
    blow-up raises the BlowupError of the first eps1 in sequence order that
    blows up, as a loop over the values would.
    """
    eps = np.asarray(eps1, dtype=float)
    groups = eps.reshape(-1)
    _check_eps(groups)
    dxi = grid.spacing
    if dt > dxi * (1 + CFL_RTOL):
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
    sig1 = groups * np.sqrt(dt)
    perturbed = (sig1 > 0) & (not kernel_is_zero(params.b1))

    m = grid.n_nodes
    y0_out = np.empty((len(groups), n_paths))
    y1_out = np.empty((len(groups), n_paths, m))
    rows = min(PATH_BLOCK, n_paths)
    workers = min(sdde._usable_cpus(), len(groups), _MAX_THREADS)
    # one thread's buffers each: the node-major state (ghost row 0, y1 at
    # node i - 1 in row i, y0 last), the step's work rows and temporaries
    state_buf = np.zeros((workers, m + 2, rows))
    work_buf = np.empty((workers, m, rows))
    drift_buf, kick_buf = (np.empty((workers, rows)) for _ in range(2))
    b1z_buf = np.empty((workers, m))
    # time-major: a step reads one row; with no group perturbed, no y1 noise
    noise_buf = np.empty((1 + perturbed.any(), steps, rows))
    b0z = (params.b0 * z).tolist()  # the bits of params.b0 * z[k]
    failed = {}  # group -> its first BlowupError, in block order

    def step_group(slot, g):
        n = noise.shape[2]
        state, work = state_buf[slot, :, :n], work_buf[slot, :, :n]
        drift, kick, b1z = drift_buf[slot, :n], kick_buf[slot, :n], b1z_buf[slot]
        behind, y1, y0 = state[:m], state[1 : m + 1], state[m + 1]
        # numpy's error state is a context variable, which a pool thread
        # does not inherit; overflow shows as a non-finite state, which
        # raises BlowupError below
        with np.errstate(over="ignore", invalid="ignore"):
            # a non-finite entry stays non-finite (each update reads its old
            # value with a nonzero factor: y1 - lam (y1 - behind), lam > 0,
            # and y0 + drift; inf - inf, 0 * inf and NaN give NaN), so one
            # check ends a block, whose re-run names the first failed step
            for every_step in (False, True):
                y0[:] = float(lifted_init.x0)
                y1[:] = np.asarray(lifted_init.x1, dtype=float)[:, None]
                for k in range(steps):
                    # drift = (a0 y0 + y1(0) + b0 z) dt, from the old y1(0)
                    np.multiply(y0, params.a0, out=drift)
                    drift += y1[-1]
                    drift += b0z[k]
                    drift *= dt

                    # y1 <- y1 - lam * upwind + dt * (a1 y0 + b1 z), from the
                    # old y0; y1(-r) minus the ghost row's 0.0 keeps its bits
                    np.subtract(y1, behind, out=work)
                    work *= lam
                    y1 -= work
                    # one multiply per entry, as a broadcast product but
                    # faster; einsum's 0 + a*b drops only the sign of a zero
                    # product, which reaches the state only through an entry
                    # that is already -0.0, and the scheme makes none itself
                    np.einsum("i,j->ij", a1v, y0, out=work)
                    np.multiply(b1v, z[k], out=b1z)
                    work += b1z[:, None]
                    work *= dt
                    y1 += work
                    if perturbed[g]:
                        np.multiply(noise[1, k], sig1[g], out=kick)
                        np.einsum("i,j->ij", b1v, kick, out=work)
                        y1 += work

                    # y0 <- y0 + drift + sig0 dW0, the row scaled by the caller
                    y0 += drift
                    y0 += noise[0, k]
                    if every_step and not _finite(state):
                        failed[g] = BlowupError(
                            f"lifted evolution lost finiteness at step {k+1}"
                        )
                        return
                if _finite(state):
                    break
        y0_out[g, first : first + n] = y0
        y1_out[g, first : first + n] = y1.T

    for first in range(0, n_paths, PATH_BLOCK):
        # a group after one that failed cannot change the error raised
        live = range(min(failed, default=len(groups)))
        if not live:
            break
        noise = noise_buf[:, :, : min(PATH_BLOCK, n_paths - first)]
        for j in range(noise.shape[2]):
            noise[:, :, j] = path_normals(seed, first + j, noise.shape[:2])
        with np.errstate(over="ignore", invalid="ignore"):
            noise[0] *= sig0  # every group reads the one scaled y0 row
        _share_out(step_group, live, min(workers, len(live)))
    if failed:
        raise failed[min(failed)]
    shape = eps.shape + (n_paths,)
    return LiftedEnsemble(y0=y0_out.reshape(shape), y1=y1_out.reshape(shape + (m,)))


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
    row reports stderr NaN: one path carries no spread information.

    Every eps is checked before the one lifted call for the whole eps1
    list. The mollifications, the control's cost at each eps2 and then the
    reward at each (eps1, eps2), are shared out over the usable CPUs, at
    most _MAX_THREADS (sdde._share_out); the rows are built in (eps1, eps2)
    order, so the first non-finite J_eps names the BlowupError."""
    _check_horizon(params, grid)
    _check_eps(eps1_seq, eps2_seq)
    t = dt * np.arange(_steps_of(params.T, dt, "T") + 1)
    z = open_loop_controls(policy, params, t, "convergence_study")
    ens = simulate_lifted_perturbed(
        params, lifted_init, policy, eps1_seq, grid, dt, n_paths, seed
    )
    # the control is shared by every path, so its cost depends on eps2 alone
    jobs = [(mollify_h, lambda x: beta * x**2, eps2, z[:-1]) for eps2 in eps2_seq]
    jobs += [(mollify_phi, lambda x: gamma * x, e, y) for y in ens.y0 for e in eps2_seq]
    done = [None] * len(jobs)

    def mollify(slot, k):
        # numpy's error state does not reach a pool thread; overflow shows
        # as a non-finite J_eps, which raises BlowupError below
        with np.errstate(over="ignore", invalid="ignore"):
            done[k] = jobs[k][0](*jobs[k][1:])

    workers = max(1, min(sdde._usable_cpus(), len(jobs), _MAX_THREADS))
    _share_out(mollify, range(len(jobs)), workers)
    terminals = iter(done[len(eps2_seq) :])
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        costs = [np.sum(c) * dt for c in done[: len(eps2_seq)]]
        for eps1 in eps1_seq:
            for eps2, cost in zip(eps2_seq, costs):
                mean, se = _mean_stderr(next(terminals) - cost)
                if not np.isfinite(mean):
                    raise BlowupError(
                        f"J_eps left the finite range at eps1={eps1}, eps2={eps2}"
                    )
                gap = abs(mean - baseline)
                rows.append(ConvergenceRow(float(eps1), float(eps2), mean, se, gap))
    return rows
