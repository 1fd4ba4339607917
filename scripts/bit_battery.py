"""Print one SHA-256 per group of goodwill's numerical outputs.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/bit_battery.py

Each line is a group name and the hash of every float it covers, over a
few kernel settings at the shipped defaults:

    costate      lq.solve_costate: w0, <B, w> and c
    delay_ode    lifting.solve_delay_ode: times and trajectory
    paths        sdde.simulate_paths: a small ensemble's y and z
    lifted       approximation.simulate_lifted_perturbed: y0 and y1
    convergence  approximation.convergence_study: every row's fields
    bounded      lq.solve_costate and lq.optimal_policy_lq with a control
                 bound that binds: w0, <B, w>, c and z*
    feedback     state_delay.feedback_quadratic and feedback_bangbang over
                 a d0v grid through 0 and the switch point beta/b0 for
                 three specs, the bang-bang tie_value at that point, and a
                 64-path state_delay.simulate_feedback ensemble's y(T),
                 z(T) and clip count
    lags         sdde.simulate_paths with a point a1, a point b1 and both:
                 64-path ensembles' y, z and clip count under the memoryless
                 open-loop policy and under a feedback policy that clips
    exact        the shipped model with no Monte Carlo: lq.trajectory_mean
                 under the memoryless policy and lq.trajectory_variance for
                 each single churn, lq.value_lq at the lifted default state,
                 and cli._sensitivity_at over the shipped r-grid at a1 = 0
    blocks       PATH_BLOCK + 3 paths, so the first block's noise is drawn
                 on up to 8 threads and a second block follows:
                 sdde.evaluate_policy's per-path values under z* and the
                 memoryless policy, and state_delay.simulate_feedback's
                 y(T), z(T) and clip count
    windows      sdde.simulate_paths for every pair of the density kernels
                 a1 and b1 under lags' clipping feedback policy, so the b1
                 window runs over one control column per path: 64-path
                 ensembles' y, z and clip count

A change that keeps the bits prints the same lines as its parent; two runs
of one tree always print the same lines, on any number of CPUs. The run
takes about a second on a 2-vCPU host.

Golden bits: scripts/bit_battery.txt holds the lines that this script
prints with numpy's dispatched SIMD kernels and OpenBLAS's kernel pinned,

    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
    OPENBLAS_CORETYPE=Prescott OPENBLAS_NUM_THREADS=1 \
        PYTHONPATH=src python3 scripts/bit_battery.py

under the numpy, Python and glibc that the file's first line names. Both
pins matter: costate, paths, bounded, feedback, lags, blocks and windows
follow numpy's dispatch, and lifted, convergence and exact also follow the
BLAS kernel, because lift_M's np.convolve sums through OpenBLAS ddot;
delay_ode follows neither. To check a tree, diff the pinned run against
the file's lines after the first:

    diff <(tail -n +2 scripts/bit_battery.txt) <(pinned run as above)

A change that moves bits on purpose regenerates the file in the same
change (the first line, then the pinned run's lines) and says why.
"""

from __future__ import annotations

import hashlib

import numpy as np

from goodwill import approximation, cli, lifting, lq, sdde, state_delay
from goodwill.hilbert import (
    ConstantKernel,
    ExponentialKernel,
    PointDelay,
    SegmentGrid,
)

CFG = cli.load_defaults()
GAMMA, BETA, SEED = CFG["gamma"], CFG["beta"], CFG["seed"]
GRID = SegmentGrid(CFG["r"], 51)
A1 = (ConstantKernel(0.0), ConstantKernel(-1.0), ExponentialKernel(-5.0, 1 / 6))
B1 = (ConstantKernel(0.0), ConstantKernel(2.0), ExponentialKernel(5.0, 0.5))
DT = 4e-3  # below the grid spacing 1e-2, as the lifted scheme needs


def params(a1, b1, **bounds) -> sdde.ModelParams:
    bounds = {"u_min": CFG["u_min"], "u_max": CFG["u_max"], **bounds}
    return sdde.ModelParams(
        a0=CFG["a0"], a1=a1, b0=CFG["b0"], b1=b1, sigma=CFG["sigma"],
        r=CFG["r"], T=CFG["T"], **bounds,
    )


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def costate():
    for a1 in A1:
        for b1 in B1:
            cs = lq.solve_costate(params(a1, b1), GAMMA, BETA, 1e-3)
            yield from (cs.w0, cs.bw, cs.c)


def delay_ode():
    x1 = np.exp(GRID.nodes)
    for delay in (*A1, PointDelay(-1.0)):
        problem = lifting.DelayODEProblem(CFG["a0"], delay, 1.0, x1, GRID, CFG["T"])
        yield from lifting.solve_delay_ode(problem, 1e-3)


def paths():
    history = cli.build_history(CFG, GRID)
    for a1, b1 in zip(A1, B1):
        p = params(a1, b1)
        ens = sdde.simulate_paths(
            p, history, lq.memoryless_policy(p, GAMMA, BETA), 0.01, 64, SEED
        )
        yield from (ens.y, ens.z)


def lifted_inputs(a1, b1):
    """Parameters, lifted initial state and optimal policy of one setting."""
    p = params(a1, b1)
    h = cli.build_history(CFG, GRID)
    policy = lq.optimal_policy_lq(lq.solve_costate(p, GAMMA, BETA, DT), p)
    return p, lifting.lift_M(h.x0, h.x1, h.delta, p, GRID), policy


def lifted():
    for a1 in A1:
        for b1 in B1:
            p, x, policy = lifted_inputs(a1, b1)
            for eps1 in (0.0, 0.3):
                ens = approximation.simulate_lifted_perturbed(
                    p, x, policy, eps1, GRID, DT, 32, SEED
                )
                yield from (ens.y0, ens.y1)


def convergence():
    p, x, policy = lifted_inputs(A1[2], B1[2])
    rows = approximation.convergence_study(
        p, x, policy, GAMMA, BETA, 0.0, (0.0, 0.1), (0.4, 0.2, 0.1, 0.05),
        GRID, DT, 64, SEED,
    )
    yield np.array([[r.eps1, r.eps2, r.j_eps, r.stderr, r.gap] for r in rows])


def bounded():
    for bounds in ({"u_max": 0.5}, {"u_max": 1.2}, {"u_min": 2.5}):
        for a1 in A1:
            for b1 in B1:
                p = params(a1, b1, **bounds)
                cs = lq.solve_costate(p, GAMMA, BETA, 1e-3)
                yield from (cs.w0, cs.bw, cs.c, lq.optimal_policy_lq(cs, p).z)


def feedback():
    # (beta, b0, sigma, R): the shipped model; one where beta/b0 and
    # beta * (1/b0) differ in the last bit (0.6, 0.7); a tight control set
    specs = (
        (BETA, CFG["b0"], CFG["sigma"], CFG["u_max"]), (0.6, 0.7, 0.3, 2.0),
        (2.0, 1.5, 1.0, 0.25),
    )
    for beta, b0, sigma, R in specs:
        quad = state_delay.HamiltonianSpec("quadratic", beta, b0, sigma, R)
        lin = state_delay.HamiltonianSpec("linear", beta, b0, sigma, R)
        switch = beta / b0
        d0v = np.concatenate(
            [np.linspace(-3.0, 3.0, 61) * switch, [0.0, switch, 2 * beta * R / b0]]
        )
        yield state_delay.feedback_quadratic(d0v, quad)
        yield state_delay.feedback_bangbang(d0v, lin, tie_value=0.5 * R)
        yield state_delay.feedback_bangbang(switch, lin, tie_value=0.25 * R)
    p = params(ConstantKernel(0.0), ConstantKernel(0.0))
    spec = state_delay.HamiltonianSpec("quadratic", BETA, p.b0, p.sigma, 2.0)
    policy = state_delay.quadratic_feedback_policy(spec, lambda t, y: 3.0 - 0.2 * y)
    ens = state_delay.simulate_feedback(
        p, -1.0, cli.build_history(CFG, GRID), policy, 0.01, 64, SEED
    )
    yield from (ens.y, ens.z, [ens.clip_count])


# clips below at 0 and above at u_max = 2.5, path by path
CLIPPING = sdde.FeedbackPolicy(lambda t, y: 3.0 * np.cos(2.0 * y))


def lags():
    history = cli.build_history(CFG, GRID)
    zero, a1, b1 = ConstantKernel(0.0), PointDelay(-1.0), PointDelay(2.0)
    for pair in ((a1, zero), (zero, b1), (a1, b1)):
        p = params(*pair, u_max=2.5)
        for policy in (lq.memoryless_policy(p, GAMMA, BETA), CLIPPING):
            ens = sdde.simulate_paths(p, history, policy, 0.01, 64, SEED)
            yield from (ens.y, ens.z, [ens.clip_count])


def windows():
    history = cli.build_history(CFG, GRID)
    for a1 in A1:
        for b1 in B1:
            p = params(a1, b1, u_max=2.5)
            ens = sdde.simulate_paths(p, history, CLIPPING, 0.01, 64, SEED)
            yield from (ens.y, ens.z, [ens.clip_count])


def exact():
    # the shipped model, as the CLI builds it: no Monte Carlo anywhere
    grid = SegmentGrid(CFG["r"], CFG["n_nodes"])
    h, dt = cli.build_history(CFG, grid), CFG["dt"]
    for a1_amp, b1_amp in ((CFG["a1_amp"], 0.0), (0.0, CFG["b1_amp"])):
        p = cli.build_params(CFG, a1_amp=a1_amp, b1_amp=b1_amp)
        x = lifting.lift_M(h.x0, h.x1, h.delta, p, grid)
        zmem = lq.memoryless_policy(p, GAMMA, BETA)
        yield [lq.trajectory_mean(p.T, x, zmem, p, grid, dt)]
        yield [lq.trajectory_variance(p.T, p, grid, dt)]
    p = cli.build_params(CFG)
    cs = lq.solve_costate(p, GAMMA, BETA, dt)
    yield [lq.value_lq(0.0, lifting.lift_M(h.x0, h.x1, h.delta, p, grid), cs, grid)]
    cfg = dict(CFG, a1_amp=0.0)  # as the sensitivity subcommand runs
    yield [cli._sensitivity_at(cfg, round(0.25 + 0.05 * i, 10), 0.0) for i in range(10)]


def blocks():
    # one path past a block: the first block's noise is drawn on up to 8
    # threads, and the second block starts at path PATH_BLOCK
    n_paths = sdde.PATH_BLOCK + 3
    history, obj = cli.build_history(CFG, GRID), cli.build_objective(CFG)
    p = params(A1[2], B1[2])
    zstar = lq.optimal_policy_lq(lq.solve_costate(p, GAMMA, BETA, 0.01), p)
    for policy in (zstar, lq.memoryless_policy(p, GAMMA, BETA)):
        est = sdde.evaluate_policy(p, history, policy, obj, 0.01, n_paths, SEED)
        yield est.values
    p = params(ConstantKernel(0.0), ConstantKernel(0.0))
    spec = state_delay.HamiltonianSpec("quadratic", BETA, p.b0, p.sigma, 2.0)
    policy = state_delay.quadratic_feedback_policy(spec, lambda t, y: 3.0 - 0.2 * y)
    ens = state_delay.simulate_feedback(p, -1.0, history, policy, 0.01, n_paths, SEED)
    yield from (ens.y, ens.z, [ens.clip_count])


if __name__ == "__main__":
    groups = (
        costate, delay_ode, paths, lifted, convergence, bounded, feedback, lags,
        exact, blocks, windows,
    )
    for group in groups:
        print(group.__name__, digest(group()))
