import functools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from oracle import ResummedWindow, e1_trajectory

from goodwill import lq
from goodwill.cli import (
    build_history,
    build_params,
    merged_config,
    run_costate,
    run_evaluate,
)
from goodwill.hilbert import (
    DelayWindow,
    ExponentialKernel,
    PointDelay,
    ProfileX,
    SegmentGrid,
    kernel_eval,
)
from goodwill.lifting import DelayODEProblem, lift_M, solve_delay_ode
from goodwill.lq import (
    memoryless_policy,
    optimal_policy_lq,
    sensitivity_dV_dr,
    solve_costate,
    trajectory_mean,
    trajectory_variance,
    value_lq,
)
from goodwill.sdde import (
    BlowupError,
    ConfigurationError,
    HistoryPair,
    LinearReward,
    ObjectiveSpec,
    OpenLoop,
    QuadraticCost,
    evaluate_policy,
    simulate_paths,
)


def make_params(**kw):
    base = dict(
        a0=-1.0,
        a1=ExponentialKernel(0.0, math.inf),
        b0=1.0,
        b1=ExponentialKernel(0.0, math.inf),
        sigma=0.5,
        r=0.5,
        T=1.0,
    )
    base.update(kw)
    from goodwill.sdde import ModelParams

    return ModelParams(**base)


# --- costate ------------------------------------------------------------------


def test_costate_closed_form_without_state_delay():
    p = make_params(a0=-0.8)
    cs = solve_costate(p, 1.5, 0.5, 1e-3)
    expect = 1.5 * np.exp((1.0 - cs.t) * -0.8)
    assert np.max(np.abs(cs.w0 - expect)) < 1e-6


def test_costate_constant_when_a0_zero():
    p = make_params(a0=0.0)
    cs = solve_costate(p, 2.0, 0.5, 1e-2)
    np.testing.assert_array_equal(cs.w0, np.full_like(cs.t, 2.0))


def test_costate_c_elementary_integral():
    # c(0) = int_0^1 e^{-2(1-s)}/2 ds = (1 - e^-2)/4
    p = make_params(a0=-1.0, b0=1.0)
    cs = solve_costate(p, 1.0, 0.5, 1e-4)
    assert cs.c[0] == pytest.approx((1 - np.exp(-2)) / 4, abs=1e-7)


def test_costate_boundary_and_monotonicity():
    p = make_params(a1=ExponentialKernel(-3.0, 0.2), b1=ExponentialKernel(2.0, 0.2))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    assert cs.w0[-1] == 1.0  # w0(T) = gamma exactly
    assert cs.c[-1] == 0.0
    assert np.all(cs.c >= 0)
    assert np.all(np.diff(cs.c) <= 1e-15)


def test_costate_rejects_bad_config():
    p = make_params()
    with pytest.raises(ConfigurationError):
        solve_costate(p, 1.0, -0.5, 1e-3)
    with pytest.raises(ConfigurationError):
        solve_costate(p, 1.0, 0.5, 0.3)  # does not divide r
    # a nan beta is a config error, not a costate that leaves the finite range
    with pytest.raises(ConfigurationError, match="^beta must be positive, got nan$"):
        solve_costate(p, 1.0, np.nan, 1e-3)
    with pytest.raises(ConfigurationError, match="^beta must be positive, got nan$"):
        memoryless_policy(p, 1.0, np.nan)


def test_costate_richardson_ratio():
    p = make_params(a1=ExponentialKernel(-2.0, 0.25))
    w = {dt: solve_costate(p, 1.0, 0.5, dt).w0[0] for dt in (2e-3, 1e-3, 5e-4)}
    ratio = (w[2e-3] - w[1e-3]) / (w[1e-3] - w[5e-4])
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize(
    "a1",
    [
        ExponentialKernel(-5.0, 1 / 6),
        ExponentialKernel(-1.3, math.inf),
        ExponentialKernel(0.0, math.inf),
    ],
    ids=["exponential", "constant", "zero"],
)
def test_costate_converges_to_the_exact_solution_at_second_order(a1):
    # w0(s) = gamma * phi(T - s) against the method-of-steps oracle. Measured
    # max errors at gamma = 1 for the exponential kernel: 4.98e-6, 1.25e-6,
    # 3.12e-7, 7.81e-8 at dt = 2e-3 ... 2.5e-4 (ratios 3.99-4.00); constant
    # 1.30e-6 and zero 5.06e-8 at 2e-3, ratios 4.00
    p = make_params(a0=-0.5, a1=a1, b1=ExponentialKernel(5.0, 0.5))
    gamma = 2.7
    errors = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        cs = solve_costate(p, gamma, 0.5, dt)
        phi = e1_trajectory(p.a0, a1, p.r, p.T, round(p.T / dt))
        errors.append(np.max(np.abs(cs.w0 - gamma * phi[::-1])))
    assert errors[0] <= 2e-5
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all((3.6 <= ratios) & (ratios <= 4.4)), ratios


def test_costate_agrees_with_delay_ode_at_first_order():
    # w0(T - u) / gamma is the e1 trajectory phi(u); the RK4 engine reads
    # its history by interpolation on the segment grid, so the two exact
    # engines differ at first order in the node spacing (the gaps at 201,
    # 401 and 801 nodes are 7.4e-4, 3.7e-4 and 1.8e-4 of max |phi|)
    p = make_params(
        a0=-0.5, a1=ExponentialKernel(-5.0, 1 / 6), b1=ExponentialKernel(5.0, 0.5)
    )
    gamma, dt = 2.7, 1e-3
    cs = solve_costate(p, gamma, 0.5, dt)
    phi = cs.w0[::-1] / gamma
    gaps = []
    for n_nodes in (201, 401, 801):
        grid = SegmentGrid(p.r, n_nodes)
        problem = DelayODEProblem(p.a0, p.a1, 1.0, np.zeros(n_nodes), grid, p.T)
        times, ode = solve_delay_ode(problem, dt)
        np.testing.assert_allclose(times, cs.t, rtol=0, atol=1e-12)
        gaps.append(np.max(np.abs(phi - ode)) / np.max(np.abs(ode)))
    assert gaps[0] <= 1e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= coarse / fine <= 2.2


@pytest.mark.parametrize("a1_amp", [-5.0, 3.0])
def test_noiseless_sdde_agrees_with_costate_at_first_order(a1_amp):
    # sigma = 0, one path, zero control, and a history that is zero apart
    # from x1(0) = x0 = 1: the Euler path is the e1 trajectory phi, which
    # the costate's Heun solve gives as w0[::-1] at gamma = 1 (the gaps at
    # dt = 1e-3, 5e-4 and 2.5e-4 are 2.6e-4, 1.3e-4 and 6.6e-5 of max |phi|
    # at a1 = -5)
    p = make_params(
        a0=-0.5, a1=ExponentialKernel(a1_amp, 1 / 6),
        b1=ExponentialKernel(5.0, 0.5), sigma=0.0,
    )
    gaps = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        n_nodes = round(p.r / dt) + 1
        x1 = np.zeros(n_nodes)
        x1[-1] = 1.0
        hist = HistoryPair(
            grid=SegmentGrid(p.r, n_nodes), x0=1.0, x1=x1, delta=np.zeros(n_nodes)
        )
        t = dt * np.arange(round(p.T / dt) + 1)
        y = simulate_paths(p, hist, OpenLoop(t=t, z=np.zeros_like(t)), dt, 1, 0).y[0]
        phi = solve_costate(p, 1.0, 0.5, dt).w0[::-1]
        gaps.append(np.max(np.abs(y - phi)) / np.max(np.abs(phi)))
    assert gaps[0] <= 4e-4
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= coarse / fine <= 2.2


@pytest.mark.parametrize(
    "a1, b1",
    [
        (ExponentialKernel(1.2, 1 / 6), ExponentialKernel(2.0, 0.5)),
        (ExponentialKernel(0.3, math.inf), ExponentialKernel(0.4, math.inf)),
        (ExponentialKernel(-30.0, 0.01), ExponentialKernel(40.0, 0.01)),
    ],
)
def test_costate_recursion_matches_window_sum(a1, b1):
    # 1e5 steps of the O(1) delay-sum recursion against the full-window
    # quadrature of the same node values, re-summed every step
    dt = 1e-3
    p = make_params(a1=a1, b1=b1, a0=-0.2, r=0.5, T=100.0)
    rec = solve_costate(p, 1.0, 0.5, dt)
    win = stepwise_costate(p, 1.0, 0.5, dt, window=ResummedWindow)
    for name, want in zip(("w0", "bw", "c"), win):
        got = getattr(rec, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def stepwise_costate(params, gamma, beta, dt, window=DelayWindow):
    """(w0, <B, w>, c), one call per step: Heun's loop through a slope
    function that sums and advances the a1 window, then the pairing
    through the b1 window's sum and advance, each window over phi as one
    column. With the DelayWindow, solve_costate must give these bits."""
    n, m = round(params.T / dt), round(params.r / dt)
    xi = -params.r + dt * np.arange(m + 1)
    xi[-1] = 0.0  # the newest sample's lag, which -r + dt*m may miss by an ulp
    phi = np.zeros(m + n + 1)
    phi[m] = gamma
    column = phi[:, None]  # a view: the windows read the rows as they fill

    def jump(values):
        out = np.zeros(n + 1)
        i = np.arange(1, min(m, n + 1))
        out[i] = dt / 2 * values[m - i] * gamma
        return out

    win_a = None
    if params.a1.amp != 0.0:
        a1v = kernel_eval(params.a1, xi, params.r)
        win_a, jump_a = window(params.a1, a1v, dt, column), jump(a1v)

    def slope(i, phi_i):
        if win_a is None:
            return params.a0 * phi_i
        return params.a0 * phi_i + (win_a.sum(i, phi_i).item() - jump_a.item(i))

    for i in range(1, n + 1):
        prev = phi.item(m + i - 1)
        f1 = slope(i - 1, prev)
        if win_a is not None:
            win_a.advance(i - 1)
        f2 = slope(i, prev + dt * f1)
        phi[m + i] = prev + dt / 2 * (f1 + f2)
    bw = params.b0 * phi[m:]
    if params.b1.amp != 0.0:
        b1v = kernel_eval(params.b1, xi, params.r)
        win = window(params.b1, b1v, dt, column)
        pairing = np.empty(n + 1)
        for i in range(n + 1):
            pairing[i] = win.sum(i, phi.item(m + i)).item()
            win.advance(i)
        bw = bw + pairing - jump(b1v)
    g = np.maximum(bw, 0.0) ** 2 / (4.0 * beta)
    c = np.zeros(n + 1)
    c[1:] = np.cumsum(dt / 2 * (g[:-1] + g[1:]))
    return tuple(np.flip(v) for v in (phi[m:], bw, c))


B1_KINDS = [
    ExponentialKernel(0.0, math.inf),
    ExponentialKernel(0.8, math.inf),
    ExponentialKernel(5.0, 0.5),
    ExponentialKernel(40.0, 0.01),  # decays within 1% of the window
]
B1_IDS = ["zero", "constant", "exponential", "steep"]


@pytest.mark.parametrize("dt", [1e-3, 5e-5])
@pytest.mark.parametrize("gamma", [1.0, 2.7])
@pytest.mark.parametrize("b1", B1_KINDS, ids=B1_IDS)
def test_a1_free_costate_equals_the_step_by_step_solve(b1, gamma, dt):
    p = make_params(a0=-0.5, b1=b1)
    cs = solve_costate(p, gamma, 0.5, dt)
    for name, want in zip(("w0", "bw", "c"), stepwise_costate(p, gamma, 0.5, dt)):
        np.testing.assert_array_equal(getattr(cs, name), want, err_msg=name)


@pytest.mark.parametrize("dt", [1e-3, 5e-5])
@pytest.mark.parametrize("b1", B1_KINDS, ids=B1_IDS)
@pytest.mark.parametrize(
    "a1",
    [
        ExponentialKernel(-5.0, 1 / 6),
        ExponentialKernel(-1.3, math.inf),
        ExponentialKernel(-30.0, 0.01),
    ],
    ids=["exponential", "constant", "steep"],
)
def test_a1_costate_equals_the_step_by_step_solve(a1, b1, dt):
    # the float loop inlines DelayWindow.sum and advance in their order
    p = make_params(a0=-0.5, a1=a1, b1=b1)
    cs = solve_costate(p, 2.7, 0.5, dt)
    for name, want in zip(("w0", "bw", "c"), stepwise_costate(p, 2.7, 0.5, dt)):
        np.testing.assert_array_equal(getattr(cs, name), want, err_msg=name)


def _assert_bits(cs, want):
    for name, w in zip(("w0", "bw", "c"), want):
        assert getattr(cs, name).tobytes() == np.ascontiguousarray(w).tobytes(), name


def test_a1_free_rows_are_shared_bit_for_bit():
    # interleaved keys: a solve that repeats the last (a0, gamma, dt) at
    # another r or b1 copies the memo's rows, any other solve re-runs the
    # loop, and both give the step-by-step bits
    memo, hits = lq._A1_FREE, []
    memo.clear()
    for dt in (1e-3, 5e-4):
        for gamma in (1.0, 2.7):
            for a0 in (-0.5, -1.3):
                for r, b1 in (
                    (0.5, ExponentialKernel(0.0, math.inf)),
                    (0.25, ExponentialKernel(5.0, 0.5)),
                ):
                    p = make_params(a0=a0, r=r, b1=b1)
                    before = list(memo.values())
                    cs = solve_costate(p, gamma, 0.5, dt)
                    hits.append(any(v is w for v in before for w in memo.values()))
                    _assert_bits(cs, stepwise_costate(p, gamma, 0.5, dt))
    assert hits == [False, True] * 8


@pytest.mark.parametrize(
    "a0, gamma, a0_before, gamma_before",
    [
        (-0.0, 0.0, 0.0, 0.0),
        (0.0, -0.0, 0.0, 0.0),
        (-0.0, -0.0, 0.0, 0.0),
        (0.0, 0.0, -0.0, -0.0),
        (-0.5, -0.0, -0.5, 0.0),
        (-0.5, 0.0, -0.5, -0.0),
    ],
)
def test_a1_free_rows_keep_the_sign_of_zero(a0, gamma, a0_before, gamma_before):
    # 0.0 == -0.0, but w0(T) = gamma keeps its sign: the memo is keyed on
    # bits, so the solve just before, equal in value, does not stand in
    solve_costate(make_params(a0=a0_before), gamma_before, 0.5, 1e-3)
    p = make_params(a0=a0, b1=ExponentialKernel(0.8, math.inf))
    want = stepwise_costate(p, gamma, 0.5, 1e-3)
    _assert_bits(solve_costate(p, gamma, 0.5, 1e-3), want)


BLOWUP_AT_T = r"^costate w0 left the finite range at t=1$"


def test_a1_free_nan_gamma_raises_on_a_miss_and_a_hit():
    p = make_params(a0=-0.5, b1=ExponentialKernel(5.0, 0.5))
    lq._A1_FREE.clear()
    for _ in range(2):
        with pytest.raises(BlowupError, match=BLOWUP_AT_T):
            solve_costate(p, float("nan"), 0.5, 1e-3)
    _assert_bits(solve_costate(p, 1.0, 0.5, 1e-3), stepwise_costate(p, 1.0, 0.5, 1e-3))


def test_mutating_a_solution_leaves_the_next_solve_alone():
    p = make_params(a0=-0.5, b1=ExponentialKernel(5.0, 0.5))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    for name in ("w0", "bw", "c"):
        getattr(cs, name)[:] = 7.0
    _assert_bits(solve_costate(p, 1.0, 0.5, 1e-3), stepwise_costate(p, 1.0, 0.5, 1e-3))


SHIPPED_R_GRID = [round(0.25 + 0.05 * i, 10) for i in range(10)]
FINE_DT = 5e-5  # -r + dt*m is 5.6e-17 at r = 0.35 and 1.1e-16 at r = 0.7


@functools.lru_cache(maxsize=32)
def _fine_reference(r, b1, gamma_bits, a1):
    # the sweeps repeat their settings; gamma is keyed on its bits, as
    # 0.0 == -0.0 and the two have rows of their own
    p = make_params(a0=-0.5, r=r, a1=a1, b1=b1)
    return stepwise_costate(p, struct.unpack("d", gamma_bits)[0], 0.5, FINE_DT)


def _solve_and_compare(r, b1, gamma=1.0, a1=ExponentialKernel(0.0, math.inf)):
    p = make_params(a0=-0.5, r=r, a1=a1, b1=b1)
    _assert_bits(solve_costate(p, gamma, 0.5, FINE_DT),
                 _fine_reference(r, b1, struct.pack("d", gamma), a1))


@pytest.mark.parametrize("amp", [1.0, 5.0])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_r_sweeps_share_the_pairing_prefix_bit_for_bit(order, amp):
    # every a1-free solve of a sweep takes the raw sums of its zero-history
    # steps from the memo's head where it can; every r reads b1(0) = amp,
    # r = 0.35 and 0.7 among them, so the sweep shares one head
    rs = {"ascending": SHIPPED_R_GRID, "descending": SHIPPED_R_GRID[::-1],
          "shuffled": list(np.random.default_rng(4).permutation(SHIPPED_R_GRID))}[order]
    lq._A1_FREE.clear()
    for r in [0.5, *rs, 0.35, 0.7, 0.35, 0.7]:
        _solve_and_compare(float(r), ExponentialKernel(amp, 0.5))


def test_an_r_sweep_runs_each_zero_history_prefix_once(monkeypatch):
    # the exact_fine benchmark's order: r = 0.5, then the grid ascending.
    # Every r reads b1(0) = amp, so the recursion runs the longest
    # zero-history prefix (r = 0.7) once, plus every solve's steps past its own
    steps, sums = [], DelayWindow.sums

    def counted(win, head=None, raw=None):
        steps.append(len(win.samples) - win.m - (0 if head is None else len(head) - 1))
        return sums(win, head, raw)

    monkeypatch.setattr(DelayWindow, "sums", counted)
    lq._A1_FREE.clear()
    rs = [0.5, *SHIPPED_R_GRID]
    for r in rs:
        solve_costate(make_params(a0=-0.5, r=r, b1=ExponentialKernel(1.0, 0.5)),
                      1.0, 0.5, FINE_DT)
    n, m = 20_000, [round(r / FINE_DT) for r in rs]
    assert sum(steps) == sum(n + 1 - k for k in m) + 14_000


@pytest.mark.parametrize("r", [FINE_DT, 1.0, 1.25])
def test_pairing_prefix_at_the_shortest_and_longest_windows(r):
    # m = 1; m = n; m > n, where every step's oldest sample is a zero row
    lq._A1_FREE.clear()
    for r_i in (r, 0.5, r, 0.3, r):
        _solve_and_compare(r_i, ExponentialKernel(5.0, 0.5))


def test_pairing_prefix_sweeps_interleaved_with_other_solves():
    # an a1 solve, another b1 amplitude and a constant b1 (rho = 1) between
    # the solves of a sweep: each keeps or drops what the others share
    lq._A1_FREE.clear()
    for r in SHIPPED_R_GRID[::3] + [0.7, 0.35]:
        _solve_and_compare(r, ExponentialKernel(5.0, 0.5))
        _solve_and_compare(r, ExponentialKernel(5.0, 0.5), a1=ExponentialKernel(-2.0, 1 / 6))
        _solve_and_compare(r, ExponentialKernel(2.0, 0.5))
        _solve_and_compare(r, ExponentialKernel(0.8, math.inf))
        _solve_and_compare(r, ExponentialKernel(0.0, math.inf))


def test_pairing_prefix_keeps_the_sign_of_zero_gamma():
    # gamma = 0.0 and -0.0 are equal values with rows of their own bits
    lq._A1_FREE.clear()
    for gamma in (0.0, -0.0, -0.0, 0.0, 1.0, -0.0):
        for r in (0.3, 0.45):
            _solve_and_compare(r, ExponentialKernel(5.0, 0.5), gamma=gamma)


def test_pairing_prefix_nan_gamma_raises_on_a_miss_and_a_hit():
    lq._A1_FREE.clear()
    # a miss, a hit, a longer head, another b1(0)
    for r, amp in ((0.3, 5.0), (0.3, 5.0), (0.45, 5.0), (0.35, 2.0)):
        p = make_params(a0=-0.5, r=r, b1=ExponentialKernel(amp, 0.5))
        with pytest.raises(BlowupError, match=BLOWUP_AT_T):
            solve_costate(p, float("nan"), 0.5, FINE_DT)
    _solve_and_compare(0.45, ExponentialKernel(5.0, 0.5))


def test_pairing_prefixes_are_read_only_and_not_shared_out():
    lq._A1_FREE.clear()
    solutions = [solve_costate(make_params(a0=-0.5, r=r, b1=ExponentialKernel(5.0, 0.5)),
                               1.0, 0.5, FINE_DT) for r in (0.35, 0.5, 0.7)]
    # one entry with one head: b1(0) = 5 at every r, and r = 0.7 reaches furthest
    [(rows, block, pattern, size)] = lq._A1_FREE.values()
    assert pattern == struct.pack("2d", math.exp(-FINE_DT / 0.5), 5.0)
    assert size == 14_001 and len(block) == len(rows) == 20_001
    for kept in (rows, block):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1.0
        for cs in solutions:
            assert not any(np.shares_memory(kept, getattr(cs, a)) for a in ("w0", "bw", "c"))


@pytest.mark.parametrize("lag_steps", [1, 2])
@pytest.mark.parametrize(
    "a1, b1",
    [
        (ExponentialKernel(-5.0, 1 / 6), ExponentialKernel(5.0, 0.5)),
        (ExponentialKernel(-1.3, math.inf), ExponentialKernel(0.0, math.inf)),
    ],
    ids=["exponential", "constant"],
)
def test_a1_costate_with_the_shortest_windows(a1, b1, lag_steps):
    # m = 1 and 2: the streamed loop reads row i at step i, one or two
    # steps after it was written
    dt = 1e-3
    p = make_params(a0=-0.5, a1=a1, b1=b1, r=lag_steps * dt)
    _assert_bits(solve_costate(p, 2.7, 0.5, dt), stepwise_costate(p, 2.7, 0.5, dt))


@pytest.mark.parametrize(
    "changes, limit_mib, miss",
    [
        ({"a1_amp": 0.0}, 1.30, False),
        ({"a1_amp": 0.0}, 1.30, True),
        ({}, 1.53, False),
    ],
    ids=["b1_only", "b1_only_both_memos_miss", "both_churns"],
)
def test_costate_peak_memory(changes, limit_mib, miss):
    # the tracemalloc peak of one fine-step solve at the shipped model: a
    # few arrays of the 20,001 steps, no Python list of a float per step
    # (that alone would add about 0.6 MiB); the peaks are 0.99, 1.23 and
    # 1.30 MiB. A miss of the a1-free memo keeps the solve's own rows, no
    # copy of them, and adds the head block of 20,001 floats, which the
    # suffix-sized temporaries and in-place sums make room for
    cfg = merged_config(None, {})
    p = build_params(dict(cfg, **changes))
    solve_costate(p, cfg["gamma"], cfg["beta"], 5e-5)  # one-time set-up off the count
    if miss:
        lq._A1_FREE.clear()
    tracemalloc.start()
    try:
        solve_costate(p, cfg["gamma"], cfg["beta"], 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_costate_overflow_raises_blowup():
    p = make_params(a1=ExponentialKernel(1e8, 1 / 6))
    with pytest.raises(BlowupError, match="costate w0 left the finite range"):
        solve_costate(p, 1.0, 0.5, 1e-3)


def test_costate_csv_layout():
    # the costate table is written by the CLI's column writer
    cs_table = run_costate(merged_config(None, {"dt": 0.25}))
    lines = cs_table.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 2 + 5


# --- policies -----------------------------------------------------------------


def test_policy_constant_without_memory_or_discount():
    p = make_params(a0=0.0, b0=2.0)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    z = optimal_policy_lq(cs, p).z
    np.testing.assert_allclose(z, np.full_like(z, 1.0 * 2.0 / (2 * 0.5)), atol=1e-12)


def test_policy_matches_constant_b1_closed_form():
    # a1 = 0, b1 = b constant: <B,w(t)> = w0(t)*(b0 + b*int e^{a0 xi} dxi)
    # with the integral cut at xi = t - T, since a unit of advertising at
    # time t only collects its delayed effect while t - xi <= T.
    a0, b0, bc, gamma, beta, r, T = -0.5, 1.0, 2.0, 1.0, 0.5, 0.5, 1.0
    p = make_params(a0=a0, b0=b0, b1=ExponentialKernel(bc, math.inf))
    cs = solve_costate(p, gamma, beta, 1e-4)
    z = optimal_policy_lq(cs, p).z
    lo = np.maximum(-r, cs.t - T)
    integral = (1.0 - np.exp(a0 * lo)) / a0
    expect = gamma * np.exp((T - cs.t) * a0) / (2 * beta) * (b0 + bc * integral)
    np.testing.assert_allclose(z, expect, atol=5e-4)


def test_pairing_before_T_converges_at_second_order():
    # the pairing's half weight at the jump of w1 (window node j = m - i)
    # keeps <B, w> second order in dt on t < T; without it the error is
    # dt/2 * b * gamma * w0 wherever t > T - r
    a0, b0, bc, gamma, r, T = -0.5, 1.0, 2.0, 1.0, 0.5, 1.0
    p = make_params(a0=a0, b0=b0, b1=ExponentialKernel(bc, math.inf))
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        cs = solve_costate(p, gamma, 0.5, dt)
        integral = (1.0 - np.exp(a0 * np.maximum(-r, cs.t - T))) / a0
        expect = gamma * np.exp((T - cs.t) * a0) * (b0 + bc * integral)
        errors.append(np.max(np.abs(cs.bw - expect)[:-1]))
    assert errors[1] <= 1e-7
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_policy_zero_for_negative_reward_slope():
    p = make_params()
    cs = solve_costate(p, -1.0, 0.5, 1e-3)
    assert np.all(optimal_policy_lq(cs, p).z == 0.0)


def test_memoryless_policy_values():
    p = make_params(a0=-0.5, b0=2.0)
    pol = memoryless_policy(p, 1.0, 0.5)
    t = np.array([0.0, 1.0])
    z = pol.sample(p, t)
    assert z[-1] == pytest.approx(1.0 * 2.0 / (2 * 0.5))
    assert z[0] == pytest.approx(2.0 * np.exp(-0.5))


def test_memoryless_coincides_with_optimal_without_delay():
    p = make_params(a0=-0.5)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    z_opt = optimal_policy_lq(cs, p).z
    z_mem = memoryless_policy(p, 1.0, 0.5).sample(p, cs.t)
    np.testing.assert_allclose(z_opt, z_mem, atol=1e-8)


BOUNDS = [{"u_max": 0.5}, {"u_max": 1.2}, {"u_min": 2.5}]
BOUND_IDS = ["u_max_0.5", "u_max_1.2", "u_min_2.5"]


def _bounded_costate(**bounds):
    p = make_params(
        a0=-0.5, a1=ExponentialKernel(-5.0, 1 / 6), b1=ExponentialKernel(5.0, 0.5),
        **bounds,
    )
    return p, solve_costate(p, 1.0, 0.5, 1e-3)


@pytest.mark.parametrize("bounds", BOUNDS, ids=BOUND_IDS)
def test_policy_and_running_term_honour_the_control_bounds(bounds):
    # z* = clip(<B, w> / (2 beta), u_min, u_max) and c accumulates the
    # running term <B, w> z* - beta z*^2, its maximum on the bounds
    p, cs = _bounded_costate(**bounds)
    z = optimal_policy_lq(cs, p).z
    want = np.clip(cs.bw / (2 * 0.5), p.u_min, p.u_max)
    np.testing.assert_array_equal(z, want)
    assert np.any(want != np.maximum(cs.bw, 0.0))  # a bound binds
    g = cs.bw * z - 0.5 * z**2
    np.testing.assert_allclose(cs.c[0], np.trapezoid(g, cs.t), rtol=1e-12)


def test_bounds_that_do_not_bind_keep_the_unbounded_bits():
    # u_max at the largest z* and u_min = 0 move no sample, so the policy
    # and c are those of u_max = inf, bit for bit
    _, free = _bounded_costate()
    u_max = float(np.max(free.bw)) / (2 * 0.5)
    p, cs = _bounded_costate(u_max=u_max)
    assert cs.c.tobytes() == free.c.tobytes()
    z, z_free = optimal_policy_lq(cs, p).z, optimal_policy_lq(free, p).z
    assert z.tobytes() == z_free.tobytes()


@pytest.mark.parametrize(
    "bounds", [{"u_max": 0.5}, {"u_min": 2.5}], ids=["u_max", "u_min"]
)
def test_bounded_value_matches_monte_carlo(bounds):
    # the shipped model with a bound that binds: the unbounded running term
    # put the analytic value 93 and 124 standard errors off at 4000 paths
    cfg = merged_config(None, dict(bounds, n_paths=4000))
    out = json.loads(run_evaluate(cfg))
    mc = out["mc"]
    assert abs(out["analytic_value"] - mc["mean"]) <= 3 * mc["stderr"]


# --- value function -----------------------------------------------------------


def test_value_terminal_reduces_to_reward():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=ExponentialKernel(-1.0, math.inf), b1=ExponentialKernel(1.0, math.inf))
    cs = solve_costate(p, 1.5, 0.5, 1e-3)
    x = ProfileX(2.0, np.random.default_rng(0).uniform(0, 1, 101))
    assert value_lq(1.0, x, cs, grid) == pytest.approx(1.5 * 2.0, abs=1e-9)


def test_value_affine_in_state():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=ExponentialKernel(-2.0, 0.2))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    rng = np.random.default_rng(1)
    xa = ProfileX(1.0, rng.uniform(0, 1, 101))
    xb = ProfileX(0.5, rng.uniform(0, 1, 101))
    lam = 0.3
    mix = ProfileX(
        lam * xa.x0 + (1 - lam) * xb.x0, lam * xa.x1 + (1 - lam) * xb.x1
    )
    t = 0.4
    v_mix = value_lq(t, mix, cs, grid)
    expect = lam * value_lq(t, xa, cs, grid) + (1 - lam) * value_lq(t, xb, cs, grid)
    assert v_mix == pytest.approx(expect, rel=1e-10)


def test_value_domain_error():
    grid = SegmentGrid(0.5, 11)
    p = make_params()
    cs = solve_costate(p, 1.0, 0.5, 1e-2)
    with pytest.raises(ConfigurationError):
        value_lq(1.5, ProfileX(1.0, np.zeros(11)), cs, grid)
    with pytest.raises(ConfigurationError, match=r"^t=nan outside \[0, 1.0\]$"):
        value_lq(np.nan, ProfileX(1.0, np.zeros(11)), cs, grid)


@pytest.mark.parametrize("state_nodes, grid_nodes", [(201, 51), (51, 201)])
def test_value_refuses_a_profile_off_the_grid(state_nodes, grid_nodes):
    cs = solve_costate(make_params(), 1.0, 0.5, 1e-2)
    xbar = ProfileX(1.0, np.ones(state_nodes))
    with pytest.raises(ConfigurationError, match="must live on the grid"):
        value_lq(0.0, xbar, cs, SegmentGrid(0.5, grid_nodes))


def test_value_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(
        a0=-0.5,
        a1=ExponentialKernel(-5.0, 1 / 6),
        b1=ExponentialKernel(5.0, 0.5),
    )
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    hist = HistoryPair(grid=grid, x0=10.0, x1=x1, delta=np.zeros(201))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    est = evaluate_policy(p, hist, pol, obj, 1e-3, 4000, 21)
    xbar = lift_M(10.0, x1, np.zeros(201), p, grid)
    v = value_lq(0.0, xbar, cs, grid)
    assert abs(est.mean - v) <= 3 * est.stderr + 5e-3


def test_first_order_optimality_probe():
    grid = SegmentGrid(0.5, 201)
    p = make_params(a1=ExponentialKernel(-3.0, 0.2), b1=ExponentialKernel(3.0, 0.2))
    x1 = 5.0 * np.exp(grid.nodes)
    hist = HistoryPair(grid=grid, x0=5.0, x1=x1, delta=np.zeros(201))
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    obj = ObjectiveSpec(phi0=LinearReward(1.0), h0=QuadraticCost(0.5))
    best = evaluate_policy(p, hist, pol, obj, 1e-3, 1000, 9)
    bump = 0.2 * np.exp(-((cs.t - 0.5) ** 2) / 0.02)
    worse = evaluate_policy(
        p, hist, OpenLoop(t=cs.t, z=pol.z + bump), obj, 1e-3, 1000, 9
    )
    assert best.mean >= worse.mean - 3 * worse.stderr


# --- trajectory statistics ----------------------------------------------------


def _refusals():
    from goodwill.approximation import simulate_lifted_perturbed

    grid = SegmentGrid(0.5, 11)
    x, zero = ProfileX(1.0, np.ones(11)), np.zeros(11)
    point_a1 = make_params(a1=PointDelay(-1.0))
    point_b1 = make_params(b1=PointDelay(1.0))
    pol = OpenLoop(t=np.array([0.0, 1.0]), z=np.ones(2))
    return {
        "kernel_eval": lambda: kernel_eval(PointDelay(-1.0), grid.nodes, grid.r),
        "lift_M": lambda: lift_M(1.0, x.x1, zero, point_a1, grid),
        "solve_costate_a1": lambda: solve_costate(point_a1, 1.0, 0.5, 0.01),
        "solve_costate_b1": lambda: solve_costate(point_b1, 1.0, 0.5, 0.01),
        "lifted_scheme": lambda: simulate_lifted_perturbed(
            point_a1, x, pol, 0.0, grid, 0.05, 1, 0
        ),
        "trajectory_mean_b1": lambda: trajectory_mean(
            0.5, x, pol, point_b1, grid, 0.01
        ),
    }


@pytest.mark.parametrize("consumer", list(_refusals()))
def test_density_consumers_refuse_a_point_lag(consumer):
    # each needs a kernel density on [-r, 0], which a point lag has not;
    # the one refusal is kernel_eval's
    with pytest.raises(ConfigurationError, match="^a point lag has no density"):
        _refusals()[consumer]()


def _zero_kernel_consumers():
    from goodwill.approximation import simulate_lifted_perturbed

    grid = SegmentGrid(0.5, 11)
    x, v = ProfileX(1.0, np.linspace(0.5, 1.0, 11)), np.linspace(0.0, 2.0, 11)
    t = np.linspace(0.0, 1.0, 21)
    pol = OpenLoop(t=t, z=1.0 + t)

    def lifted(p):
        ens = simulate_lifted_perturbed(p, x, pol, [0.0, 0.1], grid, 0.05, 3, 0)
        return ens.y0, ens.y1

    return {
        "kernel_eval": lambda p: [kernel_eval(k, grid.nodes, grid.r) for k in (p.a1, p.b1)],
        "lift_M": lambda p: [lift_M(x.x0, x.x1, v, p, grid).x1],
        "lifted_scheme": lifted,
        "trajectory_mean": lambda p: [trajectory_mean(0.5, x, pol, p, grid, 0.01)],
    }


@pytest.mark.parametrize("slot", ["a1", "b1"])
@pytest.mark.parametrize("consumer", list(_zero_kernel_consumers()))
def test_a_zero_point_lag_is_the_zero_kernel(consumer, slot):
    # any kernel whose amp is 0 is the zero kernel: a density consumer
    # gives a zero point lag the bits of a zero exponential kernel, beside
    # a nonzero kernel in the other slot
    run = _zero_kernel_consumers()[consumer]
    base = dict(a0=-0.5, a1=ExponentialKernel(-1.5, 0.3), b1=ExponentialKernel(2.0, 0.5))
    want = run(make_params(**{**base, slot: ExponentialKernel(0.0, 0.2)}))
    got = run(make_params(**{**base, slot: PointDelay(0.0)}))
    for g, w in zip(got, want, strict=True):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_trajectory_mean_reads_a_point_a1():
    # the e1 trajectory takes a point a1 (the RK4 engine's one-node lag):
    # u' = -u + 0.5 u(t - 0.5) from u(0) = 1 over a zero history is
    # e^{-t} + 0.5 (t - r) e^{-(t - r)} on [r, 2r]; the engine reads the
    # jump at 0 through one grid cell, 8.4e-4 off at t = 0.9 on 101 nodes
    grid = SegmentGrid(0.5, 101)
    p = make_params(a1=PointDelay(0.5))
    pol = OpenLoop(t=np.array([0.0, 1.0]), z=np.zeros(2))
    e1 = ProfileX(1.0, np.zeros(101))
    exact = np.exp(-0.9) + 0.5 * 0.4 * np.exp(-0.4)
    assert trajectory_mean(0.9, e1, pol, p, grid, 1e-3) == pytest.approx(
        exact, abs=1e-3
    )


def test_trajectory_mean_at_zero_and_no_delay():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.7)
    y0 = ProfileX(2.0, np.zeros(101))
    t_grid = np.linspace(0, 1, 5)
    pol = OpenLoop(t=t_grid, z=np.zeros(5))
    assert trajectory_mean(0.0, y0, pol, p, grid, 1e-3) == 2.0
    got = trajectory_mean(0.8, y0, pol, p, grid, 1e-3)
    assert got == pytest.approx(2.0 * np.exp(-0.7 * 0.8), abs=1e-6)


def test_trajectory_mean_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(
        a0=-0.5,
        a1=ExponentialKernel(-2.0, 1 / 6),
        b1=ExponentialKernel(2.0, 1 / 6),
        sigma=0.5,
    )
    x1 = 3.0 * np.exp(-np.abs(grid.nodes))
    delta = 0.5 * np.ones(201)
    hist = HistoryPair(grid=grid, x0=3.0, x1=x1, delta=delta)
    cs = solve_costate(p, 1.0, 0.5, 1e-3)
    pol = optimal_policy_lq(cs, p)
    ens = simulate_paths(p, hist, pol, 1e-3, 4000, 13)
    mc_mean = ens.y[:, -1].mean()
    mc_se = ens.y[:, -1].std(ddof=1) / np.sqrt(ens.n_paths)

    xbar = lift_M(3.0, x1, delta, p, grid)
    mean = trajectory_mean(1.0, xbar, pol, p, grid, 1e-3)
    assert abs(mean - mc_mean) <= 3 * mc_se


def test_trajectory_mean_clips_like_simulation():
    # z = 5 above u_max = 1: the exact mean must use the clipped control
    from goodwill import cli

    cfg = dict(cli.load_defaults(), u_max=1.0)
    grid = SegmentGrid(cfg["r"], cfg["n_nodes"])
    hist = cli.build_history(cfg, grid)
    p = cli.build_params(cfg)
    t = 1e-3 * np.arange(1001)
    pol = OpenLoop(t=t, z=np.full_like(t, 5.0))
    ens = simulate_paths(p, hist, pol, 1e-3, 2000, 7)
    assert ens.clip_count > 0
    yT = ens.y[:, -1]
    se = yT.std(ddof=1) / np.sqrt(len(yT))
    xbar = lift_M(hist.x0, hist.x1, hist.delta, p, grid)
    mean = trajectory_mean(p.T, xbar, pol, p, grid, 1e-3)
    assert abs(mean - yT.mean()) <= 6 * se + 3e-3 * abs(mean)


def test_trajectory_variance_closed_form():
    grid = SegmentGrid(0.5, 101)
    p = make_params(a0=-0.8, sigma=0.4)
    assert trajectory_variance(0.0, p, grid, 1e-3) == 0.0
    t = 0.9
    got = trajectory_variance(t, p, grid, 1e-3)
    expect = 0.4**2 * (np.exp(2 * -0.8 * t) - 1) / (2 * -0.8)
    assert got == pytest.approx(expect, abs=1e-6)


def test_trajectory_variance_matches_monte_carlo():
    grid = SegmentGrid(0.5, 201)
    p = make_params(a0=-0.5, a1=ExponentialKernel(-2.0, 1 / 6), sigma=0.5)
    x1 = np.ones(201)
    hist = HistoryPair(grid=grid, x0=1.0, x1=x1, delta=np.zeros(201))
    t_grid = np.linspace(0, 1, 3)
    pol = OpenLoop(t=t_grid, z=np.zeros(3))
    ens = simulate_paths(p, hist, pol, 1e-3, 4000, 17)
    sample_var = ens.y[:, -1].var(ddof=1)
    # stderr of a Gaussian sample variance: var * sqrt(2/(n-1))
    se = sample_var * np.sqrt(2 / (ens.n_paths - 1))
    got = trajectory_variance(1.0, p, grid, 1e-3)
    assert abs(got - sample_var) <= 3 * se


@pytest.fixture
def ode_solves(monkeypatch):
    """Count the delay-ODE solves lq makes, from an empty e1 memo."""
    calls = []

    def counted(problem, dt):
        calls.append(dt)
        return solve_delay_ode(problem, dt)

    lq._e1_trajectory.cache_clear()
    monkeypatch.setattr(lq, "solve_delay_ode", counted)
    yield calls
    lq._e1_trajectory.cache_clear()


MEMO_GRID = SegmentGrid(0.5, 51)
MEMO_PARAMS = dict(a0=-0.5, a1=ExponentialKernel(-2.0, 1 / 6), b0=1.0,
                   b1=ExponentialKernel(2.0, 1 / 6))


def _exact_calls(p, grid=MEMO_GRID, t=1.0, dt=1e-2):
    """The three exact calls of a churn gap: mean(z*), mean(z0), variance."""
    x = ProfileX(1.0, np.linspace(0.5, 1.0, grid.n_nodes))
    cs = solve_costate(p, 1.0, 0.5, 1e-2)
    policies = (optimal_policy_lq(cs, p), memoryless_policy(p, 1.0, 0.5))
    return [
        *(lambda pol=pol: trajectory_mean(t, x, pol, p, grid, dt) for pol in policies),
        lambda: trajectory_variance(t, p, grid, dt),
    ]


def _exact_pair(p, **kw):
    return [f() for f in _exact_calls(p, **kw)]


def test_means_and_variance_of_one_model_share_one_solve(ode_solves):
    calls = _exact_calls(make_params(**MEMO_PARAMS))
    warm = [f() for f in calls]
    assert len(ode_solves) == 1
    cold = []
    for f in calls:
        lq._e1_trajectory.cache_clear()
        cold.append(f())
    assert warm == cold  # bit for bit, not approximately
    assert len(ode_solves) == 4


@pytest.mark.parametrize(
    "change",
    [
        dict(params=dict(a0=-0.6)),
        dict(params=dict(a1=ExponentialKernel(-2.5, 1 / 6))),
        dict(params=dict(b0=1.5)),
        dict(params=dict(b1=ExponentialKernel(2.0, math.inf))),
        dict(grid=SegmentGrid(0.5, 41)),
        dict(t=0.9),
        dict(dt=5e-3),
    ],
    ids=["a0", "a1", "b0", "b1", "grid", "t", "dt"],
)
def test_any_model_change_makes_a_new_solve(ode_solves, change):
    p = make_params(**MEMO_PARAMS)
    _exact_pair(p)
    changed = make_params(**dict(MEMO_PARAMS, **change.get("params", {})))
    kw = {k: v for k, v in change.items() if k != "params"}
    _exact_pair(changed, **kw)
    assert len(ode_solves) == 2


def test_memo_holds_one_model(ode_solves):
    # no result outlives the next model: going back re-solves
    p, q = make_params(**MEMO_PARAMS), make_params(**dict(MEMO_PARAMS, a0=-0.6))
    for model in (p, q, p):
        _exact_pair(model)
    assert len(ode_solves) == 3


def test_memo_arrays_are_read_only(ode_solves):
    p = make_params(**MEMO_PARAMS)
    arrays = lq._e1_trajectory(p, MEMO_GRID, 1.0, 1e-2)
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def _broadcast_q(p, grid, t, times, phi):
    """q as one (steps x nodes) read of phi, the form the lag loop replaced."""

    def phi_at(u):
        before = ~(u >= 0)
        out = np.interp(np.maximum(u, 0.0), times, phi)
        out[before] = 0.0
        return out

    b1v = kernel_eval(p.b1, grid.nodes, p.r)
    shifted = (t - times)[:, None] + grid.nodes[None, :]
    return p.b0 * phi_at(t - times) + phi_at(shifted) @ (grid.weights * b1v)


@pytest.mark.parametrize("b1_amp", [1.0, 5.0])
def test_lag_loop_q_matches_the_broadcast_form(b1_amp):
    # exact_fine's b1 settings: a1 = 0, 201 nodes, t = T, dt = 2.5e-4
    cfg = merged_config(None, {})
    p = build_params(dict(cfg, a1_amp=0.0, b1_amp=b1_amp))
    grid = SegmentGrid(cfg["r"], cfg["n_nodes"])
    xbar = lift_M(1.0, np.ones(grid.n_nodes), np.zeros(grid.n_nodes), p, grid)
    times, phi, q, _ = lq._e1_trajectory(p, grid, p.T, 2.5e-4)
    want = _broadcast_q(p, grid, p.T, times, phi)
    assert np.max(np.abs(q - want)) <= 1e-13 * np.max(np.abs(want))
    gamma, beta = cfg["gamma"], cfg["beta"]
    cs = solve_costate(p, gamma, beta, cfg["dt"])
    for policy in (optimal_policy_lq(cs, p), memoryless_policy(p, gamma, beta)):
        mean = trajectory_mean(p.T, xbar, policy, p, grid, 2.5e-4)
        z = np.clip(policy.sample(p, times), p.u_min, p.u_max)
        part = float(np.trapezoid(z * q, times))
        ref = mean - part + float(np.trapezoid(z * want, times))
        assert mean == pytest.approx(ref, rel=1e-13, abs=0)


def test_lag_loop_q_peak_memory():
    # one b1 solve at 201 nodes and dt = 2.5e-4 read phi through a
    # (4001 x 201) array of lag times: 13.1 MiB under tracemalloc
    cfg = merged_config(None, {})
    p = build_params(dict(cfg, a1_amp=0.0))
    grid = SegmentGrid(cfg["r"], cfg["n_nodes"])
    lq._e1_trajectory(p, grid, p.T, 2.5e-4)  # one-time set-up off the count
    lq._e1_trajectory.cache_clear()
    tracemalloc.start()
    try:
        lq._e1_trajectory(p, grid, p.T, 2.5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lq._e1_trajectory.cache_clear()
    assert peak <= 2**20


def test_variance_takes_a_point_b1(ode_solves):
    # b1 leaves the variance alone, so a point b1 is no refusal there
    p = make_params(**dict(MEMO_PARAMS, b1=PointDelay(1.0)))
    q = make_params(**dict(MEMO_PARAMS, b1=ExponentialKernel(0.0, math.inf)))
    assert trajectory_variance(1.0, p, MEMO_GRID, 1e-2) == trajectory_variance(
        1.0, q, MEMO_GRID, 1e-2
    )


# --- delay sensitivity --------------------------------------------------------


def _value_at_r(r, t, b1, a1, gamma=1.0, beta=0.5, **bounds):
    p = make_params(a0=-0.5, a1=a1, b1=b1, r=r, **bounds)
    grid = SegmentGrid(r, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    cs = solve_costate(p, gamma, beta, 1e-3)
    return value_lq(t, ProfileX(10.0, x1), cs, grid)


def test_sensitivity_reduced_formula_without_kernels():
    # b1 = a1 = 0: only the <w(t), x> boundary term survives, which reads
    # the costate r ahead of t
    p = make_params(a0=-0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    x = ProfileX(10.0, x1)
    t = 0.2
    got = sensitivity_dV_dr(t, x, p, 1.0, 0.5, 1e-3)
    expect = 1.0 * np.exp(-0.5 * (1.0 - t - 0.5)) * x1[0]
    assert got == pytest.approx(expect, rel=1e-9)


def test_sensitivity_vanishes_past_horizon():
    p = make_params(a0=-0.5, b1=ExponentialKernel(1.0, math.inf))
    grid = SegmentGrid(0.5, 201)
    x = ProfileX(1.0, np.exp(grid.nodes))
    assert sensitivity_dV_dr(0.8, x, p, 1.0, 0.5, 1e-3) == 0.0


# t is kept below T - r: at t + r = T the value has a kink in r and a
# centered difference averages the two one-sided slopes
@pytest.mark.parametrize("t", [0.0, 0.2, 0.4])
def test_sensitivity_closed_form_against_finite_difference(t):
    b1 = ExponentialKernel(2.0, math.inf)
    p = make_params(a0=-0.5, b1=b1, r=0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    got = sensitivity_dV_dr(t, ProfileX(10.0, x1), p, 1.0, 0.5, 1e-3)
    h = 0.005
    fd = (
        _value_at_r(0.5 + h, t, b1, ExponentialKernel(0.0, math.inf))
        - _value_at_r(0.5 - h, t, b1, ExponentialKernel(0.0, math.inf))
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-3 * (1 + abs(got)) + 2e-3)


def test_sensitivity_takes_the_closed_form_at_an_infinite_decay_scale():
    # ExponentialKernel(2, inf) is the constant density 2, so dV/dr is the
    # closed form of sensitivity_dV_dr's docstring; the quadrature of the
    # costate is 3.2e-8 off it here, which the finite differences above
    # cannot see at their 1e-3 tolerance
    a0, b0, b1, gamma, beta, r, T, t = -0.5, 1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 0.0
    p = make_params(
        a0=a0, a1=ExponentialKernel(0.0, 1.0), b0=b0, b1=ExponentialKernel(b1, math.inf),
        sigma=0.5, r=r, T=T, u_max=100.0,
    )
    cfg = merged_config(None, {})
    x = build_history(cfg, SegmentGrid(r, 201))
    got = sensitivity_dV_dr(t, ProfileX(x.x0, x.x1), p, gamma, beta, 1e-3)
    want = gamma * math.exp(a0 * (T - t - r)) * x.x1[0] + (
        b1 * gamma**2 / (4 * beta * a0)
        * (b0 + b1 * (1 - math.exp(-a0 * r)) / a0)
        * math.exp(-a0 * r)
        * (math.exp(2 * a0 * (T - t)) - math.exp(2 * a0 * r))
    )
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_sensitivity_quadrature_route_against_finite_difference():
    b1 = ExponentialKernel(3.0, 0.4)
    p = make_params(a0=-0.5, b1=b1, r=0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    t = 0.1
    got = sensitivity_dV_dr(t, ProfileX(10.0, x1), p, 1.0, 0.5, 1e-3)
    h = 0.005
    fd = (
        _value_at_r(0.5 + h, t, b1, ExponentialKernel(0.0, math.inf))
        - _value_at_r(0.5 - h, t, b1, ExponentialKernel(0.0, math.inf))
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-3 * (1 + abs(got)) + 2e-3)


@pytest.mark.parametrize(
    "b1", [ExponentialKernel(2.0, math.inf), ExponentialKernel(3.0, 0.4)],
    ids=["closed_form", "quadrature"],
)
def test_sensitivity_at_negative_gamma_against_finite_difference(b1):
    # gamma < 0 makes <B, w> negative, so z* = 0 and r moves the value only
    # through the boundary term: the second term pairs with <B, w>^+ = 0
    p = make_params(a0=-0.5, b1=b1, r=0.5)
    grid = SegmentGrid(0.5, 201)
    x1 = 10.0 * np.exp(-np.abs(grid.nodes))
    t = 0.1
    got = sensitivity_dV_dr(t, ProfileX(10.0, x1), p, -1.0, 0.5, 1e-3)
    h = 0.005
    fd = (
        _value_at_r(0.5 + h, t, b1, ExponentialKernel(0.0, math.inf), gamma=-1.0)
        - _value_at_r(0.5 - h, t, b1, ExponentialKernel(0.0, math.inf), gamma=-1.0)
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-3 * (1 + abs(got)) + 2e-3)
    # the boundary term alone, -e^{a0 (T-t-r)} x1(-r), up to the costate step
    assert got == pytest.approx(-np.exp(-0.5 * (1.0 - t - 0.5)) * x1[0], rel=1e-7)


@pytest.mark.parametrize("bounds", BOUNDS, ids=BOUND_IDS)
@pytest.mark.parametrize(
    "b1", [ExponentialKernel(2.0, math.inf), ExponentialKernel(3.0, 0.4)],
    ids=["constant", "exponential"],
)
def test_sensitivity_with_a_binding_bound_against_finite_difference(b1, bounds):
    # the second term pairs the clipped z* with w0(s + r); a constant b1
    # leaves its closed form, which assumes no bound binds
    p = make_params(a0=-0.5, b1=b1, r=0.5, **bounds)
    grid = SegmentGrid(0.5, 201)
    x = ProfileX(10.0, 10.0 * np.exp(-np.abs(grid.nodes)))
    t = 0.1
    got = sensitivity_dV_dr(t, x, p, 1.0, 0.5, 1e-3)
    errors = []
    for h in (0.04, 0.02):
        fd = (
            _value_at_r(0.5 + h, t, b1, ExponentialKernel(0.0, math.inf), **bounds)
            - _value_at_r(0.5 - h, t, b1, ExponentialKernel(0.0, math.inf), **bounds)
        ) / (2 * h)
        errors.append(abs(fd - got))
    # O(h^2): 3.7 to 4.1 per halving, while h is well above the costate step
    assert errors[1] <= 2e-4 * (1 + abs(got))
    assert 3.3 <= errors[0] / errors[1] <= 4.7


def test_sensitivity_rejects_a1():
    # with a1 != 0 the costate depends on r, a term the formula leaves out
    p = make_params(
        a0=-0.5, a1=ExponentialKernel(-2.0, 1 / 6), b1=ExponentialKernel(1.0, math.inf)
    )
    x = ProfileX(1.0, np.ones(201))
    with pytest.raises(ConfigurationError, match="needs a1 = 0"):
        sensitivity_dV_dr(0.0, x, p, 1.0, 0.5, 1e-3)


def test_sensitivity_domain_error():
    p = make_params()
    x = ProfileX(1.0, np.zeros(201))
    with pytest.raises(ConfigurationError):
        sensitivity_dV_dr(2.0, x, p, 1.0, 0.5, 1e-3)
    with pytest.raises(ConfigurationError, match=r"^t=nan outside \[0, 1.0\]$"):
        sensitivity_dV_dr(np.nan, x, p, 1.0, 0.5, 1e-3)
    with pytest.raises(ConfigurationError, match="^beta must be positive, got nan$"):
        sensitivity_dV_dr(0.0, x, p, 1.0, np.nan, 1e-3)
