import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goodwill
from goodwill import lq
from goodwill.cli import (
    KNOWN_KEYS,
    MAX_NODES,
    build_params,
    config_hash,
    load_defaults,
    main,
    merged_config,
)
from goodwill.sdde import ConfigurationError

SMALL = {"n_paths": 50, "dt": 0.01, "n_nodes": 51}
NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(SMALL)
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- package root -------------------------------------------------------------


def test_package_root_exposes_the_modules_and_errors_only():
    # a fresh interpreter: importing goodwill.cli here has bound `cli` on the
    # package too
    code = "import goodwill; print(*sorted(n for n in vars(goodwill) if n[0] != '_'))"
    env = dict(os.environ, PYTHONPATH=str(Path(goodwill.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == [
        "BlowupError", "ConfigurationError", "approximation", "hilbert",
        "lifting", "lq", "sdde", "state_delay",
    ]
    # one class for refused input, whichever module it is reached through
    assert goodwill.ConfigurationError is goodwill.hilbert.ConfigurationError
    assert goodwill.ConfigurationError is goodwill.sdde.ConfigurationError


# --- config handling ----------------------------------------------------------


def test_defaults_load_and_hash_stable():
    cfg = load_defaults()
    assert cfg["b0"] == 1.0
    assert config_hash(cfg) == config_hash(dict(cfg))
    assert len(config_hash(cfg)) == 16


def test_merged_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"typo_key": 1.0})
    with pytest.raises(ConfigurationError):
        merged_config(path, {})


def test_cli_unknown_key_exit_code(tmp_path):
    path = write_config(tmp_path, {"typo_key": 1.0})
    assert main(["fig1", "--config", path, "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize(
    "flag, name",
    [
        ("--config", "nope.json"),
        ("--config", "."),
        ("--out", "."),
        ("--out", "nope/v.json"),
        ("--out", "config.json/v.json"),
        ("--out", ""),
    ],
    ids=[
        "missing_config",
        "config_is_a_directory",
        "out_is_a_directory",
        "missing_parent",
        "parent_is_a_file",
        "empty_out",
    ],
)
def test_cli_unreadable_path_exit_code(tmp_path, capsys, monkeypatch, flag, name):
    # the one line that open() gives, before the Monte Carlo run
    def no_run(*args, **kw):
        raise AssertionError("the Monte Carlo run started")

    monkeypatch.setattr(goodwill.sdde, "evaluate_policy", no_run)
    config, out = write_config(tmp_path), str(tmp_path / "v.json")
    argv = ["evaluate", "--config", config, "--out", out]
    path = str(tmp_path / name) if name else ""
    argv[argv.index(flag) + 1] = path
    files = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    with pytest.raises(OSError) as opened:
        open(path, "w" if flag == "--out" else "r")
    assert capsys.readouterr().err == f"config error: {opened.value}\n"
    assert sorted(tmp_path.iterdir()) == files


@pytest.mark.parametrize(
    "data", [b"{a0", b"\xff"], ids=["not_json", "not_utf8"]
)
def test_config_that_is_not_json_is_a_config_error(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    with pytest.raises(ConfigurationError):
        merged_config(str(path), {})
    assert main(["costate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ["5", "null", "true", '["a0"]'])
def test_config_must_be_a_json_object(tmp_path, capsys, text):
    # dict.update reads a list of strings as key-value pairs: ["a0"] is a = "0"
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="must hold a JSON object"):
        merged_config(str(path), {})
    assert main(["costate", "--config", str(path)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_override_precedence(tmp_path):
    path = write_config(tmp_path, {"seed": 1})
    cfg = merged_config(path, {"seed": 99, "n_paths": None})
    assert cfg["seed"] == 99
    assert cfg["n_paths"] == 50


# --- fig1 ---------------------------------------------------------------------


def test_fig1_layout_and_rerun_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["fig1", "--config", path, "--out", out1]) == 0
    assert main(["fig1", "--config", path, "--out", out2]) == 0
    text = Path(out1).read_text()
    assert text == Path(out2).read_text()

    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert len(lines[0]) == len("# config_hash=") + 16
    assert lines[1] == "t,z_no_churn,z_goodwill_churn,z_advertising_churn,z_both"
    assert len(lines) == 2 + 101  # T/dt + 1 rows


def test_fig1_no_churn_column_is_memoryless(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "fig1.csv")
    assert main(["fig1", "--config", path, "--out", out]) == 0
    rows = [l.split(",") for l in Path(out).read_text().strip().split("\n")[2:]]
    t = np.array([float(r[0]) for r in rows])
    z = np.array([float(r[1]) for r in rows])
    cfg = load_defaults()
    expect = cfg["gamma"] * cfg["b0"] * np.exp(cfg["a0"] * (1.0 - t)) / (2 * cfg["beta"])
    np.testing.assert_allclose(z, expect, atol=1e-5)


# --- fig2 ---------------------------------------------------------------------


def test_fig2_zero_amplitude_gap_is_zero(tmp_path):
    path = write_config(tmp_path, {"amplitudes": [0.0]})
    out = str(tmp_path / "fig2.csv")
    assert main(["fig2", "--config", path, "--axis", "b1_amplitude", "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[1] == "amplitude,V_hat,V0_hat,gap,gap_stderr"
    amp, v, v0, gap, _ = (float(x) for x in lines[2].split(","))
    assert amp == 0.0
    # same seed and, up to costate integration error, the same policy
    assert v == pytest.approx(v0, rel=1e-7)
    assert abs(gap) <= 1e-7


@pytest.mark.parametrize(
    "command, key, header",
    [
        ("fig2", "amplitudes", "amplitude,V_hat,V0_hat,gap,gap_stderr"),
        ("sensitivity", "r_grid", "r,dV_dr_formula,dV_dr_finite_difference,abs_diff"),
    ],
    ids=["fig2", "sensitivity"],
)
def test_empty_sweep_prints_the_header_alone(tmp_path, command, key, header):
    path = write_config(tmp_path, {key: []})
    out = str(tmp_path / "empty.csv")
    assert main([command, "--config", path, "--out", out]) == 0
    lines = Path(out).read_text().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1:] == [header, ""]


@pytest.mark.parametrize(
    "axis, amplitudes",
    [("a1_amplitude", [0, -1, -2, -3, -4, -5]), ("b1_amplitude", [0, 1, 2, 3, 4, 5])],
)
def test_fig2_default_sweeps(tmp_path, axis, amplitudes):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--axis", axis, "--paths", "2", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=2)
    assert table[:, 0].tolist() == amplitudes


def test_fig2_positive_gap_with_churn(tmp_path):
    path = write_config(
        tmp_path, {"amplitudes": [3.0], "n_paths": 400}
    )
    out = str(tmp_path / "fig2.csv")
    assert main(["fig2", "--config", path, "--axis", "b1_amplitude", "--out", out]) == 0
    gap = float(Path(out).read_text().strip().split("\n")[2].split(",")[3])
    assert gap > 0.0


# --- sensitivity --------------------------------------------------------------


def test_sensitivity_formula_close_to_finite_difference(tmp_path):
    path = write_config(tmp_path, {"r_grid": [0.3, 0.4], "dt": 0.001})
    out = str(tmp_path / "sens.csv")
    assert main(["sensitivity", "--config", path, "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[1] == "r,dV_dr_formula,dV_dr_finite_difference,abs_diff"
    assert len(lines) == 2 + 2
    for line in lines[2:]:
        r, formula, fd, diff = (float(x) for x in line.split(","))
        assert diff <= 1e-3 * (1.0 + abs(fd))


# --- costate / evaluate / approx ----------------------------------------------


@pytest.mark.parametrize(
    "extra", [{}, {"u_min": 2.5}, {"u_max": 0.5}], ids=["defaults", "u_min", "u_max"]
)
def test_costate_output_columns(tmp_path, extra):
    path = write_config(tmp_path, extra)
    out = str(tmp_path / "costate.csv")
    assert main(["costate", "--config", path, "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[1] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 2 + 101
    # each column is the library's array, to 10 significant digits; both
    # controls are clipped to [u_min, u_max], the memoryless one as fig2
    # simulates it (it used to be printed unclipped, 0.61 to 1 under either
    # bound)
    cfg = merged_config(path, {})
    params = build_params(cfg)
    cs = lq.solve_costate(params, cfg["gamma"], cfg["beta"], cfg["dt"])
    zmem = lq.memoryless_policy(params, cfg["gamma"], cfg["beta"])
    expect = [
        cs.t, cs.w0, cs.c, lq.optimal_policy_lq(cs, params).z,
        np.clip(zmem.sample(params, cs.t), cfg["u_min"], cfg["u_max"]),
    ]
    got = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    for column, want in zip(got.T, expect):
        np.testing.assert_allclose(column, want, rtol=1e-9, atol=1e-12)


def test_evaluate_json_fields(tmp_path):
    path = write_config(tmp_path, {"n_paths": 200})
    out = str(tmp_path / "value.json")
    assert main(["evaluate", "--config", path, "--out", out]) == 0
    obj = json.loads(Path(out).read_text())
    assert set(obj) == {"config_hash", "mc", "analytic_value"}
    est = obj["mc"]
    assert set(est) == {"mean", "stderr", "n_paths", "seed", "z_score"}
    assert abs(est["mean"] - obj["analytic_value"]) <= 4 * est["stderr"] + 0.05
    # the z-score of the Monte Carlo mean against the analytic value
    assert est["z_score"] == (est["mean"] - obj["analytic_value"]) / est["stderr"]


def test_noiseless_evaluate_writes_a_null_z_score(tmp_path):
    # paths without spread (stderr 0) measure no distance in stderrs
    path = write_config(tmp_path, {"n_paths": 20, "sigma": 0.0})
    out = tmp_path / "value.json"
    assert main(["evaluate", "--config", path, "--out", str(out)]) == 0
    est = json.loads(out.read_text())["mc"]
    assert est["stderr"] == 0.0 and est["z_score"] is None


def test_one_path_evaluate_writes_a_null_stderr(tmp_path):
    # one path leaves the stderr undefined: JSON null, not the NaN token
    out = tmp_path / "value.json"
    assert main(["evaluate", "--paths", "1", "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    est = json.loads(out.read_text(), parse_constant=refuse)["mc"]
    assert est["n_paths"] == 1 and est["stderr"] is None and est["z_score"] is None
    assert np.isfinite(est["mean"])


def test_approx_output_table(tmp_path):
    path = write_config(
        tmp_path,
        {"n_paths": 100, "eps1_list": [0.0], "eps2_list": [0.2, 0.1]},
    )
    out = str(tmp_path / "approx.csv")
    assert main(["approx", "--config", path, "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[1] == "eps1,eps2,J_eps,stderr,gap"
    assert len(lines) == 2 + 2
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.2


def test_approx_steps_fit_the_grid_spacing(tmp_path):
    # r = 0.56 on 201 nodes has spacing 0.0028: T/0.0028 rounds down to 357
    # steps of 0.0028011, which broke the CFL check; 358 steps fit
    path = write_config(tmp_path, {
        "r": 0.56, "n_nodes": 201, "n_paths": 4,
        "eps1_list": [0.0], "eps2_list": [0.4],
    })
    out = str(tmp_path / "approx.csv")
    assert main(["approx", "--config", path, "--out", out]) == 0
    assert len(Path(out).read_text().strip().split("\n")) == 2 + 1


def test_approx_memory_stays_bounded_at_many_nodes(tmp_path):
    # 2001 nodes make approx take 4000 steps of 2.5e-4; the mollified cost
    # of that control path once needed (4000 x 2001) temporaries, 342 MB of
    # RSS. The child runs `python -m goodwill.cli` and reports its own peak.
    # Linux counts the high-water mark of the process that spawned it into
    # a child's ru_maxrss (vfork then exec), so the child is started from
    # a small launcher, not from pytest, whose own peak would count.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_nodes": 2001}))
    code = (
        "import resource, runpy, sys\n"
        "sys.argv = ['goodwill', 'approx', '--paths', '4', "
        "'--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "try:\n"
        "    runpy.run_module('goodwill.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = dict(os.environ, PYTHONPATH=str(Path(goodwill.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-c", code, str(path),
         str(tmp_path / "approx.csv")],
        capture_output=True, text=True, check=True, env=env, timeout=300,
    )
    assert int(out.stdout) / 1024 < 150  # ru_maxrss is in KiB on Linux


def test_u_max_may_be_infinite(tmp_path):
    # +Infinity is the one non-finite number with a meaning: no upper bound
    path = write_config(tmp_path, {"u_max": INF})
    assert main(["costate", "--config", path, "--out", str(tmp_path / "c.csv")]) == 0
    assert build_params(merged_config(path, {})).u_max == np.inf


def test_n_nodes_may_reach_the_cap(tmp_path):
    path = write_config(tmp_path, {"n_nodes": MAX_NODES})
    assert merged_config(path, {})["n_nodes"] == MAX_NODES == 10**4


def test_out_dash_writes_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["costate", "--config", path, "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 2 + 101


# --- feedback-check -----------------------------------------------------------


def test_feedback_check_json(capsys):
    # the condition is checked at the shipped delay r = 0.5, which the JSON
    # reports; the r = 1 numbers are pinned in test_state_delay
    assert main(["feedback-check", "--a0", "-1", "--a1", "-2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["r", "holds", "gamma_root", "upper_bound", "diagnostic"]
    assert obj["r"] == load_defaults()["r"] == 0.5
    assert obj["holds"] is True
    assert obj["gamma_root"] == pytest.approx(1.8366, abs=2e-4)

    # stable at r = 0.5 (rightmost root -0.611), though not at r = 1
    assert main(["feedback-check", "--a0", "-1", "--a1", "-2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True

    assert main(["feedback-check", "--a0", "-1", "--a1", "-4"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is False

    # a0 * r = 1.5: g*cot(g) = a0 * r has no root in ]0, pi[
    assert main(["feedback-check", "--a0", "3", "--a1", "-2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is False
    assert obj["gamma_root"] is None
    assert "no root" in obj["diagnostic"]


def test_feedback_check_near_the_float_limit_is_strict_json(capsys):
    # g*g + a*a overflows here, so the bound falls back to math.hypot
    assert main(["feedback-check", "--a0=-1e308", "--a1=-1e307"]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    obj = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert obj["upper_bound"] == pytest.approx(5e307)
    assert obj["holds"] is True


@pytest.mark.parametrize(
    "argv", [["--a0", "nan", "--a1", "-2"], ["--a0=-inf", "--a1=-1"]],
    ids=["a0_nan", "a0_minus_inf"],
)
def test_feedback_check_rejects_non_finite_input(capsys, argv):
    # a report of them could hold "upper_bound": Infinity, which is not JSON
    assert main(["feedback-check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: a0 and a1 must be finite")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["fig1", "costate", "sensitivity"])
def test_deterministic_subcommands_refuse_the_path_count(capsys, command):
    # they draw no noise, so --paths (and --seed) would only move the hash
    with pytest.raises(SystemExit) as exit_:
        main([command, "--paths", "5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --paths 5" in capsys.readouterr().err


# --- failure modes ------------------------------------------------------------


def test_blowup_exit_code(tmp_path):
    # a strongly self-exciting goodwill channel overflows the state guard
    path = write_config(tmp_path, {"a1_amp": 5000.0, "n_paths": 2})
    assert main(["evaluate", "--config", path, "--out", str(tmp_path / "x.json")]) == 3


def test_costate_overflow_exit_code(tmp_path, capsys):
    # an overflowing costate is a numerical failure, never NaN columns
    path = write_config(tmp_path, {"a1_amp": 1e8})
    out = tmp_path / "c.csv"
    assert main(["costate", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: costate w0")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, extra, message",
    [
        # gamma * x1(-r) overflows dV/dr's boundary term
        (
            "sensitivity",
            {"gamma": -1e300, "x0": 1e10, "r_grid": [0.5]},
            "the delay sensitivity left the finite range at t=0",
        ),
        # the control cost beta * z^2 overflows: this wrote rows of nan;
        # the costate's running term -beta z*^2 now meets it first
        # (test_convergence_cost_overflow_is_a_blowup covers J_eps's check)
        (
            "approx",
            {"u_min": 1e300, "u_max": 1e300, "sigma": 0},
            "costate c left the finite range at t=0.99",
        ),
        ("approx", {"a1_amp": -1e300, "gamma": 0}, "lifted evolution lost finiteness"),
    ],
    ids=["sensitivity_gamma_huge", "approx_cost_huge", "approx_a1_huge"],
)
def test_overflow_is_a_one_line_numerical_failure(
    tmp_path, capsys, command, extra, message
):
    # numpy's overflow warnings used to print ahead of the message
    path = write_config(tmp_path, extra)
    out = tmp_path / "v.csv"
    assert main([command, "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}")
    assert len(err.strip().splitlines()) == 1


def test_huge_objective_values_keep_a_finite_stderr(tmp_path):
    # the squared deviations of values near 1e300 overflow np.std; the
    # stderr was inf, which strict JSON refused as a "config error"
    path = write_config(tmp_path, {"gamma": -1e300})
    out = tmp_path / "value.json"
    assert main(["evaluate", "--config", path, "--out", str(out)]) == 0
    est = json.loads(out.read_text())["mc"]
    assert est["mean"] < -1e299 and 0 < est["stderr"] < 1e300


def test_sensitivity_quadrature_takes_a_huge_negative_gamma(tmp_path):
    # gamma < 0 gives z* = 0, so the second term is 0 and squares nothing;
    # pairing it with <B, w> itself overflowed at gamma^2
    path = write_config(tmp_path, {"gamma": -1e300, "r_grid": [0.5]})
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == 0
    formula, fd = map(float, out.read_text().split("\n")[2].split(",")[1:3])
    assert -1e302 < formula < -1e299
    assert formula == pytest.approx(fd, rel=1e-4)


def test_sensitivity_closed_form_takes_a_huge_gamma(tmp_path):
    # with b1 = 0 the gamma^2 term is 0; squaring gamma raised OverflowError
    path = write_config(tmp_path, {"gamma": -1e300, "b1_amp": 0, "r_grid": [0.5]})
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == 0
    formula = float(out.read_text().split("\n")[2].split(",")[1])
    assert -1e302 < formula < -1e299


@pytest.mark.parametrize(
    "command", ["fig1", "fig2", "sensitivity", "costate", "evaluate", "approx"]
)
def test_a_bug_is_a_traceback_not_a_config_error(tmp_path, monkeypatch, command):
    # main maps ConfigurationError, OSError and BlowupError alone: any other
    # ValueError is a bug, and it propagates. Each subcommand reaches its own
    # runner: the patched one raises, and no output file is written
    def boom(cfg, *axis):
        raise ValueError(f"boom {command}")

    monkeypatch.setattr(goodwill.cli, f"run_{command}", boom)
    out = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=f"^boom {command}$"):
        main([command, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("evaluate", {"sigma": "x"}, "sigma must be a number"),
        ("evaluate", {"x1_decay": 0}, "x1_decay must be positive"),
        ("evaluate", {"n_paths": 0}, "n_paths must be at least 1"),
        ("evaluate", {"amplitudes": ["a"]}, "amplitudes must be a list of numbers"),
        ("evaluate", {"amplitudes": 5}, "amplitudes must be a list of numbers"),
        ("evaluate", {"dt": 0}, "dt must be positive"),
        ("evaluate", {"sigma": -1}, "sigma must be >= 0"),
        # step counts past the ceiling fail before any array is allocated
        ("evaluate", {"T": 1e9}, "T/dt = 1e+11 steps exceeds the limit"),
        ("evaluate", {"dt": 1e-300}, "T/dt = 1e+300 steps exceeds the limit"),
        # seeds outside int64 would overflow the uint64 Philox key, or go
        # through float64 and share a key with a neighbouring seed
        ("evaluate", {"seed": 2**70}, "seed must be in [-2**63, 2**63)"),
        ("evaluate", {"seed": 2**63 + 1}, "seed must be in [-2**63, 2**63)"),
        # the optimal value is 0 at gamma = 0, and the gap is relative to it
        ("fig2", {"gamma": 0}, "fig2 needs gamma != 0"),
        # no goodwill, no advertising and no noise: the optimal value is
        # exactly 0 at gamma != 0; this used to end in a ZeroDivisionError
        (
            "fig2",
            {"x0": 0, "u_max": 0, "sigma": 0, "amplitudes": [0.0], "n_paths": 10},
            "the relative gap is undefined: the reference value is 0",
        ),
        # an optimal value whose square leaves the float range: these used to
        # end in a ZeroDivisionError and an OverflowError
        ("fig2", {"gamma": 1e-200}, "the relative gap is undefined: the reference"),
        ("fig2", {"gamma": -1e300, "x0": 0}, "the relative gap is undefined: the"),
        # the closed form of dV/dr (b1 = 0) divided by beta before any check
        ("sensitivity", {"b1_amp": 0, "beta": 0}, "beta must be positive, got 0"),
        # json reads NaN and Infinity; they used to run into nan rows or a
        # "numerical failure"
        ("sensitivity", {"x0": NAN}, "x0 must be finite, got nan"),
        ("sensitivity", {"t_eval": NAN}, "t_eval must be finite"),
        ("sensitivity", {"x1_decay": NAN}, "x1_decay must be finite"),
        ("evaluate", {"sigma": NAN}, "sigma must be finite"),
        ("fig2", {"x0": NAN}, "x0 must be finite"),
        ("fig2", {"x1_decay": NAN}, "x1_decay must be finite"),
        ("costate", {"a0": NAN}, "a0 must be finite"),
        ("costate", {"beta": NAN}, "beta must be finite"),
        ("costate", {"gamma": NAN}, "gamma must be finite"),
        ("costate", {"delta_a": NAN}, "delta_a must be finite"),
        # the delta keys are checked at every amplitude, 0 included
        ("costate", {"a1_amp": 0, "delta_a": -1}, "delta_a must be positive, got -1"),
        ("costate", {"b1_amp": 0, "delta_b": 0}, "delta_b must be positive, got 0"),
        ("costate", {"gamma": INF}, "gamma must be finite, got inf"),
        ("costate", {"u_max": -INF}, "u_max must be finite, got -inf"),
        ("costate", {"u_min": INF}, "u_min must be finite"),
        # costate builds the whole model, history included, though it uses
        # none of the history
        ("costate", {"x0": -1}, "histories must be non-negative and finite"),
        ("fig2", {"amplitudes": [1.0, NAN]}, "amplitudes entries must be finite"),
        ("sensitivity", {"r_grid": [INF]}, "r_grid entries must be finite"),
        # a grid past MAX_NODES is refused before it is built; these used to
        # run past a minute allocating it
        ("sensitivity", {"n_nodes": 100_000_000}, "n_nodes must be in [2, 10000]"),
        ("evaluate", {"n_nodes": 100_000_000}, "n_nodes must be in [2, 10000]"),
        ("approx", {"n_nodes": 100_000_000}, "n_nodes must be in [2, 10000]"),
        ("evaluate", {"n_nodes": 1}, "n_nodes must be in [2, 10000], got 1"),
        # refused before the 7 TiB array it would ask for
        ("evaluate", {"n_paths": 10**12}, "n_paths must be at most 1000000"),
    ],
    ids=[
        "sigma_type", "x1_decay_zero", "no_paths", "list_entry_type", "list_type",
        "dt_zero", "sigma_negative", "T_huge", "dt_tiny", "seed_huge",
        "seed_float_key", "fig2_gamma_zero", "fig2_value_zero", "fig2_value_tiny",
        "fig2_value_huge", "sensitivity_closed_form_beta_zero", "sensitivity_x0_nan",
        "sensitivity_t_eval_nan", "sensitivity_x1_decay_nan", "evaluate_sigma_nan",
        "fig2_x0_nan", "fig2_x1_decay_nan", "costate_a0_nan", "costate_beta_nan",
        "costate_gamma_nan", "costate_delta_a_nan", "costate_a1_zero_delta_a_negative",
        "costate_b1_zero_delta_b_zero", "gamma_inf", "u_max_minus_inf",
        "u_min_inf", "costate_x0_negative", "list_entry_nan", "list_entry_inf",
        "sensitivity_n_nodes_huge", "evaluate_n_nodes_huge", "approx_n_nodes_huge", "n_nodes_one",
        "n_paths_huge",
    ],
)
def test_bad_config_is_a_one_line_config_error(
    tmp_path, capsys, command, extra, message
):
    path = write_config(tmp_path, extra)
    out = tmp_path / "v.json"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert len(err.strip().splitlines()) == 1



# --- fuzzing ------------------------------------------------------------------

# cheap runs: few paths, a coarse step and grid, one-entry sweeps
FUZZ_BASE = {
    "n_paths": 4, "dt": 0.01, "n_nodes": 11,
    "amplitudes": [2.0], "r_grid": [0.5], "eps1_list": [0.0], "eps2_list": [0.2],
}
# edge values of every JSON type; none of them is under its cap yet makes
# the work grow
FUZZ_POOL = [
    0, -0.0, 1e-300, -1e-300, 1e300, -1e300, -1, 0.5, 2, NAN, INF, -INF, 2**63,
    "x", True, None, [], ["a"], {},
]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(
        ["fig1", "costate", "sensitivity", "evaluate", "fig2", "approx"]
    ),
    extra=st.dictionaries(
        st.sampled_from(sorted(KNOWN_KEYS)), st.sampled_from(FUZZ_POOL),
        min_size=1, max_size=3,
    ),
)
def test_fuzzed_config_exits_0_2_or_3_with_one_line(command, extra):
    # no exception escapes main, and no warning either (the suite makes a
    # RuntimeWarning an error); a refusal or a failure is one line
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump({**FUZZ_BASE, **extra}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        assert code in (0, 2, 3)
        assert os.path.exists(out) == (code == 0)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("config error: ", "numerical failure: "))
