import json

import pytest

from goodwill.cli import config_hash, load_defaults, main, merged_config
from goodwill.sdde import ConfigurationError

SMALL = {"n_paths": 50, "dt": 0.01, "n_nodes": 51}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(SMALL)
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["fig1", "--config", str(tmp_path / "nope.json")]) == 2


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
    text = open(out1).read()
    assert text == open(out2).read()

    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert len(lines[0]) == len("# config_hash=") + 16
    assert lines[1] == "t,z_no_churn,z_goodwill_churn,z_advertising_churn,z_both"
    assert len(lines) == 2 + 101  # T/dt + 1 rows


def test_fig1_no_churn_column_is_memoryless(tmp_path):
    import numpy as np

    path = write_config(tmp_path)
    out = str(tmp_path / "fig1.csv")
    assert main(["fig1", "--config", path, "--out", out]) == 0
    rows = [l.split(",") for l in open(out).read().strip().split("\n")[2:]]
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
    lines = open(out).read().strip().split("\n")
    assert lines[1] == "amplitude,V_hat,V0_hat,gap,gap_stderr"
    amp, v, v0, gap, _ = (float(x) for x in lines[2].split(","))
    assert amp == 0.0
    # same seed and, up to costate integration error, the same policy
    assert v == pytest.approx(v0, rel=1e-7)
    assert abs(gap) <= 1e-7


def test_fig2_positive_gap_with_churn(tmp_path):
    path = write_config(
        tmp_path, {"amplitudes": [3.0], "n_paths": 400}
    )
    out = str(tmp_path / "fig2.csv")
    assert main(["fig2", "--config", path, "--axis", "b1_amplitude", "--out", out]) == 0
    gap = float(open(out).read().strip().split("\n")[2].split(",")[3])
    assert gap > 0.0


# --- sensitivity --------------------------------------------------------------


def test_sensitivity_formula_close_to_finite_difference(tmp_path):
    path = write_config(tmp_path, {"r_grid": [0.3, 0.4], "dt": 0.001})
    out = str(tmp_path / "sens.csv")
    assert main(["sensitivity", "--config", path, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[1] == "r,dV_dr_formula,dV_dr_finite_difference,abs_diff"
    assert len(lines) == 2 + 2
    for line in lines[2:]:
        r, formula, fd, diff = (float(x) for x in line.split(","))
        assert diff <= 1e-3 * (1.0 + abs(fd))


# --- costate / evaluate / approx ----------------------------------------------


def test_costate_output_columns(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "costate.csv")
    assert main(["costate", "--config", path, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[1] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 2 + 101


def test_evaluate_json_fields(tmp_path):
    path = write_config(tmp_path, {"n_paths": 200})
    out = str(tmp_path / "value.json")
    assert main(["evaluate", "--config", path, "--out", out]) == 0
    obj = json.loads(open(out).read())
    assert set(obj) == {"config_hash", "mc", "analytic_value"}
    est = obj["mc"]
    assert abs(est["mean"] - obj["analytic_value"]) <= 4 * est["stderr"] + 0.05


def test_approx_output_table(tmp_path):
    path = write_config(
        tmp_path,
        {"n_paths": 100, "eps1_list": [0.0], "eps2_list": [0.2, 0.1]},
    )
    out = str(tmp_path / "approx.csv")
    assert main(["approx", "--config", path, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[1] == "eps1,eps2,J_eps,stderr,gap"
    assert len(lines) == 2 + 2


def test_out_dash_writes_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["costate", "--config", path, "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,w0,c,z_star,z_memoryless"
    assert len(lines) == 2 + 101


# --- feedback-check -----------------------------------------------------------


def test_feedback_check_json(capsys):
    assert main(["feedback-check", "--a0", "-1", "--a1", "-2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is True
    assert obj["gamma_root"] == pytest.approx(2.0288, abs=2e-4)

    assert main(["feedback-check", "--a0", "-1", "--a1", "-3"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is False

    assert main(["feedback-check", "--a0", "-1", "--a1", "-2", "--variant", "coth"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is False
    assert "no root" in obj["diagnostic"]


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
    "extra, message",
    [
        ({"sigma": "x"}, "sigma must be a number"),
        ({"x1_decay": 0}, "x1_decay must be positive"),
        ({"n_paths": 0}, "n_paths must be at least 1"),
        ({"amplitudes": ["a"]}, "amplitudes must be a list of numbers"),
        ({"amplitudes": 5}, "amplitudes must be a list of numbers"),
        ({"dt": 0}, "dt must be positive"),
        ({"sigma": -1}, "sigma must be >= 0"),
    ],
    ids=[
        "sigma_type", "x1_decay_zero", "no_paths", "list_entry_type", "list_type",
        "dt_zero", "sigma_negative",
    ],
)
def test_bad_config_is_a_one_line_config_error(tmp_path, capsys, extra, message):
    path = write_config(tmp_path, extra)
    out = tmp_path / "v.json"
    assert main(["evaluate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert len(err.strip().splitlines()) == 1
