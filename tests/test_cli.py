"""Command-line interface: exit codes, file outputs, config handling."""
import argparse
import csv
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from averbound import cli, direct, export, ode
from averbound.examples import make_resonant, register_system
from averbound.direct import run_direct
from averbound.cli import (ConfigError, load_user_system, main, resolve_config,
                           build_parser)


def run_cli(*argv):
    return main(list(argv))


_STATS_KEYS = {"accepted", "rejected", "nan_retries", "rhs_evals",
               "stop_calls", "h_min", "h_max", "rhs_error"}


def assert_step_stats(stats, initial_calls):
    """A sidecar's step counts, of a completed run with a stop predicate in
    which no rhs call raised; ``initial_calls`` is one more than the number
    of ``ode.integrate`` calls summed."""
    assert set(stats) == _STATS_KEYS
    assert stats["accepted"] > 0 and stats["nan_retries"] == 0
    attempts = stats["accepted"] + stats["rejected"]
    assert stats["rhs_evals"] == 6 * attempts + initial_calls
    # one stop check at each start and after each accepted step
    assert stats["stop_calls"] == stats["accepted"] + initial_calls - 1
    assert stats["rhs_error"] is None
    assert 0 < stats["h_min"] <= stats["h_max"]


def test_estimate_writes_table_and_sidecar(tmp_path):
    out = tmp_path / "est.csv"
    code = run_cli("estimate", "--figure", "3e", "--u", "10")
    assert code == 1      # presets are complete; extra knobs are an error

    code = run_cli("estimate", "--figure", "3e", "--out", str(out))
    assert code == 0
    table = export.read_table(out)
    assert list(table) == ["tau", "J_1", "R_11", "K_1", "m", "n"]
    assert np.all(np.diff(table["tau"]) > 0)
    assert np.all(table["n"] > 0)
    sidecar = json.loads((tmp_path / "est.json").read_text())
    assert sidecar["status"] == "completed"
    assert sidecar["ell0"] > 0 and sidecar["wall_time_s"] > 0
    assert sidecar["violation_kind"] is None
    assert sidecar["window_mode"] == "auto"
    # the slow solve: its slope and the initial step's probe come first
    assert_step_stats(sidecar["stats"], initial_calls=2)


def test_estimate_rejects_nonpositive_horizon(tmp_path):
    code = run_cli("estimate", "--example", "resonant", "--i0", "2",
                   "--eps", "0.01", "--u", "0",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 1


_BUILTIN_FLAGS = {
    "vdp": ["--example", "vdp", "--i0", "0.5"],
    "action-freq+1": ["--example", "action-freq", "--kappa", "1", "--i0", "0.8"],
    "action-freq-1": ["--example", "action-freq", "--kappa", "-1", "--i0", "1"],
    "resonant": ["--example", "resonant", "--i0", "2"],
    "euler-top": ["--example", "euler-top", "--mu", "1", "--l1", "2",
                  "--l2", "-1", "--i0", "4,4"],
}


@pytest.mark.parametrize("command", ["estimate", "compare", "verify"])
@pytest.mark.parametrize("system", list(_BUILTIN_FLAGS))
def test_uncertified_theta0_exits_1(tmp_path, capsys, command, system):
    out = tmp_path / "out.csv"
    code = run_cli(command, *_BUILTIN_FLAGS[system], "--eps", "1e-2",
                   "--u", "0.5", "--theta0", "1.0", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: theta0 = 1 is not certified: the identity "
                          "v(I0, theta0) = 0 fails with |v| = ")
    assert not out.exists()


def test_estimate_unknown_preset():
    assert run_cli("estimate", "--figure", "7q") == 1


def test_estimate_domain_violation_exit_code(tmp_path):
    code = run_cli("estimate", "--example", "action-freq", "--kappa", "1",
                   "--i0", "1", "--eps", "0.01", "--u", "1.0",
                   "--out", str(tmp_path / "blow.csv"))
    assert code == 2
    sidecar = json.loads((tmp_path / "blow.json").read_text())
    assert sidecar["status"] == "domain_violation"
    assert sidecar["violation_kind"] == "n_exceeds_rho_over_eps"
    assert sidecar["tau_final"] < 1.0


def test_estimate_step_failure_exits_1(tmp_path):
    # Euler-top from the 4b data at U = 10 ends in step_failure, where
    # 1 - eps * d(offset)/dr nears zero.
    code = run_cli("estimate", "--example", "euler-top", "--mu", "1",
                   "--l1", "2", "--l2", "-1", "--i0", "4,1", "--eps", "1e-2",
                   "--u", "10", "--out", str(tmp_path / "edge.csv"))
    assert code == 1
    sidecar = json.loads((tmp_path / "edge.json").read_text())
    assert sidecar["status"] == "step_failure"
    assert sidecar["violation_kind"] is None
    assert sidecar["tau_final"] == pytest.approx(1.383028, rel=1e-6)


def test_estimate_json_format(tmp_path):
    # The table a json run writes reads back as the csv run's, and its
    # sidecar takes the .meta.json name.
    out, ref_out = tmp_path / "est.json", tmp_path / "csv" / "est.csv"
    assert run_cli("estimate", "--figure", "3e", "--format", "json",
                   "--out", str(out)) == 0
    assert run_cli("estimate", "--figure", "3e", "--out", str(ref_out)) == 0
    table, ref = export.read_table(out), export.read_table(ref_out)
    assert list(table) == ["tau", "J_1", "R_11", "K_1", "m", "n"]
    for name in ref:
        assert np.array_equal(table[name], ref[name])
    sidecar = json.loads((tmp_path / "est.meta.json").read_text())
    assert sidecar["status"] == "completed"


def test_default_output_paths(tmp_path, monkeypatch):
    # Without --out a run writes into the working directory, under a name
    # made of the command, the label and the format.
    monkeypatch.chdir(tmp_path)
    assert run_cli("estimate", "--figure", "3e") == 0
    (tmp_path / "json").mkdir()
    monkeypatch.chdir(tmp_path / "json")
    assert run_cli("estimate", "--figure", "3e", "--format", "json") == 0
    written = sorted(str(path.relative_to(tmp_path))
                     for path in tmp_path.rglob("*.*"))
    assert written == ["averbound_estimate_figure-3e.csv",
                       "averbound_estimate_figure-3e.json",
                       "json/averbound_estimate_figure-3e.json",
                       "json/averbound_estimate_figure-3e.meta.json"]
    table = export.read_table(tmp_path / written[2])
    assert list(table) == ["tau", "J_1", "R_11", "K_1", "m", "n"]


def test_estimate_long_resonant_preset_is_fast(tmp_path):
    # the slow-time run over U=200 finishes in a fraction of a second
    out = tmp_path / "long.csv"
    assert run_cli("estimate", "--figure", "3f", "--out", str(out)) == 0
    sidecar = json.loads((tmp_path / "long.json").read_text())
    assert sidecar["status"] == "completed"
    assert sidecar["wall_time_s"] < 5.0


def test_estimate_two_dimensional_columns(tmp_path):
    out = tmp_path / "top.csv"
    code = run_cli("estimate", "--example", "euler-top", "--mu", "1",
                   "--l1", "2", "--l2", "-1", "--i0", "4,4",
                   "--eps", "0.01", "--u", "1", "--out", str(out))
    assert code == 0
    table = export.read_table(out)
    assert list(table) == ["tau", "J_1", "J_2", "R_11", "R_12", "R_21",
                           "R_22", "K_1", "K_2", "m", "n"]


def test_direct_output_columns(tmp_path):
    out = tmp_path / "dir.csv"
    code = run_cli("direct", "--figure", "2a", "--out", str(out))
    assert code == 0
    table = export.read_table(out)
    assert list(table) == ["t", "tau", "L_1", "absL", "theta_mod_2pi"]
    assert np.allclose(table["tau"], 1e-2 * table["t"])
    assert np.all(table["theta_mod_2pi"] >= 0)
    assert np.all(table["theta_mod_2pi"] < 2 * math.pi)
    assert np.allclose(table["absL"], np.abs(table["L_1"]))
    sidecar = json.loads((tmp_path / "dir.json").read_text())
    # one slope per chunk, plus the initial step's probe in the first
    stats = sidecar["direct_stats"]
    assert_step_stats(stats, initial_calls=direct._BUDGET_CHUNKS + 1)
    assert stats["accepted"] == table["t"].size - 1
    assert_step_stats(sidecar["averaged_stats"], initial_calls=2)


def test_direct_budget_exit(tmp_path):
    out = tmp_path / "budget.csv"
    code = run_cli("direct", "--figure", "2d", "--budget", "1e-9",
                   "--out", str(out))
    assert code == 3
    sidecar = json.loads((tmp_path / "budget.json").read_text())
    assert sidecar["budget_exceeded"] is True
    table = export.read_table(out)          # partial table still flushed
    assert table["t"].size > 0
    assert table["t"][-1] < 200.0 / 1e-2


def test_compare_outputs(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", "--figure", "2a", "--out", str(out))
    assert code == 0
    table = export.read_table(out)
    assert list(table) == ["tau", "n", "envelope_absL"]
    assert np.all(table["envelope_absL"] <= table["n"] * (1 + 1e-9))
    sidecar = json.loads((tmp_path / "cmp.json").read_text())
    assert sidecar["headline"]["violations"] == 0
    assert sidecar["time_ratio"] < 1.0
    assert sidecar["wall_time_estimate_s"] > 0
    assert sidecar["wall_time_direct_s"] > 0
    assert_step_stats(sidecar["direct_stats"],
                      initial_calls=direct._BUDGET_CHUNKS + 1)
    assert_step_stats(sidecar["averaged_stats"], initial_calls=2)


@pytest.mark.parametrize("window", ["1e-20", "1e-300"])
def test_compare_refuses_a_window_too_small_to_index(tmp_path, capsys,
                                                      monkeypatch, window):
    # The window is refused with one error line naming the flag, before
    # either solve runs, and with no numpy warning rather than a traceback.
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the window was refused")

    monkeypatch.setattr(cli, "run_estimator", no_solve)
    monkeypatch.setattr(cli, "run_direct", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("compare", "--figure", "2a", "--env-window", window,
                       "--out", str(tmp_path / "c.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: --env-window: window width {float(window)!r} is "
                   f"too small for the slow span 0.9: its window index "
                   f"overflows\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


def test_compare_domain_violation_propagates(tmp_path, capsys):
    code = run_cli("compare", "--example", "action-freq", "--kappa", "1",
                   "--i0", "1", "--eps", "0.01", "--u", "1.0",
                   "--out", str(tmp_path / "c.csv"))
    assert code == 2
    printed = capsys.readouterr().out
    assert "n_exceeds_rho_over_eps" in printed
    assert "ViolationKind." not in printed


@pytest.mark.parametrize("status, want", [(ode.Status.STOPPED, 2),
                                          (ode.Status.STEP_FAILURE, 1)])
def test_compare_exits_with_an_incomplete_direct_run(tmp_path, monkeypatch,
                                                     status, want):
    def cut_short(*args, **kwargs):
        dtraj = run_direct(*args, **kwargs)
        dtraj.traj.status = status
        return dtraj

    monkeypatch.setattr(cli, "run_direct", cut_short)
    code = run_cli("compare", "--figure", "3e", "--out", str(tmp_path / "c.csv"))
    assert code == want


def test_verify_vdp_all_pass(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--example", "vdp", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert names == ["auxiliary-identities", "bound-domination",
                     "integral-identity", "analytic-crosscheck"]
    assert all(c["passed"] for c in payload["checks"])
    assert all(set(c) == {"name", "samples", "tolerance", "max_residual",
                          "violations", "passed", "details"}
               for c in payload["checks"])
    assert_step_stats(payload["estimator_stats"], initial_calls=2)
    assert_step_stats(payload["averaged_stats"], initial_calls=2)
    assert_step_stats(payload["direct_stats"],
                      initial_calls=direct._BUDGET_CHUNKS + 1)


def test_verify_exits_1_when_the_averaged_actions_leave_the_domain(tmp_path,
                                                                  capsys):
    # At the verify defaults, I0 = 1 and U = 1, action-freq at kappa = +1
    # blows up at tau = 1/I0 = U: the averaged solve stops before U.
    out = tmp_path / "v.json"
    code = run_cli("verify", "--example", "action-freq", "--kappa", "1",
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: averaged actions left the domain before U\n"
    assert not out.exists()


def test_verify_refuses_before_its_checks_when_the_averaged_solve_fails(
        tmp_path, monkeypatch, capsys):
    # The averaged solve runs first: the job above refuses before the
    # identity suite and the estimator, whose results it could not report.
    def refused(*args, **kwargs):
        raise AssertionError("ran before the averaged solve refused")
    monkeypatch.setattr(cli, "verify_identities", refused)
    monkeypatch.setattr(cli, "run_estimator", refused)
    out = tmp_path / "v.json"
    code = run_cli("verify", "--example", "action-freq", "--kappa", "1",
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: averaged actions left the domain before U\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_an_unwritable_output_path_is_an_error_not_a_traceback(
        tmp_path, capsys, command):
    # The output's directory is an existing file: the write fails with an
    # OSError, which main reports as it reports the other failures.
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = (["--figure", "3e"] if command == "estimate"
            else ["--example", "resonant", "--u", "0.5"])
    code = run_cli(command, *argv, "--out", str(blocker / "x.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_absorbed_rhs_error_reaches_the_sidecar(tmp_path):
    # An f that divides by zero once, on the list of a fast-time call: the
    # step is retried at half size, and the sidecar names the exception.
    calls = 0

    def flaky(params):
        example = make_resonant()
        resonant_f = example.f

        def f(i, th):
            nonlocal calls
            calls += 1
            return [i[0] / 0.0] if calls == 100 else resonant_f(i, th)
        return dataclasses.replace(example, f=f)

    register_system("flaky-resonant", flaky)
    out = tmp_path / "flaky.csv"
    code = run_cli("direct", "--example", "flaky-resonant", "--i0", "2",
                   "--eps", "1e-2", "--u", "0.5", "--out", str(out))
    assert code == 0 and calls > 100
    sidecar = json.loads((tmp_path / "flaky.json").read_text())
    stats = sidecar["direct_stats"]
    assert stats["rhs_error"] == "ZeroDivisionError: float division by zero"
    assert stats["nan_retries"] == 1
    assert sidecar["averaged_stats"]["rhs_error"] is None


def test_full_node_buffers_reach_the_sidecar(tmp_path, monkeypatch):
    # A direct run whose node buffers fill ends in step_failure, exits 1,
    # and its sidecar names the cap.
    monkeypatch.setattr(ode, "_NODE_BYTES_MAX", 1000 * 8 * 5)
    out = tmp_path / "capped.csv"
    code = run_cli("direct", "--figure", "1a", "--out", str(out))
    assert code == 1
    sidecar = json.loads((tmp_path / "capped.json").read_text())
    assert sidecar["status"] == "step_failure"
    assert not sidecar["budget_exceeded"]
    assert sidecar["direct_stats"]["rhs_error"] == (
        "step attempts reached the node budget of "
        "ode._NODE_BYTES_MAX = 40000 bytes")
    assert sidecar["averaged_stats"]["rhs_error"] is None


def test_verify_euler_top_params(tmp_path):
    code = run_cli("verify", "--example", "euler-top", "--mu", "1",
                   "--l1", "2", "--l2", "-1", "--i0", "4,4",
                   "--eps", "0.01", "--u", "0.5",
                   "--out", str(tmp_path / "et.json"))
    assert code == 0
    bad = run_cli("verify", "--example", "euler-top", "--mu", "3",
                  "--l1", "2", "--l2", "-1", "--i0", "4,4",
                  "--eps", "0.01", "--u", "0.5")
    assert bad == 1


def test_csv_roundtrip_is_lossless(tmp_path):
    rows = np.array([[1 / 3, math.pi], [1e-17, -2.5000000000000004],
                     [math.inf, -math.inf], [math.nan, -0.0],
                     [5e-324, 2.2250738585072014e-308], [1e300, -1e300]])
    path = export.write_table(tmp_path / "t.csv", ["a", "b"], rows)
    back = export.read_table(path)
    for name, column in zip(("a", "b"), rows.T):
        assert np.array_equal(back[name], column, equal_nan=True)
        assert np.array_equal(np.signbit(back[name]), np.signbit(column))
    # Byte for byte what csv.writer writes with 17 significant digits.
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["a", "b"])
    for row in rows:
        writer.writerow(["{:.17g}".format(x) for x in row])
    assert path.read_bytes() == ref.getvalue().encode()


def test_json_table_roundtrip(tmp_path):
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = export.write_table(tmp_path / "t.json", ["x", "y"], rows, fmt="json")
    back = export.read_table(path)
    assert np.array_equal(back["x"], rows[:, 0])
    assert np.array_equal(back["y"], rows[:, 1])


def test_config_file_selects_preset(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# comment line\nfigure = 2d\nrtol = 1e-8\n")
    cfg = load_user_system(cfg_path)
    assert cfg.example.id == "action-freq"
    assert cfg.example.params["kappa"] == -1
    assert cfg.i0[0] == 1.0 and cfg.eps == 1e-2 and cfg.u == 200.0
    assert cfg.rtol == 1e-8


def test_config_file_explicit_system(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "system = euler-top\nmu = 1\nl1 = 2\nl2 = -1\n"
        "i0 = 4,4\neps = 1e-2\nu = 1\nbudget = 60\n")
    cfg = load_user_system(cfg_path)
    assert cfg.example.id == "euler-top"
    assert cfg.i0.tolist() == [4.0, 4.0]
    assert cfg.budget == 60.0


@pytest.mark.parametrize("body,fragment", [
    ("", "empty config"),
    ("system = resonant\ni0 = 2\neps = 0\nu = 1\n", "eps must be positive"),
    ("system = resonant\ni0 = 2\neps = 1e-2\n", "missing required key"),
    ("system = nope\ni0 = 2\neps = 1e-2\nu = 1\n", "unknown system"),
    ("figure = 2d\ni0 = 3\n", "conflicts"),
    ("bogus_key = 1\nsystem = resonant\ni0 = 2\neps = 1e-2\nu = 1\n",
     "unknown key"),
    ("system = resonant\nsystem = vdp\ni0 = 2\neps = 1e-2\nu = 1\n",
     "duplicate key"),
    ("just some text\n", "expected 'key = value'"),
    ("figure = 2d\ntheta0 = 1.0\n", "conflicts"),
    ("figure = 2d\nkappa = 1\n", "conflicts"),
    ("system = vdp\nexample = resonant\ni0 = 2\neps = 1e-2\nu = 1\n",
     "duplicate key"),
    ("system = euler-top\nmu = 1\nl1 = 2\nlambda1 = 5\nl2 = -1\n"
     "i0 = 4,4\neps = 1e-2\nu = 1\n", "duplicate key"),
    ("system = vdp\nmu = 3\ni0 = 2\neps = 1e-2\nu = 1\n", "no parameter"),
    ("system = action-freq\nkappa = 1.7\ni0 = 1\neps = 1e-2\nu = 0.5\n",
     "kappa must be"),
    ("figure = 3e\nenv_window = 0\n", "env_window must be positive"),
    ("figure = 3e\nenv_window = -1\n", "env_window must be positive"),
    ("figure = 3e\nbudget = 0\n", "budget must be positive"),
    ("figure = 3e\nbudget = -5\n", "budget must be positive"),
    ("system = resonant\ni0 = 2\neps = nan\nu = 1\n",
     "eps must be a finite number"),
    ("system = euler-top\nmu = 1\ni0 = 4,4\neps = 1e-2\nu = 1\n",
     "requires parameters"),
    ("system = resonant\ni0 =\neps = 1e-2\nu = 1\n", ":2: empty key or value"),
    # a window whose index overflows names its line, before any solve
    ("figure = 2a\nenv_window = 1e-20\n",
     ":2: window width 1e-20 is too small for the slow span 0.9"),
])
def test_config_file_errors(tmp_path, body, fragment):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        load_user_system(cfg_path)


_RESONANT = ["--i0", "2", "--eps", "1e-2", "--u", "1"]


@pytest.mark.parametrize("flags,body,fragment", [
    (["--figure", "2d", "--theta0", "1.0"], None, "conflicts"),
    (["--figure", "2d", "--kappa", "1"], None, "conflicts"),
    (["--example", "resonant"], "system = vdp\n", "excludes"),
    (["--l1", "2"], "system = euler-top\nmu = 1\nlambda1 = 5\nl2 = -1\n"
     "i0 = 4,4\neps = 1e-2\nu = 1\n", "duplicate key"),
    (["--example", "vdp", "--mu", "3"] + _RESONANT, None, "no parameter"),
    (["--example", "action-freq", "--kappa", "1.7"] + _RESONANT, None,
     "kappa must be"),
    (["--example", "resonant", "--eps", "abc", "--i0", "2", "--u", "1"], None,
     "must be a number"),
    (["--figure", "3e", "--env-window", "0"], None,
     "env_window must be positive"),
    (["--figure", "3e", "--env-window", "-1"], None,
     "env_window must be positive"),
    (["--figure", "3e", "--budget", "0"], None, "budget must be positive"),
    (["--figure", "3e", "--budget", "-5"], None, "budget must be positive"),
    (["--example", "vdp", "--i0", "1", "--eps", "1e-2", "--u", "1",
      "--theta0", "nan"], None, "theta0 must be a finite number"),
    (["--example", "resonant", "--i0", "2", "--eps", "1e-2", "--u", "inf"],
     None, "u must be a finite number"),
    (["--example", "resonant", "--i0", "inf", "--eps", "1e-2", "--u", "1"],
     None, "i0 must be a finite number"),
    (["--figure", "3e", "--window", "0.5,nan,0.26"], None,
     "window must be a finite number"),
    (["--example", "euler-top", "--mu", "1", "--l1", "2", "--l2", "-1",
      "--i0", "4", "--eps", "1e-2", "--u", "1"], None,
     "^--i0: i0 must have 2 component\\(s\\), got 1$"),
    (["--example", "resonant", "--i0", "two", "--eps", "1e-2", "--u", "1"],
     None, "i0 must be comma-separated numbers, got 'two'"),
    (["--figure", "2a", "--env-window", "1e-20"], None,
     "^--env-window: window width 1e-20 is too small for the slow span 0.9"),
    (["--u", "200"], "system = vdp\ni0 = 4\neps = 1e-3\nenv_window = 1e-20\n",
     ":4: window width 1e-20 is too small for the slow span 200.0"),
])
def test_flag_errors(tmp_path, flags, body, fragment):
    if body is not None:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(body)
        flags = flags + ["--config", str(cfg_path)]
    args = build_parser().parse_args(["estimate"] + flags)
    with pytest.raises(ConfigError, match=fragment):
        resolve_config(args)


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_is_a_config_error(tmp_path, name):
    # a missing file and a directory alike
    path = tmp_path / name
    prefix = re.escape(f"cannot read config {path}: ")
    with pytest.raises(ConfigError, match="^" + prefix):
        load_user_system(path)
    args = build_parser().parse_args(["estimate", "--config", str(path)])
    with pytest.raises(ConfigError, match="^cannot read config "):
        resolve_config(args)


def test_config_file_flags_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("system = resonant\ni0 = 2\neps = 1e-2\nu = 1\n")
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(
        ["estimate", "--config", str(cfg_path), "--i0", "3", "--eps", "0.5",
         "--u", "7", "--theta0", "1"]))
    assert cfg.example.id == "resonant"
    assert cfg.i0.tolist() == [3.0]
    assert (cfg.eps, cfg.u, cfg.theta0) == (0.5, 7.0, 1.0)
    # verify fills in i0, eps and u for a file as it does for flags
    cfg_path.write_text("system = vdp\n")
    cfg = resolve_config(parser.parse_args(["verify", "--config", str(cfg_path)]))
    assert (cfg.eps, cfg.u) == (1e-2, 1.0)


def test_usage_errors_exit_1():
    def code(*argv):
        try:
            return run_cli(*argv)
        except SystemExit as exc:
            return exc.code
    assert code("estimate", "--figure", "3e", "--no-such-flag") == 1
    assert code("estimate", "--figure", "3e", "--format", "xml") == 1
    assert code("no-such-command") == 1
    assert code("estimate", "--help") == 0
    assert code("--help") == 0
    assert code() == 1                     # no command


def test_one_parser_for_every_command():
    # The four commands take the same flags, so there are no subparsers:
    # the command is a positional, and each flag keeps its own name as dest.
    parser = build_parser()
    assert not any(isinstance(action, argparse._SubParsersAction)
                   for action in parser._actions)
    for command in ("estimate", "direct", "compare", "verify"):
        args = parser.parse_args([command, "--l1", "2", "--env-window", "0.1"])
        assert (args.command, args.l1, args.env_window) == (command, "2", "0.1")
    flags = {opt for action in parser._actions for opt in action.option_strings}
    assert len(flags) == 3 + 17      # -h, --help, --config and 17 run keys
    assert {"--config", "--l1", "--l2", "--env-window", "--figure"} <= flags


def test_cli_requires_a_selection():
    assert run_cli("estimate") == 1


def test_flag_window_parsing():
    parser = build_parser()
    args = parser.parse_args(["estimate", "--figure", "3e",
                              "--window", "0.5,0.4,0.26"])
    cfg = resolve_config(args)
    assert cfg.window.ell_star == 0.5
    assert cfg.window.sigma == 0.4
    assert cfg.window.slope_bound == 0.26
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(
            ["estimate", "--figure", "3e", "--window", "1,2"]))


def test_config_via_main_runs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "cfg_run.csv"
    cfg_path.write_text(
        f"system = resonant\ni0 = 2\neps = 1e-2\nu = 1\nout = {out}\n")
    assert run_cli("estimate", "--config", str(cfg_path)) == 0
    assert out.exists()


def test_main_parses_with_one_parser_per_process(monkeypatch, tmp_path):
    # main reuses the parser built at import; build_parser stays public.
    def refuse():
        raise AssertionError("parser built again")

    monkeypatch.setattr(cli, "build_parser", refuse)
    out = tmp_path / "3e.csv"
    assert run_cli("estimate", "--figure", "3e", "--out", str(out)) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", "--no-such-flag")
    assert exc.value.code == cli.EXIT_ERROR
    assert out.exists()
