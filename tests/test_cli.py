import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import child_env, group_left_after, live_group_members
from panelcsd import (EstimatorKind, all_norms, chi2_sf, fit, load_csv,
                      omega_hat)
from panelcsd.cli import build_parser, dispatch
from panelcsd.dgp import DgpSpec, Equicorr, gen_panel


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    spec = DgpSpec(cross_section=Equicorr(a=1.0, b=0.3),
                   beta_true=(1.0, -0.5))
    panel, _ = gen_panel(spec, n=6, t=12, seed=42)
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "y", "x1", "x2"])
        for i, u in enumerate(panel.unit_ids):
            for s, p in enumerate(panel.time_ids):
                w.writerow([u, p, repr(float(panel.y[i, s])),
                            repr(float(panel.x[i, s, 0])),
                            repr(float(panel.x[i, s, 1]))])
    return str(path)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_json_round_trip(panel_csv, capsys):
    code, out, err = run_cli(capsys, "estimate", "--data", panel_csv)
    assert code == 0, err
    payload = json.loads(out)
    for key in ("schema_version", "model", "n_units", "n_periods",
                "regressors", "beta", "se", "t_stats", "p_values", "cov",
                "condition_number", "condition_warning"):
        assert key in payload
    assert payload["model"] == "fe"
    assert payload["regressors"] == ["x1", "x2"]
    # full-precision agreement with the library call
    panel = load_csv(panel_csv)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    assert payload["beta"]["x1"] == float(res.beta_hat[0])
    assert payload["beta"]["x2"] == float(res.beta_hat[1])
    assert payload["cov"]["method"] == "cs"


def test_estimate_table_format(panel_csv, capsys):
    code, out, _ = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--format", "table")
    assert code == 0
    assert "x1" in out and "x2" in out
    assert "estimate" in out


def test_estimate_out_file_and_residuals(panel_csv, tmp_path, capsys):
    out_path = tmp_path / "est.json"
    resid_path = tmp_path / "resid.csv"
    code, out, _ = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--out", str(out_path),
                           "--residuals", str(resid_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["n_units"] == 6

    panel = load_csv(panel_csv)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    with open(resid_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 12
    got = float(rows[0]["residual"])
    assert got == float(res.residuals[0, 0])


def test_estimate_pooled_and_kernel(panel_csv, capsys):
    code, out, _ = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--model", "pooled", "--cov", "kernel",
                           "--kernel", "parzen", "--trunc", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "pooled"
    assert payload["cov"]["method"] == "kernel"
    assert payload["cov"]["kernel"] == "parzen"
    assert payload["cov"]["trunc_lag"] == 2


def test_estimate_declared_dependence(panel_csv, capsys):
    code, out, _ = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--cov", "kernel", "--trunc", "auto",
                           "--declare-dependence", "pure-cs")
    assert code == 0
    assert json.loads(out)["cov"]["trunc_lag"] == 0


def test_missing_data_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "estimate")
    assert code == 1
    assert "--data" in err


def test_bad_trunc_exits_one(panel_csv, capsys):
    code, _, err = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--cov", "kernel", "--trunc", "soon")
    assert code == 1
    assert "trunc" in err


def test_unbalanced_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,y,x1\n1,1,1.0,0.1\n1,2,1.0,0.1\n2,1,1.0,0.1\n")
    code, _, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 1
    assert "2" in err


def _cafe_csv(path, encoding):
    text = ("id,time,y,x1\nbar,1,1.0,0.3\nbar,2,2.5,0.1\nbar,3,0.5,0.9\n"
            "café,1,1.5,0.2\ncafé,2,3.0,0.7\ncafé,3,2.0,0.4\n")
    path.write_bytes(text.encode(encoding))
    return str(path)


def test_utf8_labels_load_under_an_ascii_locale(tmp_path):
    path = _cafe_csv(tmp_path / "cafe.csv", "utf-8")
    env = {**child_env(), "LC_ALL": "C", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-m", "panelcsd", "estimate",
                           "--data", path], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_units"] == 2


def test_undecodable_csv_exits_one_with_line(tmp_path, capsys):
    path = _cafe_csv(tmp_path / "cafe.csv", "latin-1")
    code, out, err = run_cli(capsys, "estimate", "--data", path)
    assert code == 1 and out == ""
    assert err.startswith("error: line 5: text is not UTF-8")


def test_empty_csv_exits_one_with_line(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 1
    assert "line 1" in err

    # a header naming a column twice is bad input at line 1 too
    path.write_text("id,time,y,y,x1\n1,1,1.0,2.0,0.1\n1,2,1.0,2.0,0.3\n")
    code, out, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 1
    assert out == ""
    assert "line 1" in err and "'y' twice" in err


@pytest.mark.parametrize("x_cols, problem", [("x1,x1", "listed twice"),
                                              ("x1,y", "id, time or y")])
def test_bad_regressor_list_exits_one_with_line(panel_csv, capsys, x_cols,
                                                problem):
    # a repeated regressor or one naming the outcome is bad input, not a
    # singular design or a perfect fit
    code, out, err = run_cli(capsys, "estimate", "--data", panel_csv,
                             "--x-cols", x_cols)
    assert code == 1
    assert out == ""
    assert "line 1" in err and problem in err


def test_overlong_csv_field_exits_one_with_line(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("id,time,y,x1\na,1," + "1" * 200_000 + ",0.1\n")
    code, out, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: malformed CSV record")
    assert "Traceback" not in err


def _flat_csv(path):
    # y constant within each unit: every fixed-effect residual is zero
    path.write_text("id,time,y,x1\na,1,1.0,0.1\na,2,1.0,0.5\na,3,1.0,0.2\n"
                    "b,1,2.0,0.3\nb,2,2.0,0.9\nb,3,2.0,0.4\n")
    return str(path)


def test_zero_standard_error_gives_null_t_statistic(tmp_path, capsys):
    path = _flat_csv(tmp_path / "flat.csv")
    code, out, err = run_cli(capsys, "estimate", "--data", path)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["se"] == {"x1": 0.0}
    assert payload["t_stats"] == {"x1": None}
    assert payload["p_values"] == {"x1": None}
    code, out, err = run_cli(capsys, "estimate", "--data", path,
                             "--format", "table")
    assert code == 0, err
    assert out.splitlines()[-1].split() == ["x1", "0", "0", "-", "-"]


def test_t_statistics_do_not_move_when_y_is_rescaled(panel_csv, tmp_path,
                                                    capsys):
    # rescaling y rescales every se: the t-statistics do not move, however
    # small the numbers get
    code, out, _ = run_cli(capsys, "estimate", "--data", panel_csv)
    base = json.loads(out)["t_stats"]
    with open(panel_csv) as fh:
        rows = list(csv.reader(fh))
    scaled = tmp_path / "scaled.csv"
    with open(scaled, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(rows[0])
        for r in rows[1:]:
            w.writerow(r[:2] + [repr(float(r[2]) * 1e-150)] + r[3:])
    code, out, _ = run_cli(capsys, "estimate", "--data", str(scaled))
    assert code == 0
    for c, t in json.loads(out)["t_stats"].items():
        assert t == pytest.approx(base[c], rel=1e-9)


def _split_design_csv(path, x2_scale):
    # x1 lives on units 0-2, x2 on units 3-5, whose errors are 1000x
    # smaller: x2's variance is far below the covariance's top eigenvalue
    rng = np.random.default_rng(7)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "y", "x1", "x2"])
        for i in range(6):
            for s in range(12):
                x1 = rng.normal() if i < 3 else 0.0
                x2 = rng.normal() if i >= 3 else 0.0
                e = rng.normal() * (1.0 if i < 3 else 1e-3)
                w.writerow([f"u{i}", s, repr(x1 - 0.5 * x2 + e), repr(x1),
                            repr(x2 * x2_scale)])
    return str(path)


def test_t_statistic_of_a_rescaled_regressor_is_unchanged(tmp_path, capsys):
    # x2 in units 1e4 times smaller: beta_2 and se_2 shrink by 1e-4 and its
    # t-statistic stays, although var_2 is then about 1e-14 of the
    # covariance's top eigenvalue (the design is still well conditioned)
    base = json.loads(run_cli(capsys, "estimate", "--data",
                              _split_design_csv(tmp_path / "a.csv", 1.0))[1])
    code, out, err = run_cli(capsys, "estimate", "--data",
                             _split_design_csv(tmp_path / "b.csv", 1e4))
    assert code == 0, err
    scaled = json.loads(out)
    assert not scaled["condition_warning"]
    assert scaled["se"]["x2"] == pytest.approx(base["se"]["x2"] * 1e-4,
                                               rel=1e-9)
    for c in ("x1", "x2"):
        assert scaled["t_stats"][c] == pytest.approx(base["t_stats"][c],
                                                     rel=1e-9)
        assert scaled["p_values"][c] == pytest.approx(base["p_values"][c],
                                                      rel=1e-9, abs=1e-300)
    # the same rule as the Wald test of b2 = 0, whose statistic is t_2^2
    code, out, err = run_cli(capsys, "test", "--data",
                             str(tmp_path / "b.csv"), "--restr", "b2=0")
    assert code == 0, err
    assert json.loads(out)["test"]["statistic"] == pytest.approx(
        scaled["t_stats"]["x2"] ** 2, rel=1e-9)


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "estimate", "--data", "/nonexistent.csv")
    assert code == 1
    assert "nonexistent" in err


def test_singular_design_exits_two(tmp_path, capsys):
    # time-invariant regressor under the within estimator
    path = tmp_path / "sing.csv"
    rng = np.random.default_rng(3)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "y", "x1"])
        for i in range(3):
            xi = rng.standard_normal()
            for s in range(4):
                w.writerow([i, s, rng.standard_normal(), xi])
    code, _, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 2
    assert "SingularGram" in err


def test_atomic_output_no_partial_file(panel_csv, tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.json"
    code, _, err = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--out", str(target))
    assert code == 1
    assert not target.exists()
    assert not (tmp_path / "no_such_dir").exists()
    # no stray temp files next to the intended target
    assert list(tmp_path.iterdir()) == []


def test_failed_replace_keeps_previous_output(panel_csv, tmp_path, capsys,
                                              monkeypatch):
    target = tmp_path / "out.json"
    target.write_bytes(b"previous\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run_cli(capsys, "estimate", "--data", panel_csv,
                           "--out", str(target))
    assert code == 1
    assert "replace failed" in err
    assert target.read_bytes() == b"previous\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_wald_subcommand(panel_csv, capsys):
    code, out, _ = run_cli(capsys, "test", "--data", panel_csv,
                           "--restr", "b1=1, b2=-0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["test"]["dof"] == 2
    stat = payload["test"]["statistic"]
    assert payload["test"]["p_value"] == pytest.approx(chi2_sf(stat, 2))


def test_wald_subcommand_bad_restriction(panel_csv, capsys):
    code, _, err = run_cli(capsys, "test", "--data", panel_csv,
                           "--restr", "b9=0")
    assert code == 1
    assert "b9" in err


def test_diagnose_family(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "--family",
                           "equicorr:a=1,b=0.5", "--n-grid", "8,16,32,64")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "strong"
    assert payload["n_grid"] == [8, 16, 32, 64]
    assert abs(payload["exponent_max_eig"] - 1.0) < 0.15
    assert payload["regime_per_norm"]["euclid_scaled"] == "moderate"
    assert set(payload["exponents_per_norm"]) == {
        "max_eig", "max_row_sum", "euclid_scaled", "taxicab_scaled"}


def test_diagnose_family_table(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "--family", "example1",
                           "--n-grid", "8,16,32,64", "--format", "table")
    assert code == 0
    assert "regime: weak" in out


def test_diagnose_matrix_dir(tmp_path, capsys):
    d = tmp_path / "mats"
    d.mkdir()
    for n in (8, 16, 32, 64):
        omega = np.full((n, n), 0.5) + 0.5 * np.eye(n)
        np.savetxt(d / f"omega_{n}.csv", omega, delimiter=",")
    code, out, _ = run_cli(capsys, "diagnose", "--matrix-dir", str(d))
    assert code == 0
    assert json.loads(out)["regime"] == "strong"


def test_diagnose_matrix_dir_empty(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run_cli(capsys, "diagnose", "--matrix-dir", str(d))
    assert code == 1
    assert "omega_" in err


def _matrix_dir_with(tmp_path, bad):
    """omega_{8,16,32,64}.csv, strongly dependent, with omega_16 = bad(16)."""
    d = tmp_path / "mats"
    d.mkdir()
    for n in (8, 16, 32, 64):
        omega = bad(n) if n == 16 else np.full((n, n), 0.5) + 0.5 * np.eye(n)
        np.savetxt(d / f"omega_{n}.csv", omega, delimiter=",")
    return d, str(d / "omega_16.csv")


def _with_nan(n):
    omega = np.eye(n)
    omega[3, 3] = np.nan
    return omega


def _asymmetric(n):
    omega = np.eye(n)
    omega[0, 1] = 0.5
    return omega


def _not_psd(n):
    return np.diag([1.0] * (n - 1) + [-1.0])


@pytest.mark.parametrize("bad, code, message", [
    (_with_nan, 1, "error: {}: matrix contains non-finite values\n"),
    (_asymmetric, 1, "error: {}: matrix is not symmetric: max|A - A'| = "
                     "5.000e-01 exceeds 1e-10 * max|A|\n"),
    (_not_psd, 2, "NotPSD: {}: minimum eigenvalue -1.000e+00 below "
                  "-1e-08 * lambda_max\n"),
])
def test_diagnose_matrix_dir_errors_name_the_file(tmp_path, capsys, bad,
                                                  code, message):
    d, path = _matrix_dir_with(tmp_path, bad)
    got, out, err = run_cli(capsys, "diagnose", "--matrix-dir", str(d))
    assert (got, out, err) == (code, "", message.format(path))


def test_diagnose_matrix_dir_solves_each_matrix_once(tmp_path, capsys,
                                                     monkeypatch):
    # the PSD check is one eigenvalues-only solve of each matrix, and the
    # norms reuse its top eigenvalue; no factorization, no eigenvectors
    calls = {"eigvalsh": [], "eigh": [], "cholesky": []}

    def counted(name):
        solver = getattr(np.linalg, name)

        def run(a, *args, **kwargs):
            calls[name].append(len(a))
            return solver(a, *args, **kwargs)
        return run

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    d, _ = _matrix_dir_with(tmp_path, lambda n: 0.5 * np.ones((n, n))
                            + 0.5 * np.eye(n))
    code, _, err = run_cli(capsys, "diagnose", "--matrix-dir", str(d))
    assert code == 0, err
    assert calls == {"eigvalsh": [8, 16, 32, 64], "eigh": [], "cholesky": []}


def test_diagnose_family_needs_no_eigenvectors(capsys, monkeypatch):
    # build_omega's PSD check, norm_max_eig and classify read eigenvalues only
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    code, out, err = run_cli(capsys, "diagnose", "--family", "example11")
    assert code == 0, err
    assert json.loads(out)["regime"] == "strong"


def test_diagnose_names_the_family_and_size_it_cannot_build(capsys):
    code, out, err = run_cli(capsys, "diagnose", "--family",
                             "scaled_equicorr:a=20", "--n-grid",
                             "25,50,100,200")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "'scaled_equicorr' at n=25: " in lines[0]


def test_diagnose_data_norms_only(panel_csv, capsys):
    code, out, _ = run_cli(capsys, "diagnose", "--data", panel_csv)
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] is None
    assert set(payload["norms"]) == {"max_eig", "max_row_sum",
                                     "euclid_scaled", "taxicab_scaled"}


def test_diagnose_source_exclusivity(panel_csv, capsys):
    code, _, err = run_cli(capsys, "diagnose", "--family", "example1",
                           "--data", panel_csv)
    assert code == 1
    assert "exactly one" in err
    code, _, err = run_cli(capsys, "diagnose")
    assert code == 1


def test_decompose(tmp_path, capsys):
    path = tmp_path / "omega.csv"
    omega = np.full((5, 5), 0.5) + 0.5 * np.eye(5)
    np.savetxt(path, omega, delimiter=",")
    code, out, _ = run_cli(capsys, "decompose", "--omega", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_factors"] == 1
    assert payload["reconstruction_rel_error"] < 1e-10
    lam = np.array(payload["loadings"])
    assert_allclose(lam @ lam.T, np.full((5, 5), 0.5), atol=1e-8)
    assert_allclose(np.array(payload["idio_cov"]), 0.5 * np.eye(5), atol=1e-8)


def test_decompose_fixed_factor_count(tmp_path, capsys):
    path = tmp_path / "omega.csv"
    np.savetxt(path, np.eye(4), delimiter=",")
    code, out, _ = run_cli(capsys, "decompose", "--omega", str(path),
                           "--factors", "2")
    assert code == 0
    assert json.loads(out)["n_factors"] == 2


def test_decompose_asymmetric_exits_one(tmp_path, capsys):
    path = tmp_path / "asym.csv"
    np.savetxt(path, np.array([[1.0, 0.9], [0.2, 1.0]]), delimiter=",")
    code, _, err = run_cli(capsys, "decompose", "--omega", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_decompose_not_square_exits_one(tmp_path, capsys):
    path = tmp_path / "rect.csv"
    np.savetxt(path, np.ones((2, 3)), delimiter=",")
    code, _, err = run_cli(capsys, "decompose", "--omega", str(path))
    assert code == 1
    assert "square" in err


def test_diagnose_residuals_file_takes_units_by_periods(tmp_path, capsys):
    m = np.random.default_rng(8).standard_normal((5, 40))
    path = tmp_path / "r.csv"
    np.savetxt(path, m, delimiter=",")
    code, out, err = run_cli(capsys, "diagnose", "--residuals-file",
                             str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["norms"] == all_norms(omega_hat(np.loadtxt(path,
                                                              delimiter=",")))


def _bad_omega(n=3):
    omega = np.eye(n)
    omega[1, 1] = np.nan
    return omega


@pytest.mark.parametrize("bad, code, message", [
    (_bad_omega(), 1, "error: {}: matrix contains non-finite values\n"),
    (np.array([[1.0, 0.9], [0.2, 1.0]]), 1,
     "error: {}: matrix is not symmetric: max|A - A'| = 7.000e-01 exceeds "
     "1e-10 * max|A|\n"),
    (np.diag([1.0, -1.0]), 2, "RankDeficient: {}: minimum eigenvalue "
                              "-1.000e+00 below -1e-08 * lambda_max\n"),
])
def test_decompose_errors_name_the_file(tmp_path, capsys, bad, code,
                                        message):
    path = tmp_path / "omega.csv"
    np.savetxt(path, bad, delimiter=",")
    got, out, err = run_cli(capsys, "decompose", "--omega", str(path))
    assert (got, out, err) == (code, "", message.format(path))


def test_diagnose_residuals_file_errors_name_the_file(tmp_path, capsys):
    m = np.random.default_rng(8).standard_normal((5, 40))
    m[2, 7] = np.nan
    path = tmp_path / "r.csv"
    np.savetxt(path, m, delimiter=",")
    got, out, err = run_cli(capsys, "diagnose", "--residuals-file",
                            str(path))
    assert (got, out, err) == (
        1, "", f"error: {path}: matrix contains non-finite values\n")


@pytest.mark.parametrize("flag", ["decompose --omega",
                                  "diagnose --residuals-file"])
def test_empty_matrix_file_is_one_error_line(tmp_path, flag):
    # a fresh interpreter, so that a warning would reach stderr as printed
    (tmp_path / "empty.csv").write_bytes(b"")
    proc = subprocess.run(
        [sys.executable, "-m", "panelcsd", *flag.split(), "empty.csv"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: empty.csv:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_mc_run_and_report(tmp_path, capsys):
    cfg = {
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[6, 10]],
        "reps": 200,
        "estimator": "fe",
        "cov": {"method": "cs"},
        "master_seed": 99,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "mc", "run", str(cfg_path),
                           "--out", str(report_path), "--threads", "1")
    assert code == 0, err
    report = json.loads(report_path.read_text())
    assert report["cells"][0]["reps"] == 200
    assert "seed_rule" in report

    code, out, _ = run_cli(capsys, "mc", "report", str(report_path))
    assert code == 0
    assert "rmse" in out and "size_05" in out

    code, out, _ = run_cli(capsys, "mc", "report", str(report_path),
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "n"
    assert rows[1][0] == "6"

    code, out, _ = run_cli(capsys, "mc", "report", str(report_path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == report


def _report_text(cell_extra=None, rate=None):
    cell = {"n": 6, "t": 10, "reps": 200, "n_fail": 0, **(cell_extra or {})}
    return json.dumps({"config": {}, "cells": [cell], "rate": rate})


@pytest.mark.parametrize("text", [
    "{}", "[1, 2]",
    '{"config": {}, "cells": [{"n": 6, "reps": 200, "n_fail": 0}], '
    '"rate": null}',
    _report_text({"vbar_true_ratio": 3}),
    _report_text(rate={"axis": "T", "slope": -0.5, "ci95": 2}),
    _report_text({"n": "5"}),
    _report_text({"rmse_scalar": [1]}),
], ids=["empty_object", "list", "cell_without_t", "ratio_a_number",
        "ci95_a_number", "n_a_string", "rmse_a_list"])
def test_mc_report_of_a_json_file_that_is_not_a_report_exits_one(
        tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out_path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, "mc", "report", str(path),
                             "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not a Monte Carlo report")
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


def test_mc_run_rejects_low_reps(tmp_path, capsys):
    cfg = {
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[6, 10]],
        "reps": 50,
        "cov": {"method": "cs"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "mc", "run", str(cfg_path))
    assert code == 1
    assert "reps" in err


def test_mc_run_bad_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(capsys, "mc", "run", str(cfg_path))
    assert code == 1
    assert "JSON" in err


@pytest.mark.parametrize("edit, key", [
    ({"master_sed": 7}, "master_sed"),
    ({"cov": {"method": "kernel", "kernal": "parzen"}}, "kernal"),
    ({"cov": {"method": "kernel", "kernel": "foo", "trunc": 2}}, "kernel"),
    ({"cov": {"method": "kernel", "trunc": "abc"}}, "trunc"),
    ({"cov": {"method": "kernel", "trunc": -1}}, "trunc"),
    ({"cov": {"method": "kernel", "trunc": 2, "declared": "ma:x"}},
     "declared"),
    ({"dgp": {"cross_section": {"family": "equicorr", "a": 1, "b": 2},
              "beta_true": [1.0]}}, "equicorr"),
    ({"dgp": {"cross_section": "band:width=abc", "beta_true": [1.0]}},
     "width"),
    ({"fixed_design": "false"}, "fixed_design"),
    ({"master_seed": 7.9}, "master_seed"),
    ({"grid": [[6]]}, "grid"),
    ({"grid": None}, "grid"),
    ({"grid": [[5, 0]]}, "grid"),
    ({"estimator": "bogus"}, "estimator"),
    ({"dgp": {"cross_section": "example1", "beta_true": "12"}}, "beta_true"),
    # a rate fitted on one distinct axis value has no slope to fit
    ({"grid": [[10, 20], [20, 20]], "rate_axis": "T"}, "rate_axis"),
    ({"grid": [[10, 20], [20, 10]], "rate_axis": "NT"}, "rate_axis"),
    ({"grid": [[10, 20]], "rate_axis": "T"}, "rate_axis"),
])
def test_mc_run_rejects_malformed_config(tmp_path, capsys, edit, key):
    cfg = {
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[6, 10]],
        "reps": 200,
        "cov": {"method": "cs"},
        **edit,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "mc", "run", str(cfg_path),
                             "--out", str(report_path))
    assert code == 1
    assert key in err and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not report_path.exists()


@pytest.mark.parametrize("threads, env, named", [
    ("0", None, "--threads"),
    ("-1", None, "--threads"),
    (None, "abc", "PANELCSD_THREADS"),
    (None, "0", "PANELCSD_THREADS"),
])
def test_mc_run_rejects_bad_worker_count(tmp_path, capsys, monkeypatch,
                                         threads, env, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[6, 10]], "reps": 200, "cov": {"method": "cs"}}))
    if env is not None:
        monkeypatch.setenv("PANELCSD_THREADS", env)
    argv = ["mc", "run", str(cfg_path), "--out", str(tmp_path / "r.json")]
    code, out, err = run_cli(capsys, *argv,
                             *(["--threads", threads] if threads else []))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {named} must be an integer >= 1")
    assert not (tmp_path / "r.json").exists()


def test_mc_run_worker_pool_error_exits_one(tmp_path, capsys, monkeypatch):
    from panelcsd import cli
    from panelcsd.errors import WorkerPoolError

    def broken(config, workers=None):
        raise WorkerPoolError("the worker pool broke while running cell "
                              "(n=6, t=10)")

    monkeypatch.setattr(cli, "run_mc", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[6, 10]], "reps": 200, "cov": {"method": "cs"}}))
    code, out, err = run_cli(capsys, "mc", "run", str(cfg_path),
                             "--threads", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: the worker pool broke")


@pytest.mark.parametrize("edit, key", [
    ({"beta_true": [float("inf")]}, "beta_true"),
    ({"error_dist": "student_t", "t_df": float("inf")}, "t_df"),
    ({"cross_section": "equicorr:a=inf"}, "'a'"),
    ({"cross_section": "diagonal:scale=inf"}, "'scale'"),
    ({"cross_section": {"family": "band", "b": float("nan")}}, "'b'"),
])
def test_mc_run_rejects_non_finite_numbers_before_any_worker(
        tmp_path, capsys, monkeypatch, edit, key):
    # json.dumps writes Infinity and NaN, which json.load reads back
    from panelcsd import montecarlo

    def no_pool(*args, **kwargs):
        raise AssertionError("the workers were used")

    monkeypatch.setattr(montecarlo, "_pool", no_pool)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example1", "beta_true": [1.0], **edit},
        "grid": [[6, 10]], "reps": 200, "cov": {"method": "cs"}}))
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "mc", "run", str(cfg_path),
                             "--out", str(report_path), "--threads", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite" in err and key in err
    assert not report_path.exists()


def test_mc_run_rejects_a_memory_field_its_form_ignores_before_any_worker(
        tmp_path, capsys, monkeypatch):
    from panelcsd import montecarlo

    def no_pool(*args, **kwargs):
        raise AssertionError("the workers were used")

    monkeypatch.setattr(montecarlo, "_pool", no_pool)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example1", "beta_true": [1.0],
                "time_memory": {"channel": "idio", "form": "summable",
                                "decay": 0.5, "psi": [1.0, 0.3]}},
        "grid": [[6, 10]], "reps": 200, "cov": {"method": "cs"}}))
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "mc", "run", str(cfg_path),
                             "--out", str(report_path), "--threads", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "psi" in err
    assert not report_path.exists()


def _signal_mc_run(tmp_path, signum, group=False, members=4, settle=1.0):
    # many cells whose chunks take milliseconds: the signal lands mid-run,
    # once the process group holds ``members`` processes (the run, its
    # worker server and the two workers the server forks) and ``settle``
    # seconds more have passed; the run must leave no process and no
    # report. Returns its exit code and output.
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example1", "beta_true": [1.0]},
        "grid": [[20, 20]] * 1000, "reps": 400, "cov": {"method": "cs"}}))
    report_path = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "panelcsd", "mc", "run", str(cfg_path),
         "--threads", "2", "--out", str(report_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(live_group_members(proc.pid)) < members:
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
        time.sleep(settle)
        assert proc.poll() is None, proc.communicate()
        if group:
            os.killpg(proc.pid, signum)  # as a terminal sends Ctrl-C
        else:
            proc.send_signal(signum)  # to the parent only, not the group
        deadline = time.monotonic() + 5
        out, err = proc.communicate(timeout=5)
        assert group_left_after(proc.pid, deadline - time.monotonic()) == []
        assert not report_path.exists()
        return proc.returncode, out, err
    finally:
        for pid in live_group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_mc_run_sigterm_stops_the_workers(tmp_path):
    assert _signal_mc_run(tmp_path, signal.SIGTERM) == (
        143, "", "error: interrupted in cell (n=20, t=20)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("members", [2, 3])
def test_mc_run_sigterm_while_the_workers_start(tmp_path, members):
    # as soon as the worker server, or its first worker, exists: a server
    # still importing, or a worker before its first frame, ends without a
    # word
    code, out, err = _signal_mc_run(tmp_path, signal.SIGTERM,
                                    members=members, settle=0.0)
    assert (code, out) == (143, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: interrupted")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_mc_run_sigint_stops_the_workers(tmp_path):
    assert _signal_mc_run(tmp_path, signal.SIGINT) == (
        130, "", "error: interrupted in cell (n=20, t=20)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_mc_run_group_sigint_stops_the_workers(tmp_path):
    # the workers get the signal too, ignore it, and print nothing
    assert _signal_mc_run(tmp_path, signal.SIGINT, group=True) == (
        130, "", "error: interrupted in cell (n=20, t=20)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_mc_run_sigkill_leaves_no_process(tmp_path):
    # the parent cannot clean up: each worker reads end of file on its
    # input, and the worker server on its socket, which close with the
    # parent, and they exit
    code, *_ = _signal_mc_run(tmp_path, signal.SIGKILL)
    assert code == -signal.SIGKILL


def test_cli_choices_are_the_library_vocabularies():
    from panelcsd.covariance import KERNELS, CovMethod
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices

    def choices(command, flag):
        return [a for a in sub[command]._actions
                if flag in a.option_strings][0].choices

    models = [kind.value for kind in EstimatorKind]
    for command in ("estimate", "test"):
        assert list(choices(command, "--cov")) == \
            [m.value for m in CovMethod] == ["plugin", "cs", "kernel"]
        assert list(choices(command, "--kernel")) == list(KERNELS) == \
            ["bartlett", "uniform", "parzen"]
    for command in ("estimate", "test", "diagnose"):
        assert list(choices(command, "--model")) == models == ["fe", "pooled"]


def test_estimate_misspelled_declared_dependence_exits_one(panel_csv, capsys):
    code, out, err = run_cli(capsys, "estimate", "--data", panel_csv,
                             "--cov", "kernel", "--trunc", "auto",
                             "--declare-dependence", "purecs")
    assert code == 1
    assert "purecs" in err and out == ""


@pytest.mark.parametrize("command", ["estimate", "test"])
@pytest.mark.parametrize("flags, named", [
    (["--cov", "kernel", "--trunc", "2", "--declare-dependence", "purecs"],
     "purecs"),
    (["--cov", "cs", "--declare-dependence", "bogus"], "bogus"),
])
def test_covariance_flags_checked_before_data(panel_csv, tmp_path, capsys,
                                              command, flags, named):
    restr = ["--restr", "b1=0"] if command == "test" else []
    # the flags fail the same way whether or not the data file exists
    for data in (panel_csv, str(tmp_path / "missing.csv")):
        code, out, err = run_cli(capsys, command, "--data", data, *flags,
                                 *restr)
        assert code == 1
        assert named in err and out == ""


@pytest.fixture
def two_period_csv(tmp_path):
    path = tmp_path / "two.csv"
    rng = np.random.default_rng(5)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "y", "x1"])
        for i in range(3):
            for s in range(2):
                w.writerow([i, s, rng.standard_normal(), rng.standard_normal()])
    return str(path)


@pytest.mark.parametrize("argv", [
    ["estimate"],
    ["estimate", "--cov", "kernel"],
    ["estimate", "--cov", "plugin"],
    ["test", "--restr", "b1=0"],
])
def test_two_period_fixed_effect_panel_exits_two(two_period_csv, capsys,
                                                  argv):
    # the within scores of a two-period panel are identically zero
    code, out, err = run_cli(capsys, *argv, "--data", two_period_csv)
    assert code == 2
    assert "SingularCov" in err and out == ""


def test_two_period_pooled_panel_still_estimates(two_period_csv, capsys):
    code, out, err = run_cli(capsys, "estimate", "--data", two_period_csv,
                             "--model", "pooled")
    assert code == 0, err
    assert json.loads(out)["se"]["x1"] > 0


def test_explore_conjecture(capsys):
    code, out, _ = run_cli(capsys, "explore-conjecture", "--family",
                           "example13", "--n-grid", "25,50,100,200")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["fitted_slopes"]) == {
        "max_eig", "taxicab_scaled", "euclid", "euclid_over_sqrt_n"}
    # equicorrelation: all three conjecture quantities grow together
    assert abs(payload["fitted_slopes"]["max_eig"] - 1.0) < 0.15
    assert abs(payload["fitted_slopes"]["euclid"] - 1.0) < 0.15
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [25, 50, 100, 200]


@pytest.mark.parametrize("command", ["diagnose", "explore-conjecture"])
@pytest.mark.parametrize("grid", ["0,1,2,4", "-4,1,2,16", "5", "50,50"])
def test_n_grid_below_one_or_of_one_size_exits_one(capsys, command, grid):
    # a size below 1, or one distinct size that gives no slope to fit
    code, out, err = run_cli(capsys, command, "--family", "example1",
                             f"--n-grid={grid}")
    assert code == 1 and out == ""
    assert err.startswith("error: --n-grid") and len(err.splitlines()) == 1
    assert repr(grid) in err


def test_explore_conjecture_bounded_family(capsys):
    code, out, _ = run_cli(capsys, "explore-conjecture", "--family",
                           "example5", "--format", "table")
    assert code == 0
    assert "slope" in out


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "estimate", "--help")[0] == 0
    assert run_cli(capsys, "mc", "--help")[0] == 0


def test_no_command_exits_one(capsys):
    assert run_cli(capsys)[0] == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_console_script(value, *argv):
    """Run entry point `value` in a fresh interpreter, as the wrapper that an
    installer writes for a console script does: load it, call it, and exit
    with what it returns. No install and no executable on PATH is needed."""
    code = ("import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint(name='panelcsd', value={value!r}, "
            "group='console_scripts').load()())")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)


def test_module_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "panelcsd", "--help"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout


def test_console_script_subprocess(panel_csv, tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "panelcsd" in scripts, f"{PYPROJECT} declares no panelcsd script"
    value = scripts["panelcsd"]
    proc = run_console_script(value, "estimate", "--data", panel_csv)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["n_units"] == 6

    missing = str(tmp_path / "missing.csv")
    proc = run_console_script(value, "estimate", "--data", missing)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
