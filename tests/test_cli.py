import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import panelcsd
from panelcsd import EstimatorKind, chi2_sf, fit, load_csv
from panelcsd.cli import dispatch
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


def test_empty_csv_exits_one_with_line(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "estimate", "--data", str(path))
    assert code == 1
    assert "line 1" in err


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


def child_env():
    """Environment for a child interpreter that imports this suite's panelcsd,
    whatever the working directory is."""
    src = str(Path(panelcsd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_console_script(value, *argv):
    """Run entry point `value` in a fresh interpreter, as the wrapper that an
    installer writes for a console script does: load it, call it, and exit
    with what it returns. No install and no executable on PATH is needed."""
    code = ("import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint(name='panelcsd', value={value!r}, "
            "group='console_scripts').load()())")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=child_env())


def test_module_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "panelcsd", "--help"],
                          capture_output=True, text=True, env=child_env())
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
