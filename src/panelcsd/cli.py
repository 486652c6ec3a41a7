"""Command line interface.

Subcommands: estimate, test, diagnose, decompose, mc run, mc report,
explore-conjecture. Exit codes: 0 success, 1 bad input (flags, files,
malformed requests), 2 numerical failure (singular designs, invalid
covariances). Machine output is JSON; --format table gives aligned text.
Output files are written atomically (never left partial on failure).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .covariance import (
    cov_cross_section,
    cov_kernel,
    cov_plugin,
    omega_hat,
)
from .dependence import (
    CovMatrix,
    all_norms,
    classify,
    factor_decompose,
    norm_euclid,
    _loglog_slope,
)
from .dgp import build_omega, family_from_string
from .errors import NumericalError, UsageError
from .estimators import EstimatorKind, fit
from .inference import chi2_sf, parse_restrictions, wald
from .montecarlo import McConfig, McReport, run_mc, write_atomic
from .panel import load_csv

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        write_atomic(path, text)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(r[j])) for r in [header] + rows)
              for j in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ---------------------------------------------------------------------------
# shared flags


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="long-format CSV panel")
    p.add_argument("--id-col", default="id")
    p.add_argument("--time-col", default="time")
    p.add_argument("--y-col", default="y")
    p.add_argument("--x-cols", default=None,
                   help="comma-separated regressor columns (default: all others)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["fe", "pooled"], default="fe")
    p.add_argument("--cov", choices=["plugin", "cs", "kernel"], default="cs")
    p.add_argument("--kernel", choices=["bartlett", "uniform", "parzen"],
                   default="bartlett")
    p.add_argument("--trunc", default="auto",
                   help="kernel lag truncation: integer or 'auto'")
    p.add_argument("--declare-dependence", dest="declared", default="unknown",
                   help="error serial dependence: pure-cs | ma:<q> | summable")


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "table"], default="json")


def _parse_x_cols(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    cols = [c.strip() for c in arg.split(",") if c.strip()]
    if not cols:
        raise UsageError("--x-cols given but empty")
    return cols


def _parse_trunc(arg: str):
    if arg == "auto":
        return "auto"
    try:
        return int(arg)
    except ValueError:
        raise UsageError(f"--trunc must be an integer or 'auto', got {arg!r}") from None


def _parse_n_grid(arg: str) -> list[int]:
    try:
        grid = [int(v) for v in arg.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --n-grid {arg!r}") from None
    if not grid:
        raise UsageError("--n-grid is empty")
    return grid


def _load_panel(args):
    return load_csv(args.data, id_col=args.id_col, time_col=args.time_col,
                    y_col=args.y_col, x_cols=_parse_x_cols(args.x_cols))


def _compute_cov_cli(result, args):
    if args.cov == "plugin":
        return cov_plugin(result)
    if args.cov == "cs":
        return cov_cross_section(result)
    return cov_kernel(result, kernel=args.kernel,
                      trunc=_parse_trunc(args.trunc), declared=args.declared)


def _estimate_payload(panel, args):
    x_cols = panel.x_names
    result = fit(panel, EstimatorKind(args.model))
    rc = _compute_cov_cli(result, args)
    se = np.sqrt(np.clip(np.diag(rc.matrix), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se > 0, result.beta_hat / se, np.inf)
    pvals = [chi2_sf(float(ts * ts), 1) if np.isfinite(ts) else 0.0
             for ts in tstats]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "regressors": list(x_cols),
        "beta": {c: float(b) for c, b in zip(x_cols, result.beta_hat)},
        "se": {c: float(s) for c, s in zip(x_cols, se)},
        "t_stats": {c: float(t) for c, t in zip(x_cols, tstats)},
        "p_values": {c: float(p) for c, p in zip(x_cols, pvals)},
        "cov": rc.metadata(),
        "condition_number": result.condition_number,
        "condition_warning": result.condition_warning,
    }
    return payload, result, rc


def _cmd_estimate(args) -> None:
    panel = _load_panel(args)
    payload, result, _ = _estimate_payload(panel, args)
    if args.residuals:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([args.id_col, args.time_col, "residual"])
        for i, u in enumerate(panel.unit_ids):
            for s, p in enumerate(panel.time_ids):
                writer.writerow([u, p, repr(float(result.residuals[i, s]))])
        _write_text(args.residuals, buf.getvalue())
    if args.format == "table":
        rows = [[c, _fmt(payload["beta"][c]), _fmt(payload["se"][c]),
                 _fmt(payload["t_stats"][c]), _fmt(payload["p_values"][c])]
                for c in panel.x_names]
        _write_text(args.out, _table(rows, ["coef", "estimate", "se", "t", "p"]))
    else:
        _write_text(args.out, _json_dumps(payload))


def _cmd_test(args) -> None:
    panel = _load_panel(args)
    payload, result, rc = _estimate_payload(panel, args)
    restriction = parse_restrictions(args.restr, panel.n_regressors)
    tr = wald(result.beta_hat, rc, restriction)
    payload["test"] = {
        "restrictions": args.restr,
        "statistic": tr.statistic,
        "dof": tr.dof,
        "p_value": tr.p_value,
    }
    if args.format == "table":
        rows = [[args.restr, _fmt(tr.statistic), str(tr.dof), _fmt(tr.p_value)]]
        _write_text(args.out, _table(rows, ["restriction", "wald", "dof", "p"]))
    else:
        _write_text(args.out, _json_dumps(payload))


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError):
            raise
        raise UsageError(f"{path}: not a numeric CSV matrix ({exc})") from None
    if m.shape[0] != m.shape[1]:
        raise UsageError(f"{path}: matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def _matrix_dir_family(directory: str):
    import re

    pattern = re.compile(r"omega_(\d+)\.csv$")
    found: dict[int, str] = {}
    for name in os.listdir(directory):
        m = pattern.fullmatch(name)
        if m:
            found[int(m.group(1))] = os.path.join(directory, name)
    if not found:
        raise UsageError(f"{directory}: no omega_<n>.csv files")

    def family(n: int) -> CovMatrix:
        mat = _load_matrix_csv(found[n])
        if mat.shape[0] != n:
            raise UsageError(f"{found[n]}: expected size {n}, got {mat.shape[0]}")
        return CovMatrix(mat)

    return family, sorted(found)


def _profile_payload(profile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n_grid": list(profile.n_grid),
        "norms_by_n": {str(n): profile.norms_by_n[n] for n in profile.n_grid},
        "exponent_max_eig": profile.exponent_max_eig,
        "exponent_se": profile.exponent_se,
        "regime": profile.regime.value,
        "regime_per_norm": {k: v.value for k, v in profile.regime_per_norm.items()},
        "exponents_per_norm": {k: {"alpha": a, "se": s}
                               for k, (a, s) in profile.exponents_per_norm.items()},
    }


def _profile_table(profile) -> str:
    names = ["max_eig", "max_row_sum", "euclid_scaled", "taxicab_scaled"]
    rows = [[str(n)] + [_fmt(profile.norms_by_n[n][m]) for m in names]
            for n in profile.n_grid]
    out = _table(rows, ["n"] + names)
    rows2 = [[m, _fmt(profile.exponents_per_norm[m][0]),
              _fmt(profile.exponents_per_norm[m][1]),
              profile.regime_per_norm[m].value] for m in names]
    out += "\n" + _table(rows2, ["norm", "alpha", "se", "regime"])
    out += f"\nregime: {profile.regime.value}\n"
    return out


def _cmd_diagnose(args) -> None:
    sources = [bool(args.family), bool(args.matrix_dir),
               bool(args.data), bool(args.residuals_file)]
    if sum(sources) != 1:
        raise UsageError(
            "give exactly one of --family, --matrix-dir, --data, --residuals-file")
    if args.family:
        fam = family_from_string(args.family)
        grid = _parse_n_grid(args.n_grid) if args.n_grid else [25, 50, 100, 200]
        profile = classify(lambda n: build_omega(fam, n), grid)
        text = (_profile_table(profile) if args.format == "table"
                else _json_dumps(_profile_payload(profile)))
        _write_text(args.out, text)
        return
    if args.matrix_dir:
        family, grid = _matrix_dir_family(args.matrix_dir)
        profile = classify(family, grid)
        text = (_profile_table(profile) if args.format == "table"
                else _json_dumps(_profile_payload(profile)))
        _write_text(args.out, text)
        return
    # single-matrix diagnostics from residuals: norms only, no growth exponent
    if args.data:
        panel = _load_panel(args)
        result = fit(panel, EstimatorKind(args.model))
        resid = result.residuals
    else:
        resid = _load_matrix_csv(args.residuals_file)
    om = omega_hat(resid)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": om.n,
        "norms": all_norms(om),
        "regime": None,
        "note": ("growth exponents need a family over an n-grid; "
                 "use --family or --matrix-dir"),
    }
    if args.format == "table":
        rows = [[k, _fmt(v)] for k, v in payload["norms"].items()]
        _write_text(args.out, _table(rows, ["norm", "value"]))
    else:
        _write_text(args.out, _json_dumps(payload))


def _cmd_decompose(args) -> None:
    mat = _load_matrix_csv(args.omega)
    cov = CovMatrix(mat)
    n_factors = "auto" if args.factors == "auto" else int(args.factors)
    split = factor_decompose(cov, n_factors=n_factors)
    recon = split.loadings @ split.loadings.T + split.idio_cov.values
    denom = float(np.linalg.norm(mat)) or 1.0
    rel_err = float(np.linalg.norm(recon - cov.values)) / denom
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": cov.n,
        "n_factors": split.n_factors,
        "factor_strengths": [float(v) for v in
                             (split.loadings * split.loadings).sum(axis=0)],
        "loadings": [[float(v) for v in row] for row in split.loadings],
        "idio_cov": [[float(v) for v in row] for row in split.idio_cov.values],
        "reconstruction_rel_error": rel_err,
    }
    if args.format == "table":
        rows = [[str(i + 1), _fmt(s)]
                for i, s in enumerate(payload["factor_strengths"])]
        text = _table(rows, ["factor", "strength"]) + \
            f"\nn_factors: {split.n_factors}\n"
        _write_text(args.out, text)
    else:
        _write_text(args.out, _json_dumps(payload))


def _cmd_mc_run(args) -> None:
    with open(args.config) as fh:
        try:
            cfg_dict = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.config}: invalid JSON ({exc})") from None
    try:
        cfg = McConfig.from_dict(cfg_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.config}: bad config ({exc})") from None
    report = run_mc(cfg, workers=args.threads)
    _write_text(args.out, report.to_json())


def _cmd_mc_report(args) -> None:
    report = McReport.load(args.report)
    if args.format == "json":
        _write_text(args.out, report.to_json())
        return
    header = ["n", "t", "reps", "fails", "rmse", "size_05", "coverage_95",
              "vbar/true"]
    rows = []
    for c in report.cells:
        ratio = c.get("vbar_true_ratio")
        rows.append([
            c["n"], c["t"], c["reps"], c["n_fail"], _fmt(c.get("rmse_scalar")),
            _fmt(c.get("size_05")), _fmt(c.get("coverage_95")),
            _fmt(ratio[0]) if ratio else "-",
        ])
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _table([[str(v) for v in r] for r in rows], header)
        if report.rate:
            text += (f"\nrate vs {report.rate['axis']}: "
                     f"slope {_fmt(report.rate['slope'])} "
                     f"ci95 [{_fmt(report.rate['ci95'][0])}, "
                     f"{_fmt(report.rate['ci95'][1])}]\n")
    _write_text(args.out, text)


def _cmd_explore_conjecture(args) -> None:
    fam = family_from_string(args.family)
    grid = _parse_n_grid(args.n_grid) if args.n_grid else [25, 50, 100, 200, 400]
    rows = []
    series: dict[str, list[float]] = {"max_eig": [], "taxicab_scaled": [],
                                      "euclid": [], "euclid_over_sqrt_n": []}
    for n in grid:
        om = build_omega(fam, n)
        norms = all_norms(om)
        eu = norm_euclid(om)
        series["max_eig"].append(norms["max_eig"])
        series["taxicab_scaled"].append(norms["taxicab_scaled"])
        series["euclid"].append(eu)
        series["euclid_over_sqrt_n"].append(eu / np.sqrt(n))
        rows.append({"n": n, "max_eig": norms["max_eig"],
                     "taxicab_scaled": norms["taxicab_scaled"],
                     "euclid": eu, "euclid_over_sqrt_n": eu / np.sqrt(n)})
    ns = np.array(grid, dtype=float)
    slopes = {key: _loglog_slope(ns, np.array(vals))[0]
              for key, vals in series.items()}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "rows": rows,
        "fitted_slopes": slopes,
        "note": ("boundedness of max_eig, boundedness of taxicab_scaled, and "
                 "sqrt(n)-growth of euclid travel together on every family "
                 "tried; explored, not asserted"),
    }
    if args.format == "table":
        cols = ["n", "max_eig", "taxicab_scaled", "euclid", "euclid_over_sqrt_n"]
        body = [[_fmt(r[c]) for c in cols] for r in rows]
        text = _table(body, cols)
        text += "\n" + _table(
            [[k, _fmt(v)] for k, v in slopes.items()], ["series", "slope"])
        _write_text(args.out, text)
    else:
        _write_text(args.out, _json_dumps(payload))


def build_parser() -> _Parser:
    parser = _Parser(prog="panelcsd",
                     description="Panel regression under cross-sectional dependence")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit a panel and report robust output")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_out_flags(p)
    p.add_argument("--residuals", default=None,
                   help="also write residuals to this CSV path")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("test", help="Wald test of linear restrictions")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_out_flags(p)
    p.add_argument("--restr", required=True,
                   help='e.g. "b1=0, b2=b3, 2*b1+3*b2=1"')
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("diagnose",
                       help="dependence norms and regime classification")
    p.add_argument("--family", default=None,
                   help="family spec, e.g. equicorr:a=1,b=0.5 or example13")
    p.add_argument("--matrix-dir", default=None,
                   help="directory of omega_<n>.csv matrices")
    p.add_argument("--n-grid", default=None, help="comma-separated sizes")
    p.add_argument("--data", default=None, help="panel CSV (residual norms)")
    p.add_argument("--residuals-file", default=None,
                   help="CSV matrix of residuals (units x periods)")
    p.add_argument("--id-col", default="id")
    p.add_argument("--time-col", default="time")
    p.add_argument("--y-col", default="y")
    p.add_argument("--x-cols", default=None)
    p.add_argument("--model", choices=["fe", "pooled"], default="fe")
    _add_out_flags(p)
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("decompose",
                       help="split a covariance into factors plus remainder")
    p.add_argument("--omega", required=True, help="CSV matrix path")
    p.add_argument("--factors", default="auto", help="'auto' or a count")
    _add_out_flags(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("mc", help="simulation experiments")
    mc_sub = p.add_subparsers(dest="mc_command", required=True)
    pr = mc_sub.add_parser("run", help="run an experiment config")
    pr.add_argument("config", help="experiment config JSON")
    pr.add_argument("--out", default="-")
    pr.add_argument("--threads", type=int, default=None)
    pr.set_defaults(handler=_cmd_mc_run)
    pp = mc_sub.add_parser("report", help="render a saved report")
    pp.add_argument("report", help="report JSON path")
    pp.add_argument("--format", choices=["table", "csv", "json"],
                    default="table")
    pp.add_argument("--out", default="-")
    pp.set_defaults(handler=_cmd_mc_report)

    p = sub.add_parser("explore-conjecture",
                       help="norm growth table for a family (no assertions)")
    p.add_argument("--family", required=True)
    p.add_argument("--n-grid", default=None)
    _add_out_flags(p)
    p.set_defaults(handler=_cmd_explore_conjecture)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
