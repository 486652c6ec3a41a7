"""Command line interface.

Subcommands: estimate, test, diagnose, decompose, mc run, mc report,
explore-conjecture. Exit codes: 0 success, 1 bad input (flags, files,
malformed requests), 2 numerical failure (singular designs, invalid
covariances), 130 when stopped by Ctrl-C (SIGINT) and 143 by SIGTERM.
Output is JSON (or an aligned --format table), written atomically: never
left partial.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import signal
import sys
import warnings

import numpy as np

from .config import resolve_workers
from .covariance import (
    KERNELS,
    CovConfig,
    CovMethod,
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
    _entry_norms,
    _loglog_slope,
)
from .dgp import build_omega, family_from_string
from .errors import NumericalError, UsageError, WorkerPoolError
from .estimators import EstimatorKind, fit
from .inference import chi2_sf, parse_restrictions, wald
from .montecarlo import McConfig, McReport, run_mc, write_atomic
from .panel import load_csv

SCHEMA_VERSION = 1
_MODELS = [kind.value for kind in EstimatorKind]


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


def _emit(args, payload: dict, table: str) -> None:
    """Write ``payload`` as JSON, or ``table`` under --format table."""
    _write_text(args.out,
                table if args.format == "table" else _json_dumps(payload))


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
    p.add_argument("--model", choices=_MODELS, default="fe")
    p.add_argument("--cov", choices=[m.value for m in CovMethod], default="cs")
    p.add_argument("--kernel", choices=KERNELS, default="bartlett")
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
    if len(set(grid)) < 2 or min(grid) < 1:
        raise UsageError("--n-grid must list two or more distinct sizes "
                         f">= 1, got {arg!r}")
    return grid


def _load_panel(args):
    return load_csv(args.data, id_col=args.id_col, time_col=args.time_col,
                    y_col=args.y_col, x_cols=_parse_x_cols(args.x_cols))


def _compute_cov_cli(result, cov: CovConfig):
    if cov.method == "plugin":
        return cov_plugin(result)
    if cov.method == "cs":
        return cov_cross_section(result)
    return cov_kernel(result, kernel=cov.kernel, trunc=cov.trunc,
                      declared=cov.declared)


def _estimate_payload(args):
    # The covariance flags are checked before any data is read.
    cov = CovConfig(method=args.cov, kernel=args.kernel,
                    trunc=_parse_trunc(args.trunc), declared=args.declared)
    panel = _load_panel(args)
    x_cols = panel.x_names
    result = fit(panel, EstimatorKind(args.model))
    rc = _compute_cov_cli(result, cov)
    var = np.diag(rc.matrix)
    se = np.sqrt(np.clip(var, 0.0, None))
    # wald's rule for R = e_j: the 1 x 1 R V R' is singular where the
    # coefficient's own variance is not positive; no t-statistic (null) there
    tstats = [float(b / s) if v > 0 else None
              for b, s, v in zip(result.beta_hat, se, var)]
    pvals = [None if ts is None else chi2_sf(ts * ts, 1) for ts in tstats]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "regressors": list(x_cols),
        "beta": {c: float(b) for c, b in zip(x_cols, result.beta_hat)},
        "se": {c: float(s) for c, s in zip(x_cols, se)},
        "t_stats": dict(zip(x_cols, tstats)),
        "p_values": dict(zip(x_cols, pvals)),
        "cov": rc.metadata(),
        "condition_number": result.condition_number,
        "condition_warning": result.condition_warning,
    }
    return payload, panel, result, rc


def _cmd_estimate(args) -> None:
    payload, panel, result, _ = _estimate_payload(args)
    if args.residuals:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([args.id_col, args.time_col, "residual"])
        for i, u in enumerate(panel.unit_ids):
            for s, p in enumerate(panel.time_ids):
                writer.writerow([u, p, repr(float(result.residuals[i, s]))])
        _write_text(args.residuals, buf.getvalue())
    rows = [[c, _fmt(payload["beta"][c]), _fmt(payload["se"][c]),
             _fmt(payload["t_stats"][c]), _fmt(payload["p_values"][c])]
            for c in panel.x_names]
    _emit(args, payload, _table(rows, ["coef", "estimate", "se", "t", "p"]))


def _cmd_test(args) -> None:
    payload, panel, result, rc = _estimate_payload(args)
    restriction = parse_restrictions(args.restr, panel.n_regressors)
    tr = wald(result.beta_hat, rc, restriction)
    payload["test"] = {
        "restrictions": args.restr,
        "statistic": tr.statistic,
        "dof": tr.dof,
        "p_value": tr.p_value,
    }
    rows = [[args.restr, _fmt(tr.statistic), str(tr.dof), _fmt(tr.p_value)]]
    _emit(args, payload, _table(rows, ["restriction", "wald", "dof", "p"]))


def _load_matrix_csv(path: str) -> np.ndarray:
    # any shape: a residual file is units x periods, and CovMatrix refuses
    # a covariance that is not square
    try:
        with warnings.catch_warnings():  # empty: a shape check reports it
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise UsageError(f"{path}: not a numeric CSV matrix ({exc})") from None


@contextlib.contextmanager
def _naming(path: str):
    """Prefix ``path`` to a ValueError or NumericalError raised inside,
    keeping its class and so its exit code."""
    try:
        yield
    except (ValueError, NumericalError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
        path = found[n]
        mat = _load_matrix_csv(path)
        if mat.shape[0] != n:
            raise UsageError(f"{path}: expected size {n}, got {mat.shape[0]}")
        with _naming(path):
            cov = CovMatrix(mat)
            cov.lambda_max  # the PSD check, here; the norms reuse the value
        return cov

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
    if args.family or args.matrix_dir:
        if args.family:
            fam = family_from_string(args.family)
            grid = (_parse_n_grid(args.n_grid) if args.n_grid
                    else [25, 50, 100, 200])
            family = functools.partial(build_omega, fam)
        else:
            family, grid = _matrix_dir_family(args.matrix_dir)
        profile = classify(family, grid)
        _emit(args, _profile_payload(profile), _profile_table(profile))
        return
    # single-matrix diagnostics from residuals: norms only, no growth exponent
    if args.data:
        panel = _load_panel(args)
        om = omega_hat(fit(panel, EstimatorKind(args.model)).residuals)
    else:
        with _naming(args.residuals_file):
            om = omega_hat(_load_matrix_csv(args.residuals_file))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": om.n,
        "norms": all_norms(om),
        "regime": None,
        "note": ("growth exponents need a family over an n-grid; "
                 "use --family or --matrix-dir"),
    }
    rows = [[k, _fmt(v)] for k, v in payload["norms"].items()]
    _emit(args, payload, _table(rows, ["norm", "value"]))


def _cmd_decompose(args) -> None:
    n_factors = "auto" if args.factors == "auto" else int(args.factors)
    mat = _load_matrix_csv(args.omega)
    with _naming(args.omega):
        cov = CovMatrix(mat)
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
    rows = [[str(i + 1), _fmt(s)]
            for i, s in enumerate(payload["factor_strengths"])]
    _emit(args, payload, _table(rows, ["factor", "strength"])
          + f"\nn_factors: {split.n_factors}\n")


def _cmd_mc_run(args) -> None:
    workers = resolve_workers(args.threads, "--threads")
    with open(args.config) as fh:
        try:
            cfg_dict = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.config}: invalid JSON ({exc})") from None
    report = run_mc(McConfig.from_dict(cfg_dict), workers=workers)
    _write_text(args.out, report.to_json())


def _cmd_mc_report(args) -> None:
    report = McReport.load(args.report)
    if args.format == "json":
        _write_text(args.out, report.to_json())
        return
    header = ["n", "t", "reps", "fails", "rmse", "size_05", "coverage_95",
              "vbar/true"]
    rows = [[c["n"], c["t"], c["reps"], c["n_fail"], _fmt(c.get("rmse_scalar")),
             _fmt(c.get("size_05")), _fmt(c.get("coverage_95")),
             _fmt(c["vbar_true_ratio"][0]) if c.get("vbar_true_ratio") else "-"]
            for c in report.cells]
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
    for n in grid:
        om = build_omega(fam, n)
        entry = _entry_norms(om)
        eu = entry["euclid"]
        rows.append({"n": n, "max_eig": om.lambda_max,
                     "taxicab_scaled": entry["taxicab_scaled"],
                     "euclid": eu, "euclid_over_sqrt_n": eu / np.sqrt(n)})
    series = ["max_eig", "taxicab_scaled", "euclid", "euclid_over_sqrt_n"]
    ns = np.array(grid, dtype=float)
    slopes = {key: _loglog_slope(ns, np.array([r[key] for r in rows]))[0]
              for key in series}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "rows": rows,
        "fitted_slopes": slopes,
        "note": ("boundedness of max_eig, boundedness of taxicab_scaled, and "
                 "sqrt(n)-growth of euclid travel together on every family "
                 "tried; explored, not asserted"),
    }
    cols = ["n", *series]
    _emit(args, payload,
          _table([[_fmt(r[c]) for c in cols] for r in rows], cols) + "\n"
          + _table([[k, _fmt(v)] for k, v in slopes.items()],
                   ["series", "slope"]))


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
    p.add_argument("--model", choices=_MODELS, default="fe")
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


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread: ``mc run`` shuts its worker pool
    down on the path Ctrl-C takes, and every command exits 143."""


def _terminate(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # one shutdown only
    raise _Terminated


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, WorkerPoolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, _Terminated) as exc:
        # run_mc notes the cell it was running: "in cell (n=N, t=T)"
        print(" ".join(["error: interrupted", *getattr(exc, "__notes__", ())]),
              file=sys.stderr)
        return 128 + (signal.SIGINT if isinstance(exc, KeyboardInterrupt)
                      else signal.SIGTERM)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(dispatch(sys.argv[1:]))
