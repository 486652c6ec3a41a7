"""Monte Carlo engine with deterministic, worker-count-independent output.

Replication r of cell (n, t) derives its seed from a splittable hash of
(master_seed, n, t, r), so every replication is independent of scheduling.
All replications execute in spawned worker processes whose numerical
libraries are pinned to one thread, results are gathered into per-replication
arrays, and aggregation happens in fixed replication order in the parent:
repeated runs of the same config are byte-identical regardless of the worker
count, and the report never records how many workers produced it.

Failed replications (singular designs, invalid covariances) are tallied by
error type, never silently dropped; a cell is flagged as failed when more
than 1% of its replications error.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
import multiprocessing
import warnings

import numpy as np

from .config import default_workers
from .covariance import (
    cov_cross_section,
    cov_kernel,
    cov_plugin,
    true_variance_cs,
    true_variance_mixed,
)
from .dependence import CovMatrix, _loglog_slope
from .dgp import DgpSpec, Equicorr, gen_panel
from .errors import ConditionWarning, PanelError, UsageError
from .estimators import EstimatorKind, fit
from .inference import LinearRestriction, wald

__all__ = [
    "CovConfig",
    "McConfig",
    "McReport",
    "run_mc",
    "t1_cross_section_experiment",
    "regime_size_ordering",
    "aligned_x_coverage",
]

_REP_TAG = 1
_DESIGN_TAG = 0


def _derive_seed(master_seed: int, n: int, t: int, tag: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(master_seed), int(n), int(t), int(tag), int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so a failed write never leaves partial output behind."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class CovConfig:
    """Which covariance estimator each replication uses."""

    method: str = "cs"  # plugin | cs | kernel
    kernel: str = "bartlett"
    trunc: int | str = 0  # lag count or "auto"
    declared: str = "unknown"  # pure-cs | ma:<q> | summable | unknown

    def __post_init__(self):
        if self.method not in ("plugin", "cs", "kernel"):
            raise UsageError(f"unknown covariance method {self.method!r}")

    def to_dict(self) -> dict:
        return {"method": self.method, "kernel": self.kernel,
                "trunc": self.trunc, "declared": self.declared}

    @classmethod
    def from_dict(cls, d: dict) -> "CovConfig":
        return cls(method=d.get("method", "cs"),
                   kernel=d.get("kernel", "bartlett"),
                   trunc=d.get("trunc", 0),
                   declared=d.get("declared", "unknown"))


@dataclass(frozen=True)
class McConfig:
    """One experiment: a design, a grid of panel sizes, and a replication
    count. ``rate_axis`` "T" or "NT" asks for a fitted log-log slope of the
    root mean squared estimation error against that axis."""

    dgp: DgpSpec
    grid: tuple[tuple[int, int], ...]
    reps: int
    estimator: EstimatorKind = EstimatorKind.FIXED_EFFECT
    cov: CovConfig = field(default_factory=CovConfig)
    master_seed: int = 0
    fixed_design: bool = False
    rate_axis: str | None = None
    true_variance: bool = True

    def __post_init__(self):
        grid = tuple((int(n), int(t)) for n, t in self.grid)
        if not grid:
            raise UsageError("grid must have at least one (n, t) cell")
        object.__setattr__(self, "grid", grid)
        if self.reps < 200:
            raise UsageError("reps must be >= 200 for meaningful aggregates")
        if self.rate_axis not in (None, "T", "NT"):
            raise UsageError("rate_axis must be 'T', 'NT', or omitted")

    def to_dict(self) -> dict:
        return {
            "dgp": self.dgp.to_dict(),
            "grid": [list(cell) for cell in self.grid],
            "reps": self.reps,
            "estimator": self.estimator.value,
            "cov": self.cov.to_dict(),
            "master_seed": self.master_seed,
            "fixed_design": self.fixed_design,
            "rate_axis": self.rate_axis,
            "true_variance": self.true_variance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "McConfig":
        return cls(
            dgp=DgpSpec.from_dict(d["dgp"]),
            grid=tuple(tuple(cell) for cell in d["grid"]),
            reps=int(d["reps"]),
            estimator=EstimatorKind(d.get("estimator", "fe")),
            cov=CovConfig.from_dict(d.get("cov", {})),
            master_seed=int(d.get("master_seed", 0)),
            fixed_design=bool(d.get("fixed_design", False)),
            rate_axis=d.get("rate_axis"),
            true_variance=bool(d.get("true_variance", True)),
        )


def _compute_cov(result, cov_cfg: CovConfig):
    if cov_cfg.method == "plugin":
        return cov_plugin(result)
    if cov_cfg.method == "cs":
        return cov_cross_section(result)
    return cov_kernel(result, kernel=cov_cfg.kernel, trunc=cov_cfg.trunc,
                      declared=cov_cfg.declared)


def _true_variance_for(panel, kind: EstimatorKind, truth: dict) -> np.ndarray:
    """Exact conditional slope variance implied by a draw's truth record."""
    tm = truth["time_memory"]
    if tm.channel == "none":
        return true_variance_cs(panel, kind, CovMatrix(truth["omega"]))
    if tm.channel == "idio":
        v, _ = true_variance_mixed(panel, kind, tm,
                                   loadings=truth["loadings"],
                                   sigma=CovMatrix(truth["sigma"]))
        return v
    # factor channel: common part carries the lags, idio part is lag-free
    v_common, _ = true_variance_mixed(panel, kind, tm,
                                      loadings=truth["loadings"], sigma=None)
    v_idio = true_variance_cs(panel, kind, CovMatrix(truth["sigma"]))
    return v_common + v_idio


def _worker_block(cfg_dict: dict, n: int, t: int, lo: int, hi: int,
                  design: tuple[np.ndarray, np.ndarray] | None):
    """Run replications [lo, hi) of one cell; returns per-rep arrays."""
    cfg = McConfig.from_dict(cfg_dict)
    k = len(cfg.dgp.beta_true)
    count = hi - lo
    beta = np.full((count, k), np.nan)
    vbar = np.full((count, k, k), np.nan)
    pval = np.full(count, np.nan)
    want_tv = cfg.true_variance and not cfg.fixed_design
    tvar = np.full((count, k, k), np.nan) if want_tv else None
    failed = np.zeros(count, dtype=np.uint8)
    fail_kinds: list[str] = []

    restr = LinearRestriction(np.eye(k), np.asarray(cfg.dgp.beta_true))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        for i, rep in enumerate(range(lo, hi)):
            seed = _derive_seed(cfg.master_seed, n, t, _REP_TAG, rep)
            try:
                panel, truth = gen_panel(cfg.dgp, n, t, seed, design=design)
                res = fit(panel, cfg.estimator)
                rc = _compute_cov(res, cfg.cov)
                tr = wald(res.beta_hat, rc, restr)
            except PanelError as exc:
                failed[i] = 1
                fail_kinds.append(type(exc).__name__)
                continue
            beta[i] = res.beta_hat
            vbar[i] = rc.matrix
            pval[i] = tr.p_value
            if want_tv:
                tvar[i] = _true_variance_for(panel, cfg.estimator, truth)
    return lo, hi, beta, vbar, pval, tvar, failed, fail_kinds


@contextmanager
def _single_thread_env():
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    old = {key: os.environ.get(key) for key in keys}
    for key in keys:
        os.environ[key] = "1"
    try:
        yield
    finally:
        for key, val in old.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, -(-total // (workers * 4)))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _aggregate_cell(n: int, t: int, cfg: McConfig, beta, vbar, pval, tvar,
                    failed, fail_kinds, tv_fixed) -> dict:
    reps = cfg.reps
    k = len(cfg.dgp.beta_true)
    beta_true = np.asarray(cfg.dgp.beta_true)
    ok = failed == 0
    n_fail = int(failed.sum())
    cell: dict = {
        "n": n, "t": t, "reps": reps, "n_fail": n_fail,
        "failed": bool(n_fail > 0.01 * reps),
        "failure_kinds": {name: fail_kinds.count(name)
                          for name in sorted(set(fail_kinds))},
    }
    if not ok.any():
        cell.update({"beta_mean": None, "beta_sd": None, "rmse": None,
                     "rmse_scalar": None, "size_05": None, "coverage_95": None,
                     "vbar_mean_diag": None, "true_variance_diag": None,
                     "vbar_true_ratio": None})
        return cell
    b = beta[ok]
    err = b - beta_true[np.newaxis, :]
    cell["beta_mean"] = [float(v) for v in b.mean(axis=0)]
    cell["beta_sd"] = ([float(v) for v in b.std(axis=0, ddof=1)]
                       if ok.sum() >= 2 else None)
    cell["rmse"] = [float(v) for v in np.sqrt((err * err).mean(axis=0))]
    cell["rmse_scalar"] = float(np.sqrt((err * err).sum(axis=1).mean()))
    p = pval[ok]
    cell["size_05"] = float((p < 0.05).mean())
    cell["coverage_95"] = float((p > 0.05).mean())
    vd = np.diagonal(vbar[ok], axis1=1, axis2=2).mean(axis=0)
    cell["vbar_mean_diag"] = [float(v) for v in vd]
    tv_diag = None
    if tv_fixed is not None:
        tv_diag = np.diagonal(tv_fixed)
    elif tvar is not None:
        tv_diag = np.diagonal(tvar[ok], axis1=1, axis2=2).mean(axis=0)
    if tv_diag is not None:
        cell["true_variance_diag"] = [float(v) for v in tv_diag]
        cell["vbar_true_ratio"] = [float(a / b) for a, b in zip(vd, tv_diag)]
    else:
        cell["true_variance_diag"] = None
        cell["vbar_true_ratio"] = None
    return cell


def _fit_rate(cells: list[dict], axis: str | None) -> dict | None:
    if axis is None:
        return None
    pts = [(c["t"] if axis == "T" else c["n"] * c["t"], c["rmse_scalar"])
           for c in cells if c["rmse_scalar"]]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, se = _loglog_slope(xs, ys)
    ci = ([slope - 1.96 * se, slope + 1.96 * se]
          if np.isfinite(se) else [slope, slope])
    return {"axis": axis, "slope": float(slope),
            "se": float(se) if np.isfinite(se) else None,
            "ci95": [float(ci[0]), float(ci[1])]}


@dataclass(frozen=True)
class McReport:
    """Aggregated experiment output; regenerable bit-exactly from its
    config (which embeds the master seed)."""

    config: dict
    cells: list[dict]
    rate: dict | None
    schema_version: int = 1

    SEED_RULE = ("replication r of cell (n, t) seeds a fresh generator with "
                 "uint64 drawn from SeedSequence([master_seed, n, t, 1, r]); "
                 "the shared design of a fixed-design run uses tag 0")

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version, "config": self.config,
                "cells": self.cells, "rate": self.rate,
                "seed_rule": self.SEED_RULE}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "McReport":
        d = json.loads(text)
        return cls(config=d["config"], cells=d["cells"], rate=d.get("rate"),
                   schema_version=d.get("schema_version", 1))

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "McReport":
        with open(path) as fh:
            return cls.from_json(fh.read())


def run_mc(config: McConfig, workers: int | None = None) -> McReport:
    """Run the experiment. ``workers`` defaults to the PANELCSD_THREADS
    environment variable, then the CPU count. Output is identical for any
    worker count."""
    workers = int(workers) if workers else default_workers()
    cfg_dict = config.to_dict()
    k = len(config.dgp.beta_true)
    cells: list[dict] = []
    ctx = multiprocessing.get_context("spawn")
    with _single_thread_env():
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            for n, t in config.grid:
                design = None
                tv_fixed = None
                if config.fixed_design:
                    dseed = _derive_seed(config.master_seed, n, t, _DESIGN_TAG, 0)
                    dpanel, dtruth = gen_panel(config.dgp, n, t, dseed)
                    design = (dpanel.x, dtruth["mu"])
                    if config.true_variance:
                        tv_fixed = _true_variance_for(dpanel, config.estimator,
                                                      dtruth)
                beta = np.full((config.reps, k), np.nan)
                vbar = np.full((config.reps, k, k), np.nan)
                pval = np.full(config.reps, np.nan)
                want_tv = config.true_variance and not config.fixed_design
                tvar = np.full((config.reps, k, k), np.nan) if want_tv else None
                failed = np.zeros(config.reps, dtype=np.uint8)
                fail_kinds: list[str] = []
                futures = [
                    pool.submit(_worker_block, cfg_dict, n, t, lo, hi, design)
                    for lo, hi in _chunk_ranges(config.reps, workers)
                ]
                for fut in futures:
                    lo, hi, b_blk, v_blk, p_blk, tv_blk, f_blk, kinds = \
                        fut.result()
                    beta[lo:hi] = b_blk
                    vbar[lo:hi] = v_blk
                    pval[lo:hi] = p_blk
                    if want_tv and tv_blk is not None:
                        tvar[lo:hi] = tv_blk
                    failed[lo:hi] = f_blk
                    fail_kinds.extend(kinds)
                cells.append(_aggregate_cell(n, t, config, beta, vbar, pval,
                                             tvar, failed, fail_kinds, tv_fixed))
    rate = _fit_rate(cells, config.rate_axis)
    return McReport(config=cfg_dict, cells=cells, rate=rate)


# ---------------------------------------------------------------------------
# Standalone experiments


def t1_cross_section_experiment(
    n_grid=(50, 800),
    reps: int = 2000,
    a: float = 1.0,
    b: float = 0.5,
    x_mean: float = 1.0,
    centered: bool = False,
    beta: float = 1.0,
    seed: int = 20260819,
) -> dict:
    """Single-period slope regression under equicorrelated errors.

    Runs the no-intercept cross-section regression y = x * beta + eps with
    eps drawn from Equicorr(a, b). With uncentered x (mean ``x_mean``) the
    common shock loads on the slope and the root mean squared error does not
    shrink as n grows; exactly centering x (``centered=True``) removes the
    common-shock channel and the error shrinks like 1/sqrt(n). The returned
    ``ratio`` is rmse at the largest n over rmse at the smallest.
    """
    fam = Equicorr(a=a, b=b)
    rmse_by_n: dict[int, float] = {}
    for n in n_grid:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(n), 84]))
        omega = fam.build(n)
        evals, evecs = np.linalg.eigh(omega)
        root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
        x = x_mean + rng.standard_normal((n, reps))
        if centered:
            x = x - x.mean(axis=0, keepdims=True)
        eps = root @ rng.standard_normal((n, reps))
        y = beta * x + eps
        bhat = (x * y).sum(axis=0) / (x * x).sum(axis=0)
        rmse_by_n[int(n)] = float(np.sqrt(((bhat - beta) ** 2).mean()))
    ns = sorted(rmse_by_n)
    return {
        "rmse_by_n": rmse_by_n,
        "ratio": rmse_by_n[ns[-1]] / rmse_by_n[ns[0]],
        "centered": centered,
        "reps": reps,
    }


def regime_size_ordering(
    n: int = 50,
    t_grid=(25, 50, 100, 200, 400),
    reps: int = 1500,
    seed: int = 31415,
    workers: int | None = None,
) -> dict:
    """Wald size across periods for weak, semi-strong, and strong errors.

    Reports, per dependence regime, the rejection rate of a true restriction
    at each t and the smallest t whose size lands in [3.5%, 6.5%]. The
    expected monotonicity is that weaker dependence reaches nominal size no
    later than stronger dependence (``ordered_ok``).
    """
    from .dgp import Diagonal, Factor

    dgps = {
        "weak": Diagonal(),
        "semi_strong": Factor(n_factors=1, strength=0.5, loading_seed=7),
        "strong": Equicorr(a=1.0, b=0.5),
    }
    out: dict = {"n": n, "t_grid": list(t_grid), "reps": reps, "regimes": {}}
    min_t: dict[str, int | None] = {}
    for idx, (name, fam) in enumerate(dgps.items()):
        cfg = McConfig(
            dgp=DgpSpec(cross_section=fam, beta_true=(1.0,)),
            grid=tuple((n, t) for t in t_grid),
            reps=reps,
            cov=CovConfig(method="cs"),
            master_seed=seed + idx,
            true_variance=False,
        )
        report = run_mc(cfg, workers=workers)
        sizes = {c["t"]: c["size_05"] for c in report.cells}
        hits = [t for t in t_grid if sizes[t] is not None
                and 0.035 <= sizes[t] <= 0.065]
        min_t[name] = min(hits) if hits else None
        out["regimes"][name] = {"size_by_t": sizes, "min_t_in_band": min_t[name]}
    weak_t = min_t["weak"] if min_t["weak"] is not None else np.inf
    strong_t = min_t["strong"] if min_t["strong"] is not None else np.inf
    out["ordered_ok"] = bool(weak_t <= strong_t)
    return out


def aligned_x_coverage(
    n: int = 50,
    t: int = 400,
    reps: int = 2000,
    seed: int = 27182,
    workers: int | None = None,
) -> dict:
    """Coverage of the 95% Wald region under a strong factor, with the
    regressors either aligned with the factor loadings or generic iid.
    Both are reported side by side."""
    from .dgp import Factor

    out: dict = {"n": n, "t": t, "reps": reps}
    for key, x_law in (("aligned", "factor_aligned"), ("generic", "iid_normal")):
        cfg = McConfig(
            dgp=DgpSpec(cross_section=Factor(n_factors=1, strength=1.0),
                        beta_true=(1.0,), x_law=x_law),
            grid=((n, t),),
            reps=reps,
            cov=CovConfig(method="cs"),
            master_seed=seed,
            true_variance=False,
        )
        report = run_mc(cfg, workers=workers)
        out[key] = {"coverage_95": report.cells[0]["coverage_95"],
                    "size_05": report.cells[0]["size_05"]}
    return out
