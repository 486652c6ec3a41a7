"""Monte Carlo engine with deterministic, worker-count-independent output.

Replication r of cell (n, t) derives its seed from a splittable hash of
(master_seed, n, t, r), so every replication is independent of scheduling.
All replications execute in worker processes whose numerical libraries
are pinned to one thread. Where the platform has one, the workers are forks
of a forkserver that imported numpy and this package once, when this
process made its first pool; ``multiprocessing`` ends that server after
this process exits. Elsewhere the workers are spawned. :func:`worker_pool`
keeps one pool open across the ``run_mc`` calls inside it, as each
experiment does; a standalone ``run_mc`` call starts and stops its own
pool. A worker ends with the pool scope that started it, or with this
process, however that ends. Workers ignore SIGINT, which a terminal sends
to the whole process group, and leave interrupts to this process. If the
pool breaks, ``run_mc`` raises
:class:`~panelcsd.errors.WorkerPoolError` naming the cell; an interrupt
leaving ``run_mc`` carries the cell it stopped in as a note. The worker
count is an integer >= 1 from the ``workers`` argument, else the
``PANELCSD_THREADS`` environment variable, else the CPU count; anything
else is a ``UsageError``. A worker runs its replications in
stacked blocks: each replication is drawn on its own, then the fit,
covariance, exact variance and Wald statistic run once per block on stacked
arrays, with the same bits as one replication at a time. A replication the
block cannot settle (a failure, or an ill-conditioned design) reruns alone
through the public functions. Each worker block returns one record per
replication: its slope, covariance estimate, p-value and exact variance, or
the type name of the error that stopped it. The parent joins the blocks in
replication order and aggregates each cell once: repeated runs of the same
config are byte-identical regardless of the worker count, and the report
never records how many workers produced it.

Failed replications (singular designs, invalid covariances) are tallied by
error type, never silently dropped; a cell is flagged as failed when more
than 1% of its replications error. A malformed config is rejected when it
is built or loaded, before any worker starts. The covariance request,
:class:`~panelcsd.covariance.CovConfig`, is re-exported here.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass, field
import multiprocessing
import multiprocessing.connection
import threading
import warnings

import numpy as np

from .config import check_int, field_dict, from_fields, resolve_workers
from .covariance import (CovConfig, _exact_variance, _robust_cov,
                         _robust_stack)
from .dependence import _loglog_slope
from .dgp import (DgpSpec, Equicorr, _draw_block, _truth, build_omega,
                  gen_panel)
from .errors import ConditionWarning, PanelError, UsageError, WorkerPoolError
from .estimators import EstimatorKind, _fit_stack, fit
from .inference import LinearRestriction, _wald_stack, chi2_sf, wald

__all__ = [
    "CovConfig",
    "McConfig",
    "McReport",
    "run_mc",
    "worker_pool",
    "t1_cross_section_experiment",
    "regime_size_ordering",
    "aligned_x_coverage",
]

_REP_TAG = 1
_DESIGN_TAG = 0

# The errors a replication tallies under its type name; anything else is a
# bug and aborts the run.
_REP_ERRORS = (PanelError, np.linalg.LinAlgError)


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
        if not (isinstance(self.grid, (list, tuple)) and self.grid and all(
                isinstance(cell, (list, tuple)) and len(cell) == 2
                for cell in self.grid)):
            raise UsageError(f"grid must be a non-empty list of (n, t) "
                             f"pairs, got {self.grid!r}")
        object.__setattr__(self, "grid", tuple(
            (check_int(n, "grid entry"), check_int(t, "grid entry"))
            for n, t in self.grid))
        for key in ("reps", "master_seed"):
            object.__setattr__(self, key, check_int(getattr(self, key), key))
        for key in ("fixed_design", "true_variance"):
            if not isinstance(getattr(self, key), bool):
                raise UsageError(f"{key} must be true or false, "
                                 f"got {getattr(self, key)!r}")
        if self.reps < 200:
            raise UsageError("reps must be >= 200 for meaningful aggregates")
        if self.rate_axis not in (None, "T", "NT"):
            raise UsageError("rate_axis must be 'T', 'NT', or omitted")
        if not isinstance(self.estimator, EstimatorKind):
            raise UsageError(f"estimator must be an EstimatorKind, "
                             f"got {self.estimator!r}")

    def to_dict(self) -> dict:
        return field_dict(self, dgp=self.dgp.to_dict(),
                          grid=[list(cell) for cell in self.grid],
                          estimator=self.estimator.value,
                          cov=self.cov.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "McConfig":
        return from_fields(cls, d, "config", dgp=DgpSpec.from_dict,
                           estimator=_estimator_kind, cov=CovConfig.from_dict)


def _estimator_kind(value) -> EstimatorKind:
    names = [kind.value for kind in EstimatorKind]
    if value not in names:
        raise UsageError(f"estimator must be one of {names}, got {value!r}")
    return EstimatorKind(value)


def _true_variance_for(xk: np.ndarray, gram_inv: np.ndarray,
                       truth: dict) -> np.ndarray:
    """Exact conditional slope variance implied by a draw's truth record,
    read off the k-major design and Gram inverse its fit has already
    checked (one fit, or a stack of them)."""
    return _exact_variance(xk, gram_inv, truth["time_memory"],
                           truth["loadings"], truth["sigma"])


def _fixed_design(cfg: McConfig, n: int, t: int):
    """The design every replication of a fixed-design cell shares (tag 0),
    and its exact variance, None when that fails; the replications then
    tally their own failures."""
    seed = _derive_seed(cfg.master_seed, n, t, _DESIGN_TAG, 0)
    panel, truth = gen_panel(cfg.dgp, n, t, seed)
    tv = None
    if cfg.true_variance:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionWarning)
                res = fit(panel, cfg.estimator)
                tv = _true_variance_for(res.demeaned_x.transpose(2, 0, 1),
                                        res.gram_inv, truth)
        except _REP_ERRORS:
            pass
    return (panel.x, truth["mu"]), tv


# Replications per stacked block: the largest count whose designs and
# outcomes, n*t*(k+1) values each, fit in _BATCH_ELEMENTS doubles (512 KiB),
# at most _MAX_BATCH, so that the block's arrays stay cache-sized and its
# memory peak small. A cell at or above the budget runs blocks of one.
_BATCH_ELEMENTS = 1 << 16
_MAX_BATCH = 32


def _batch_size(n: int, t: int, k: int) -> int:
    return max(1, min(_MAX_BATCH, _BATCH_ELEMENTS // (n * t * (k + 1))))


def _replicate(cfg: McConfig, n: int, t: int, rep: int, design, restr,
               want_tv: bool):
    """Replication ``rep`` alone, on blocks of one: the path of every
    replication a stacked block cannot settle. Raises what stopped it."""
    seed = _derive_seed(cfg.master_seed, n, t, _REP_TAG, rep)
    panel, truth = gen_panel(cfg.dgp, n, t, seed, design=design)
    res = fit(panel, cfg.estimator)
    v = _robust_cov(res, **cfg.cov.to_dict()).matrix
    p_value = wald(res.beta_hat, v, restr).p_value
    tv = (_true_variance_for(res.demeaned_x.transpose(2, 0, 1),
                             res.gram_inv, truth) if want_tv else np.nan)
    return res.beta_hat, v, p_value, tv


def _stacked_block(cfg: McConfig, n: int, t: int, reps: range, design,
                   restr, want_tv: bool, out) -> np.ndarray:
    """Replications ``reps`` of one cell as one stack: each is drawn on its
    own from its seed, then the demean, Gram check, solve, covariance,
    exact variance and Wald statistic run once on (B, ...) arrays.

    Writes the slopes, covariance estimates, p-values and exact variances
    of the replications it settles into ``out``, four arrays with a row per
    replication, and returns a mask of the ones it could not settle:
    non-finite data, a rank or condition failure, a condition number above
    COND_WARN (whose solve is ``lstsq``), a singular R V R', or a non-finite
    result. An error raised for the whole stack propagates, and then
    nothing has been written.
    """
    seeds = [_derive_seed(cfg.master_seed, n, t, _REP_TAG, r) for r in reps]
    y, x, _ = _draw_block(cfg.dgp, n, t, seeds, design)
    live, xk, resid, gram_inv, b = _fit_stack(y, x, cfg.estimator)
    v = _robust_stack(cfg.estimator, xk, resid, gram_inv,
                      **cfg.cov.to_dict())[0]
    stat, singular, _ = _wald_stack(b, v, restr)
    ok = (~singular & np.isfinite(stat) & np.isfinite(b).all(axis=1)
          & np.isfinite(v).all(axis=(1, 2)))
    if want_tv:
        tv = _true_variance_for(xk, gram_inv, _truth(cfg.dgp, n, None))
        ok &= np.isfinite(tv).all(axis=(1, 2))
    p_values = [chi2_sf(max(float(st), 0.0), restr.q) for st in stat[ok]]
    rows = live[ok]
    beta, vbar, pval, tvar = out
    beta[rows], vbar[rows], pval[rows] = b[ok], v[ok], p_values
    if want_tv:
        tvar[rows] = tv[ok]
    redo = np.ones(len(reps), dtype=bool)
    redo[rows] = False
    return redo


def _worker_block(cfg: McConfig, n: int, t: int, lo: int, hi: int,
                  design: tuple[np.ndarray, np.ndarray] | None):
    """Run replications [lo, hi) of one cell, in stacked blocks of
    ``_batch_size`` replications. Returns per-replication slopes, covariance
    estimates, p-values and exact variances (NaN where a replication has
    none), and one failure kind per replication, None on success.

    A replication the stack cannot settle, or every replication of a block
    whose stacked algebra raises, reruns alone (:func:`_replicate`), so its
    failure kind is the exact exception its own run raises.
    """
    k = len(cfg.dgp.beta_true)
    out = (np.full((hi - lo, k), np.nan), np.full((hi - lo, k, k), np.nan),
           np.full(hi - lo, np.nan), np.full((hi - lo, k, k), np.nan))
    kinds: list[str | None] = [None] * (hi - lo)
    want_tv = cfg.true_variance and not cfg.fixed_design
    restr = LinearRestriction(np.eye(k), np.asarray(cfg.dgp.beta_true))
    size = _batch_size(n, t, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        for start in range(lo, hi, size):
            reps = range(start, min(start + size, hi))
            rows = slice(start - lo, reps.stop - lo)
            try:
                redo = _stacked_block(cfg, n, t, reps, design, restr,
                                      want_tv, [a[rows] for a in out])
            except _REP_ERRORS:
                redo = np.ones(len(reps), dtype=bool)
            for j in np.flatnonzero(redo):
                i = start - lo + j
                try:
                    got = _replicate(cfg, n, t, reps[j], design, restr,
                                     want_tv)
                except _REP_ERRORS as exc:
                    kinds[i] = type(exc).__name__
                    continue
                for dest, value in zip(out, got):
                    dest[i] = value
    return (*out, kinds)


# The environment each worker starts with. BLAS reads its thread count once,
# at import. glibc's allocator reads its thresholds once, at start: a stacked
# block frees a few MB of arrays at once, which by default goes back to the
# kernel and is faulted in again, page by page, by the next block (about 220
# page faults per replication at (50, 200)); with these the worker's heap
# keeps it. Other allocators ignore the two names.
_WORKER_ENV = {
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS"), "1"),
    "MALLOC_MMAP_THRESHOLD_": str(16 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(32 << 20),
}


@contextmanager
def _environ(values: dict[str, str]):
    """Set ``values`` in the environment for the scope, then restore it."""
    old = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, val in old.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val


# The pid of the forkserver this process started for its pools, or None.
# multiprocessing keeps one forkserver per process; this records whether the
# running one is ours, that is, started with _WORKER_ENV and our preload.
_SERVER_PID: int | None = None
_SERVER_LOCK = threading.Lock()


def _context():
    """The start method of a new pool; call it with the worker environment
    set.

    Where the platform has a forkserver, the first pool starts one that
    imports numpy and this package once, with the worker environment, and
    every worker of every later pool is a fork of that clean,
    single-threaded process: a later two-worker pool starts in about 0.03 s
    instead of the 0.3 s a spawn pool takes (2 vCPUs). ``multiprocessing``
    ends the server: it exits once this process and its last worker have
    closed its alive pipe, and the exit hook removes its socket's
    directory. A forkserver that other code started first has its own
    environment and preload, so the pool spawns its workers instead.
    """
    global _SERVER_PID
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    from multiprocessing import forkserver

    server = forkserver._forkserver
    with _SERVER_LOCK:
        if server._forkserver_pid not in (None, _SERVER_PID):
            return multiprocessing.get_context("spawn")
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(["numpy", __name__])
        # The server does not take the parent's sys.path on every Python
        # version (3.11 ignores it), so it gets this package's directory;
        # its workers inherit the variable but start no interpreter.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, (root,
                                             os.environ.get("PYTHONPATH"))))
        with _environ({"PYTHONPATH": path}):
            server.ensure_running()
        _SERVER_PID = server._forkserver_pid
        return ctx


def _watch_pool(alive) -> None:
    """Pool initializer: end this worker as soon as ``alive``, the read end
    of a pipe whose write end only the pool's owner holds, reads end of
    file: when the owner closes it, or dies (SIGKILL included). A worker
    idle on the call queue would otherwise wait there for ever. The daemon
    thread costs nothing per replication. The worker ignores SIGINT: a
    terminal's Ctrl-C reaches the whole process group, and the owner ends
    its workers through the pipe."""
    def exit_when_closed():
        multiprocessing.connection.wait([alive])
        os._exit(1)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=exit_when_closed, daemon=True).start()


# The pool of the innermost open _pool scope and its worker count, or None.
_ACTIVE_POOL: ContextVar[tuple[int, ProcessPoolExecutor] | None] = \
    ContextVar("_ACTIVE_POOL", default=None)


@contextmanager
def _pool(workers: int):
    """A pool of ``workers`` processes: the enclosing scope's when it has
    one of that size, else a new one, shut down on exit. An exception
    leaving the scope that created the pool (KeyboardInterrupt included)
    ends its workers at once and drops the work still queued.

    The workers come from :func:`_context`. A pool starts a worker at each
    ``submit`` until it has ``workers``, so every submit must run inside
    the scope that created the pool: a spawned worker then inherits the
    worker environment (single-thread BLAS) too. BLAS reads it at import,
    so an initializer would be too late.

    Each worker watches a pipe that this scope holds open
    (:func:`_watch_pool`). On an exception the scope closes it before
    shutting the pool down: an interrupt that lands while a worker starts
    can leave a worker the executor does not know of, which would take the
    shutdown message meant for another and leave the shutdown waiting on
    that other for ever. A failure of that shutdown (an interrupt between
    the creation and the start of the executor's thread makes it raise)
    never replaces the exception in flight.
    """
    active = _ACTIVE_POOL.get()
    if active is not None and active[0] == workers:
        yield active[1]
        return
    alive, keep_alive = multiprocessing.Pipe(duplex=False)
    with alive, keep_alive, _environ(_WORKER_ENV):
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_context(),
                                   initializer=_watch_pool, initargs=(alive,))
        token = _ACTIVE_POOL.set((workers, pool))
        try:
            yield pool
        except BaseException:
            keep_alive.close()
            with suppress(Exception):  # the exception in flight wins
                pool.shutdown(wait=True, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
        finally:
            _ACTIVE_POOL.reset(token)


@contextmanager
def worker_pool(workers: int | None = None):
    """Keep one worker pool open across consecutive calls.

    Every :func:`run_mc` call and experiment inside the scope whose worker
    count resolves to the same number reuses this pool instead of starting
    its own, so its workers start once. ``workers`` resolves as in
    :func:`run_mc`. Reports are the same inside or outside the scope.
    """
    with _pool(resolve_workers(workers)) as pool:
        yield pool


def _chunk_ranges(total: int, workers: int,
                  batch: int) -> list[tuple[int, int]]:
    """About four chunks per worker, each a whole number of stacked blocks
    of ``batch`` replications, so that a block holds the same replications
    whatever the worker count."""
    size = -(-max(1, -(-total // (workers * 4))) // batch) * batch
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


# Every per-cell statistic; a cell with no successful replication reports
# each as None.
_STAT_KEYS = ("beta_mean", "beta_sd", "rmse", "rmse_scalar", "size_05",
              "coverage_95", "vbar_mean_diag", "true_variance_diag",
              "vbar_true_ratio")


def _aggregate_cell(n: int, t: int, cfg: McConfig, beta, vbar, pval, tvar,
                    kinds, tv_fixed) -> dict:
    reps = cfg.reps
    failures = [kind for kind in kinds if kind is not None]
    cell: dict = {
        "n": n, "t": t, "reps": reps, "n_fail": len(failures),
        "failed": bool(len(failures) > 0.01 * reps),
        "failure_kinds": {name: failures.count(name)
                          for name in sorted(set(failures))},
        **dict.fromkeys(_STAT_KEYS),
    }
    ok = np.array([kind is None for kind in kinds])
    if not ok.any():
        return cell
    b = beta[ok]
    err = b - np.asarray(cfg.dgp.beta_true)[np.newaxis, :]
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
    tv = (tv_fixed if cfg.fixed_design
          else tvar[ok].mean(axis=0) if cfg.true_variance else None)
    if tv is not None:
        tv_diag = np.diagonal(tv)
        cell["true_variance_diag"] = [float(v) for v in tv_diag]
        cell["vbar_true_ratio"] = [float(a / b) for a, b in zip(vd, tv_diag)]
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


def _run_cell(pool, config: McConfig, workers: int, n: int, t: int) -> dict:
    design, tv_fixed = (_fixed_design(config, n, t)
                        if config.fixed_design else (None, None))
    try:
        futures = [
            pool.submit(_worker_block, config, n, t, lo, hi, design)
            for lo, hi in _chunk_ranges(
                config.reps, workers,
                _batch_size(n, t, len(config.dgp.beta_true)))
        ]
        blocks = [fut.result() for fut in futures]
    except BrokenProcessPool as exc:
        raise WorkerPoolError(
            f"the worker pool broke while running cell (n={n}, t={t}). "
            f"Workers re-import the main module: call run_mc from an "
            f"importable script under 'if __name__ == \"__main__\":', not "
            f"from stdin or an interactive session. Otherwise a worker was "
            f"killed, for example by running out of memory.") from exc
    beta, vbar, pval, tvar = (np.concatenate(part) for part in
                              zip(*(blk[:4] for blk in blocks)))
    kinds = [kind for blk in blocks for kind in blk[4]]
    return _aggregate_cell(n, t, config, beta, vbar, pval, tvar, kinds,
                           tv_fixed)


def run_mc(config: McConfig, workers: int | None = None) -> McReport:
    """Run the experiment. ``workers`` defaults to the PANELCSD_THREADS
    environment variable, then the CPU count. Output is identical for any
    worker count. Raises WorkerPoolError when the worker pool breaks. An
    interrupt (KeyboardInterrupt, or any other BaseException that is not an
    Exception) leaves with the note ``in cell (n=N, t=T)`` appended to its
    ``__notes__``."""
    workers = resolve_workers(workers)
    cells: list[dict] = []
    with _pool(workers) as pool:
        for n, t in config.grid:
            try:
                cells.append(_run_cell(pool, config, workers, n, t))
            except BaseException as exc:
                if not isinstance(exc, Exception):
                    exc.__notes__ = [*getattr(exc, "__notes__", ()),
                                     f"in cell (n={n}, t={t})"]
                raise
    return McReport(config=config.to_dict(), cells=cells,
                    rate=_fit_rate(cells, config.rate_axis))


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
        root = build_omega(fam, n).sqrt()
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
    with worker_pool(workers):
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
            out["regimes"][name] = {"size_by_t": sizes,
                                    "min_t_in_band": min_t[name]}
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
    with worker_pool(workers):
        for key, x_law in (("aligned", "factor_aligned"),
                           ("generic", "iid_normal")):
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
