"""Monte Carlo engine with deterministic, worker-count-independent output.

Replication r of cell (n, t) derives its seed from a splittable hash of
(master_seed, n, t, r), so every replication is independent of scheduling.
All replications execute in worker processes whose numerical libraries
are pinned to one thread. The first ``run_mc`` call that needs workers
starts a worker server that imports numpy and this package once and forks
each worker from itself; the workers stay up until this process exits, so
later calls start no process, and :func:`worker_pool` starts them ahead.
They are replaced by fresh forks when ``sys.path`` has changed or a module
was reloaded since they started, and threads take turns with them. An
exception leaving ``run_mc`` or ``worker_pool`` (an interrupt included)
ends them at once, and the next call starts fresh ones. A worker exits when
its input reaches end of file, and the server when its socket does, so a
killed parent leaves none behind. A worker does not run the caller's main
module when it starts, only when a task needs a name from it, so a script
without an ``if __name__ == "__main__":`` guard, or one read from stdin,
can call ``run_mc``. Workers ignore SIGINT, which a terminal sends to the
whole process group, and leave interrupts to this process. If a worker
dies, ``run_mc`` raises :class:`~panelcsd.errors.WorkerPoolError` naming
the cell; an interrupt leaving ``run_mc`` carries the cell it stopped in as
a note. The worker count is an integer >= 1 from the ``workers`` argument,
else the ``PANELCSD_THREADS`` environment variable, else the CPU count;
anything else is a ``UsageError``. A worker runs its replications in
stacked blocks: each replication is drawn on its own, then the fit,
covariance, exact variance and Wald statistic run once per block on stacked
arrays, with the same bits as one replication at a time. A replication the
block cannot settle (a failure, or an ill-conditioned design) reruns alone
through the public functions. Each worker block returns one record per
replication: its slope, covariance estimate, p-value and exact variance, or
the type name of the error that stopped it. ``run_mc`` cuts each cell into
one chunk per worker and queues the next cell before it collects the
current one, so a worker that finishes early starts on the next cell
instead of waiting. The parent joins each cell's blocks in replication
order and aggregates the cells in grid order: repeated runs of the same
config are byte-identical regardless of the worker count, and the report
never records how many workers produced it.

Failed replications (singular designs, invalid covariances) are tallied by
error type, never silently dropped; a cell is flagged as failed when more
than 1% of its replications error. A malformed config is rejected when it
is built or loaded, before any worker starts. The covariance request,
:class:`~panelcsd.covariance.CovConfig`, is re-exported here.
"""

from __future__ import annotations

import atexit
import collections
import json
import os
import pickle
import signal
import socket
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import types
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .config import (check_int, check_real, check_reals, field_dict,
                     from_fields, resolve_workers)
from .covariance import (CovConfig, _exact_variance, _robust_cov,
                         _robust_stack)
from .dependence import _loglog_slope
from .dgp import (DgpSpec, Equicorr, _apply_root, _cross_section,
                  _draw_block, _symmetric_root)
from .errors import ConditionWarning, PanelError, UsageError, WorkerPoolError
from .estimators import EstimatorKind, _fit_stack, fit
from .inference import LinearRestriction, _wald_stack, chi2_sf, wald
from .panel import PanelData

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
    directory, so a failed write never leaves partial output behind. A new
    file gets the mode the umask leaves of 0o666, as ``open`` would give
    it; a replaced file keeps its mode."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # reading the umask sets it; the stricter 0o077 in between can only
        # narrow the mode of a file another thread creates meanwhile
        umask = os.umask(0o077)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
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
        for n, t in self.grid:
            if n < 2 or t < 2:
                raise UsageError(f"grid cell [{n}, {t}] needs n, t >= 2")
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
        if self.rate_axis is not None and len(
                {_rate_x(self.rate_axis, n, t) for n, t in self.grid}) < 2:
            raise UsageError(f"rate_axis {self.rate_axis!r} needs a grid "
                             f"with at least two distinct "
                             f"{'t' if self.rate_axis == 'T' else 'n*t'} "
                             f"values, got {[list(c) for c in self.grid]}")
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


def _true_variance_for(xk: np.ndarray, gram_inv: np.ndarray, dgp: DgpSpec,
                       n: int) -> np.ndarray:
    """Exact conditional slope variance of the design ``dgp`` at n units,
    read off the k-major design and Gram inverse its fit has already
    checked (one fit, or a stack of them), with the covariance in the
    structured form the draws share."""
    cs = _cross_section(dgp.cross_section, n)
    return _exact_variance(xk, gram_inv, dgp.time_memory, cs.loadings,
                           cs.idio)


def _fixed_design(cfg: McConfig, n: int, t: int):
    """The design every replication of a fixed-design cell shares (tag 0),
    and its exact variance, None when that fails; the replications then
    tally their own failures."""
    seed = _derive_seed(cfg.master_seed, n, t, _DESIGN_TAG, 0)
    y, x, mu = _draw_block(cfg.dgp, n, t, [seed])
    panel = PanelData(y=y[0], x=x[0])
    tv = None
    if cfg.true_variance:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionWarning)
                res = fit(panel, cfg.estimator)
                tv = _true_variance_for(res.demeaned_x.transpose(2, 0, 1),
                                        res.gram_inv, cfg.dgp, n)
        except _REP_ERRORS:
            pass
    return (panel.x, mu[0]), tv


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
    y, x, _ = _draw_block(cfg.dgp, n, t, [seed], design)
    res = fit(PanelData(y=y[0], x=x[0]), cfg.estimator)
    v = _robust_cov(res, **cfg.cov.to_dict()).matrix
    p_value = wald(res.beta_hat, v, restr).p_value
    tv = (_true_variance_for(res.demeaned_x.transpose(2, 0, 1),
                             res.gram_inv, cfg.dgp, n) if want_tv else np.nan)
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
        tv = _true_variance_for(xk, gram_inv, cfg.dgp, n)
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

# A frame between this process and a worker: its length, then its bytes,
# a pickled task or reply; an empty frame tells the worker to exit. A worker
# server answers a request for a worker with the worker's pid.
_HEADER = struct.Struct("<Q")
_PID = struct.Struct("<q")


def _write_frame(stream, payload: bytes) -> None:
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def _read_frame(stream) -> bytes | None:
    """The next frame's bytes, None at end of file or in a cut frame."""
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        return None
    (size,) = _HEADER.unpack(head)
    body = stream.read(size)
    return body if len(body) == size else None


def _python(*args: str, **popen) -> subprocess.Popen:
    """Start ``python -m panelcsd._worker args`` with the worker
    environment, importing this package from where this process has it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    # SIGINT stays blocked in the new process (the mask survives exec) until
    # it ignores it: a terminal's Ctrl-C cannot stop it while it starts
    masks = hasattr(signal, "pthread_sigmask")  # not on Windows
    if masks:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "panelcsd._worker", *args],
            env=os.environ | _WORKER_ENV | {"PYTHONPATH": path}, **popen)
    finally:
        if masks:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class _Server:
    """A worker server (:mod:`panelcsd._worker`): it imports numpy and this
    package once and forks each worker from itself, so that the workers
    share the pages those imports touched. Ending it kills its workers."""

    def __init__(self):
        self.channel, theirs = socket.socketpair()
        with theirs:
            self.proc = _python(str(theirs.fileno()),
                                pass_fds=(theirs.fileno(),),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)

    def fork(self):
        """A new worker's pid, input and output."""
        task_r, task_w = os.pipe()
        reply_r, reply_w = os.pipe()
        stdin, stdout = open(task_w, "wb"), open(reply_r, "rb")
        try:
            socket.send_fds(self.channel, [b"w"], [task_r, reply_w])
            reply = self.channel.recv(_PID.size, socket.MSG_WAITALL)
        except OSError:  # the server has gone
            reply = b""
        finally:
            os.close(task_r)
            os.close(reply_w)
        if len(reply) < _PID.size:
            stdin.close()
            stdout.close()
            raise WorkerPoolError(f"worker server {self.proc.pid} exited")
        return _PID.unpack(reply)[0], stdin, stdout

    def end(self) -> None:
        """Make the server kill and reap its workers, and wait for it."""
        with suppress(OSError):  # it may have gone
            self.channel.shutdown(socket.SHUT_RDWR)
        self.channel.close()
        with suppress(subprocess.TimeoutExpired):
            self.proc.wait(timeout=5)
        self.proc.kill()  # a no-op once it has ended
        self.proc.wait()


class _Task:
    """A task sent to a worker; ``result`` reads the worker's replies up to
    this one's and returns or raises what the task did."""

    def __init__(self, worker: "_Worker"):
        self.worker, self.reply = worker, None

    def result(self):
        while self.reply is None:
            self.worker.receive()
        ok, value, trace = self.reply
        if not ok:
            raise value from RuntimeError(f"in the worker:\n{trace}")
        return value


class _Worker:
    """A worker process (:mod:`panelcsd._worker`) and its tasks whose replies
    are still to be read, oldest first, the order it answers them in. It is
    forked by this process's worker server, or, where a process cannot fork,
    started as an interpreter of its own (``proc``)."""

    def __init__(self):
        global _SERVER
        self.proc = None
        if not _FORKS:
            self.proc = _python(stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self.pid, self.stdin, self.stdout = (self.proc.pid,
                                                 self.proc.stdin,
                                                 self.proc.stdout)
        else:
            _SERVER = _SERVER or _Server()
            self.pid, self.stdin, self.stdout = _SERVER.fork()
        self.waiting: collections.deque[_Task] = collections.deque()
        self.path = list(sys.path)
        _WORKERS.append(self)  # before its first frame: an error ends it
        self.send((self.path,
                   getattr(sys.modules["__main__"], "__file__", None)))

    def send(self, obj) -> None:
        try:
            _write_frame(self.stdin,
                         pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:
            raise WorkerPoolError(f"worker {self.pid} exited") from None

    def submit(self, fn, *args) -> _Task:
        self.send((fn, args))
        self.waiting.append(_Task(self))
        return self.waiting[-1]

    def receive(self) -> None:
        """Read the next reply, the oldest waiting task's."""
        frame = _read_frame(self.stdout)
        if frame is None:
            raise WorkerPoolError(f"worker {self.pid} exited")
        self.waiting.popleft().reply = pickle.loads(frame)


class _Pool(list):
    """Workers; each task goes to the one that owes the fewest replies."""

    def submit(self, fn, *args) -> _Task:
        return min(self, key=lambda w: len(w.waiting)).submit(fn, *args)


# This process's workers and their server, kept until it exits; the lock
# that gives one thread at a time their use; the spec of each module as
# last seen. _IN_WORKER is True in a worker, which has none.
_FORKS = hasattr(os, "fork") and hasattr(socket, "send_fds")
_WORKERS: list[_Worker] = []
_SERVER: _Server | None = None
_LOCK = threading.RLock()
_SPECS: dict[str, object] = {}
_IN_WORKER = False


def _end_workers() -> None:
    """Kill, forget and wait for every worker, whatever its pipes hold, and
    for their server."""
    global _SERVER
    workers, _WORKERS[:] = _WORKERS[:], []
    server, _SERVER = _SERVER, None
    for worker in workers:
        with suppress(OSError):  # an ended worker has closed its input
            worker.stdin.close()  # a worker exits at end of file
        if worker.proc:
            worker.proc.kill()
            worker.proc.wait()
    if server:
        server.end()
    for worker in workers:
        worker.stdout.close()


def _code_changed() -> bool:
    """Whether a module was reloaded (``importlib.reload`` gives it a new
    spec) since the last call; the workers would still run its old code."""
    changed = False
    for name, module in list(sys.modules.items()):
        if type(module) is types.ModuleType:
            spec = module.__dict__.get("__spec__")
            if _SPECS.setdefault(name, spec) is not spec:
                _SPECS[name], changed = spec, True
    return changed


def _forget_workers() -> None:
    """In a child forked from this process: the workers are the parent's, so
    drop them untouched; the child starts its own when it needs them."""
    global _WORKERS, _SERVER, _LOCK
    _WORKERS, _SERVER, _LOCK = [], None, threading.RLock()


atexit.register(_end_workers)
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_forget_workers)


@contextmanager
def _pool(workers: int):
    """The first ``workers`` of this process's workers, the missing ones
    started now; the count only grows. The workers are replaced by fresh
    ones when ``sys.path`` has changed or a module was reloaded since they
    started. An exception leaving the scope (an interrupt included) kills
    every worker, since a frame may be cut short, and drops their work; the
    next scope starts fresh ones."""
    with _LOCK:
        try:
            if (_code_changed() or _WORKERS and _WORKERS[0].path != sys.path):
                _end_workers()
            if len(_WORKERS) < workers and _IN_WORKER:
                raise RuntimeError("run_mc was called in a worker: call it "
                                   "under 'if __name__ == \"__main__\":'")
            while len(_WORKERS) < workers:
                _Worker()
            yield _Pool(_WORKERS[:workers])
        except BaseException:
            _end_workers()
            raise


@contextmanager
def worker_pool(workers: int | None = None):
    """Start this process's workers now, until ``workers`` (resolved as in
    :func:`run_mc`) are up, for the calls in the scope and every later one.
    An exception leaving the scope ends them all, and the next call starts
    fresh ones. Reports are the same inside or outside the scope. The
    scope holds the workers for its thread: ``run_mc`` in another thread
    waits until it ends."""
    with _pool(resolve_workers(workers)) as pool:
        yield pool


def _chunk_ranges(total: int, workers: int,
                  batch: int) -> list[tuple[int, int]]:
    """One chunk per worker (one per block when a cell has fewer stacked
    blocks of ``batch`` replications than workers), each a whole number of
    blocks, their sizes differing by at most one block. A block then holds
    the same replications whatever the worker count."""
    blocks = -(-total // batch)
    parts = min(workers, blocks)
    bounds = [min(total, blocks * j // parts * batch)
              for j in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


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


def _rate_x(axis: str, n: int, t: int) -> int:
    return t if axis == "T" else n * t


def _fit_rate(cells: list[dict], axis: str | None) -> dict | None:
    """The log-log slope of rmse on ``axis`` over the cells with an rmse;
    None without an axis, or when those cells span fewer than two values
    on it."""
    if axis is None:
        return None
    pts = [(_rate_x(axis, c["n"], c["t"]), c["rmse_scalar"])
           for c in cells if c["rmse_scalar"]]
    if len({x for x, _ in pts}) < 2:
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
        """The report a JSON text holds; UsageError when it lacks a part
        that ``mc report`` prints or holds one of the wrong type."""
        d = json.loads(text)
        d = d if isinstance(d, dict) else {}
        cells, rate = d.get("cells"), d.get("rate")
        try:
            if not (isinstance(d.get("config"), dict)
                    and isinstance(cells, list)
                    and all(isinstance(c, dict) for c in cells)
                    and (rate is None or isinstance(rate, dict))):
                raise UsageError("it needs a 'config' object, a 'cells' list "
                                 "of objects and a null or object 'rate'")
            for c in cells:
                for key in ("n", "t", "reps", "n_fail"):
                    check_int(c.get(key), f"cell {key}")
                for key in ("rmse_scalar", "size_05", "coverage_95"):
                    if c.get(key) is not None:
                        check_real(c[key], f"cell {key}")
                if c.get("vbar_true_ratio") is not None:
                    check_reals(c["vbar_true_ratio"], "cell vbar_true_ratio")
            if rate is not None:
                check_real(rate.get("slope"), "rate slope")
                if not (isinstance(rate.get("axis"), str) and len(
                        check_reals(rate.get("ci95"), "rate ci95")) == 2):
                    raise UsageError("rate needs an axis name and a ci95 pair")
        except UsageError as exc:
            raise UsageError(f"not a Monte Carlo report: {exc}") from None
        return cls(config=d["config"], cells=cells, rate=rate,
                   schema_version=d.get("schema_version", 1))

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "McReport":
        with open(path) as fh:
            try:
                return cls.from_json(fh.read())
            except (ValueError, UsageError) as exc:  # ValueError: not JSON
                raise UsageError(f"{path}: {exc}") from None


@contextmanager
def _in_cell(n: int, t: int):
    """Name cell (n, t) in what leaves the scope: a worker that ended
    becomes a WorkerPoolError, and an interrupt (a BaseException that is
    not an Exception) gets the note ``in cell (n=N, t=T)``."""
    try:
        yield
    except WorkerPoolError as exc:
        raise WorkerPoolError(
            f"the worker pool broke while running cell (n={n}, t={t}): a "
            f"worker was killed, for example by running out of memory, or "
            f"could not start. A worker whose task needs a name from the "
            f"main module runs that module first: then call run_mc under "
            f"'if __name__ == \"__main__\":'.") from exc
    except BaseException as exc:
        if not isinstance(exc, Exception):
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             f"in cell (n={n}, t={t})"]
        raise


def _submit_cell(pool, config: McConfig, workers: int, n: int, t: int):
    """Queue cell (n, t) on the pool, one chunk per worker; returns its
    futures and, for a fixed-design cell, the design's exact variance."""
    design, tv_fixed = (_fixed_design(config, n, t)
                        if config.fixed_design else (None, None))
    batch = _batch_size(n, t, len(config.dgp.beta_true))
    return [pool.submit(_worker_block, config, n, t, lo, hi, design)
            for lo, hi in _chunk_ranges(config.reps, workers, batch)], tv_fixed


def _collect_cell(config: McConfig, n: int, t: int, futures,
                  tv_fixed) -> dict:
    blocks = [fut.result() for fut in futures]
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
    ``__notes__``, naming the cell being queued or collected when it landed.

    The grid runs with one cell of look-ahead: the next cell is queued
    before the current one is collected, so a worker that finishes its
    chunk early takes one of the next cell's instead of waiting. Cells are
    aggregated in grid order. Calls from several threads share this
    process's workers and run one at a time."""
    workers = resolve_workers(workers)
    grid = config.grid
    cells: list[dict] = []
    queued: list = []
    with _pool(workers) as pool:
        for i in range(len(grid) + 1):
            if i < len(grid):
                with _in_cell(*grid[i]):
                    queued.append(_submit_cell(pool, config, workers,
                                               *grid[i]))
            if i > 0:
                with _in_cell(*grid[i - 1]):
                    cells.append(_collect_cell(config, *grid[i - 1],
                                               *queued.pop(0)))
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
        x = x_mean + rng.standard_normal((n, reps))
        if centered:
            x = x - x.mean(axis=0, keepdims=True)
        eps = _apply_root(_symmetric_root(fam._low_rank(n)),
                          rng.standard_normal((n, reps)))
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
