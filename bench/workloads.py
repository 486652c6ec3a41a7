"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, warms up every
operation it times, runs one timed pass through the package's public API,
checks the outputs of that pass, and can run the same pass traced. Traced
passes open spans (see ``spans.py``) around the calls into each package
module; Monte Carlo workloads then replay every replication in-process so
the per-layer figures cover the work that ``run_mc`` did in its workers.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
import warnings

import numpy as np

import panelcsd
from panelcsd import cli, montecarlo
from panelcsd.dependence import CovMatrix
from panelcsd.errors import ConditionWarning, PanelError

from spans import Tracer, mean, named, patched, total, total_self

REFERENCE_SEED = 1
REL_TOL = 1e-12

# Replication tag of the documented seed rule:
# SeedSequence([master_seed, n, t, 1, r]) -> one uint64.
_REP_TAG = 1


class Checks:
    """Counts operations and output checks, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def compare(got, want, path: str = "$") -> list[str]:
    """Differences between two JSON-like values; numbers to REL_TOL relative,
    everything else exactly."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else \
            [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        return [] if rel_close(float(got), float(want)) else \
            [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list shape differs"]
        out: list[str] = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"{path}: keys differ"]
    out = []
    for key in sorted(want):
        out += compare(got[key], want[key], f"{path}.{key}")
    return out


def all_finite(value) -> bool:
    """True when every number inside a JSON-like value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return True


def as_json(value):
    """Normalize to what a JSON round trip gives (string keys, lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


class Workload:
    """Interface every workload implements."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str, workers: int):
        self.seed = int(seed)
        self.workdir = workdir
        self.workers = int(workers)
        os.makedirs(workdir, exist_ok=True)

    def make_inputs(self) -> None:
        """Generate every input from the seed (timed as set-up)."""

    def warm_up(self) -> None:
        """Call every operation once, untimed by the passes."""

    def run_pass(self):
        """One timed pass; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, out, checks: Checks) -> None:
        raise NotImplementedError

    def reference_payload(self, out) -> dict:
        raise NotImplementedError

    def traced_pass(self, tracer: Tracer):
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, out, checks: Checks) -> dict:
        raise NotImplementedError

    def pass_metrics(self, outs: list, pass_s: list[float]) -> dict:
        """Workload-specific end-to-end figures, as {name: (value, unit)}."""
        return {}


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def rep_seed(master_seed: int, n: int, t: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(master_seed), int(n), int(t), _REP_TAG,
                                 int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cov(result, cov_cfg):
    # The workloads use the cross-section or the kernel covariance.
    if cov_cfg.method == "cs":
        return panelcsd.cov_cross_section(result)
    return panelcsd.cov_kernel(result, kernel=cov_cfg.kernel,
                               trunc=cov_cfg.trunc, declared=cov_cfg.declared)


def replay_rep(tracer: Tracer, cfg, n: int, t: int, rep: int):
    """Replication ``rep`` of cell (n, t) through the public functions, in the
    order run_mc's workers use. Returns (beta_hat or None, failure kind)."""
    k = len(cfg.dgp.beta_true)
    restr = panelcsd.LinearRestriction(np.eye(k), np.asarray(cfg.dgp.beta_true))
    seed = rep_seed(cfg.master_seed, n, t, rep)
    with tracer.span("montecarlo.replay_rep", n=n, t=t, rep=rep), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        try:
            with tracer.span("dgp.gen_panel"):
                panel, truth = panelcsd.gen_panel(cfg.dgp, n, t, seed)
            with tracer.span("estimators.fit"):
                res = panelcsd.fit(panel, cfg.estimator)
            with tracer.span("covariance.cov_cross_section"
                             if cfg.cov.method == "cs"
                             else "covariance.cov_kernel"):
                rc = _cov(res, cfg.cov)
            with tracer.span("inference.wald"):
                panelcsd.wald(res.beta_hat, rc, restr)
        except PanelError as exc:
            return None, type(exc).__name__
        if cfg.true_variance:
            tm = truth["time_memory"]
            # Every workload's memory is serially independent or sits in the
            # idiosyncratic channel; run_mc's worker uses the same two calls.
            if tm.channel == "none":
                with tracer.span("covariance.true_variance_cs"):
                    panelcsd.true_variance_cs(panel, cfg.estimator,
                                              CovMatrix(truth["omega"]))
            else:
                with tracer.span("covariance.true_variance_mixed"):
                    panelcsd.true_variance_mixed(
                        panel, cfg.estimator, tm, loadings=truth["loadings"],
                        sigma=CovMatrix(truth["sigma"]))
    return res.beta_hat, None


def replay_cell(tracer: Tracer, cfg, n: int, t: int) -> dict:
    """Replay every replication of one cell; beta mean and RMSE are
    aggregated exactly as run_mc aggregates them."""
    k = len(cfg.dgp.beta_true)
    beta = np.full((cfg.reps, k), np.nan)
    failed = np.zeros(cfg.reps, dtype=bool)
    for rep in range(cfg.reps):
        b, kind = replay_rep(tracer, cfg, n, t, rep)
        if kind is None:
            beta[rep] = b
        else:
            failed[rep] = True
    ok = ~failed
    out = {"n_fail": int(failed.sum()), "beta_mean": None, "rmse": None}
    if ok.any():
        b = beta[ok]
        err = b - np.asarray(cfg.dgp.beta_true)[np.newaxis, :]
        out["beta_mean"] = [float(v) for v in b.mean(axis=0)]
        out["rmse"] = [float(v) for v in np.sqrt((err * err).mean(axis=0))]
    return out


class _RunMcCalls:
    """Replaces ``montecarlo.run_mc`` (the name regime_size_ordering calls)
    with a pass-through that keeps every (config, report) pair, optionally
    inside a span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.calls: list[tuple] = []
        self._run_mc = montecarlo.run_mc

    def __call__(self, config, workers=None):
        if self.tracer is None:
            report = self._run_mc(config, workers=workers)
        else:
            with self.tracer.span("montecarlo.run_mc", workers=workers):
                report = self._run_mc(config, workers=workers)
        self.calls.append((config, report))
        return report

    def active(self):
        return patched(montecarlo, {"run_mc": self})


class McWorkload(Workload):
    """Base for workloads that run Monte Carlo experiments."""

    def operation(self):
        """The timed call; runs run_mc through ``montecarlo.run_mc``."""
        raise NotImplementedError

    def warm_up_operation(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        calls = _RunMcCalls()
        with calls.active():
            self.warm_up_operation()
        for cfg, _ in calls.calls:
            n, t = cfg.grid[-1]
            replay_rep(Tracer(), cfg, n, t, 0)
            panelcsd.build_omega(cfg.dgp.cross_section, n)

    def _run(self, tracer: Tracer | None):
        calls = _RunMcCalls(tracer)
        with calls.active():
            result = self.operation()
        return {"result": result, "calls": calls.calls}

    def run_pass(self):
        return self._run(None)

    def traced_pass(self, tracer: Tracer):
        return self._run(tracer)

    def check(self, out, checks: Checks) -> None:
        for cfg, report in out["calls"]:
            cells = report.cells
            reps = sum(c["reps"] for c in cells)
            checks.ops(reps, sum(c["n_fail"] for c in cells),
                       f"{self.name} replications")
            checks.check(all_finite(report.to_dict()),
                         f"{self.name}: report has a non-finite value")
            checks.check(all(c["beta_mean"] is not None for c in cells),
                         f"{self.name}: a cell has no successful replication")

    def reference_payload(self, out) -> dict:
        return as_json({"result": self.result_payload(out["result"]),
                        "reports": [r.to_dict() for _, r in out["calls"]]})

    def result_payload(self, result):
        return None

    def layer_metrics(self, tracer: Tracer, out, checks: Checks) -> dict:
        for cfg, report in out["calls"]:
            for cell, (n, t) in zip(report.cells, cfg.grid):
                got = replay_cell(tracer, cfg, n, t)
                diffs = compare(got, {key: cell[key] for key in got})
                checks.check(not diffs, f"{self.name} replay of cell ({n}, {t}) "
                             f"differs from run_mc: {diffs[:3]}")
        for cfg, _ in out["calls"]:
            # build_omega on the same family and n as the replay; it is not
            # part of the replay, so it stays outside the replay_rep spans.
            for _ in range(5):
                with tracer.span("dgp.build_omega"):
                    panelcsd.build_omega(cfg.dgp.cross_section, cfg.grid[-1][0])
        spans = tracer.spans
        run_mc_s = total(spans, "montecarlo.run_mc")
        busy_s = total(spans, "montecarlo.replay_rep")
        reps_attempted = len(named(spans, "montecarlo.replay_rep"))
        reps_failed = sum(c["n_fail"] for _, r in out["calls"] for c in r.cells)
        return {
            "montecarlo.run_mc_s": run_mc_s,
            "montecarlo.replay_busy_s": busy_s,
            "montecarlo.overhead_s": overhead_s(run_mc_s, busy_s, self.workers),
            "montecarlo.run_mc_calls": len(out["calls"]),
            "montecarlo.reps_attempted": reps_attempted,
            "montecarlo.reps_failed": reps_failed,
        }

    def pass_metrics(self, outs: list, pass_s: list[float]) -> dict:
        reps = sum(c["reps"] for _, r in outs[0]["calls"] for c in r.cells)
        return {"reps_per_s": (reps / statistics.median(pass_s), "1/s")}


def overhead_s(run_mc_s: float, replay_busy_s: float, workers: int) -> float:
    """Derived: run_mc wall time not explained by replication work spread
    over the workers (pool spawn, dispatch, pickling, aggregation)."""
    return run_mc_s - replay_busy_s / workers


class _McCell(McWorkload):
    """One run_mc cell with the true variance on."""

    def config(self, grid):
        raise NotImplementedError

    def make_inputs(self) -> None:
        self.cfg = self.config(self.GRID)

    def operation(self):
        return montecarlo.run_mc(self.cfg, workers=self.workers)

    def warm_up_operation(self) -> None:
        montecarlo.run_mc(self.config(self.WARM_UP_GRID), workers=self.workers)


class McCrossSection(_McCell):
    name = "mc_cross_section"
    why = ("strong equicorrelation at n=200: gen_panel eigensolves, exact "
           "variance and fit dominate each replication")
    GRID = ((200, 200),)
    WARM_UP_GRID = ((10, 10),)
    REPS = 400

    def config(self, grid):
        return panelcsd.McConfig(
            dgp=panelcsd.DgpSpec(cross_section=panelcsd.Equicorr(a=1.0, b=0.5),
                                 beta_true=(1.0, -0.5)),
            grid=grid, reps=self.REPS,
            cov=panelcsd.CovConfig(method="cs"),
            master_seed=self.seed, true_variance=True)


class McSerialMemory(_McCell):
    name = "mc_serial_memory"
    why = ("summable idiosyncratic memory: true_variance_mixed lag sandwiches, "
           "kernel covariance and the AR filter")
    GRID = ((50, 100),)
    WARM_UP_GRID = ((10, 10),)
    REPS = 200
    RATIO_BAND = (0.5, 2.0)

    def config(self, grid):
        return panelcsd.McConfig(
            dgp=panelcsd.DgpSpec(
                cross_section=panelcsd.Factor(n_factors=1),
                beta_true=(1.0, -0.5),
                time_memory=panelcsd.TimeDependenceSpec.idio_summable(0.9)),
            grid=grid, reps=self.REPS,
            cov=panelcsd.CovConfig(method="kernel", trunc="auto",
                                   declared="summable"),
            master_seed=self.seed, true_variance=True)

    def check(self, out, checks: Checks) -> None:
        super().check(out, checks)
        lo, hi = self.RATIO_BAND
        for _, report in out["calls"]:
            for c in report.cells:
                ratio = c["vbar_true_ratio"] or []
                checks.check(bool(ratio) and all(lo <= r <= hi for r in ratio),
                             f"{self.name}: vbar_true_ratio {ratio} outside "
                             f"[{lo}, {hi}]")


class McSizeSweep(McWorkload):
    name = "mc_size_sweep"
    why = ("12 small cells over 3 run_mc calls: pool spawn and dispatch are "
           "most of the wall time")
    N = 50
    T_GRID = (25, 50, 100, 200)
    REPS = 200

    def operation(self):
        return panelcsd.regime_size_ordering(
            n=self.N, t_grid=self.T_GRID, reps=self.REPS, seed=self.seed,
            workers=self.workers)

    def warm_up_operation(self) -> None:
        # One small run_mc call; a small regime_size_ordering would spawn three
        # pools and triple the set-up time without warming anything new.
        montecarlo.run_mc(panelcsd.McConfig(
            dgp=panelcsd.DgpSpec(cross_section=panelcsd.Equicorr(a=1.0, b=0.5),
                                 beta_true=(1.0,)),
            grid=((10, 10),), reps=self.REPS,
            cov=panelcsd.CovConfig(method="cs"), master_seed=self.seed,
            true_variance=False), workers=self.workers)

    def check(self, out, checks: Checks) -> None:
        super().check(out, checks)
        result = out["result"]
        checks.check(isinstance(result.get("ordered_ok"), bool),
                     f"{self.name}: ordered_ok missing")
        for regime in result["regimes"].values():
            sizes = list(regime["size_by_t"].values())
            checks.check(all(s is not None and 0.0 <= s <= 1.0 for s in sizes),
                         f"{self.name}: size outside [0, 1]: {sizes}")

    def result_payload(self, result):
        return result


# ---------------------------------------------------------------------------
# Command-line session


def write_panel_csv(path: str, seed: int, n: int, t: int, k: int,
                    beta: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Write a sorted long-format panel (string unit ids, numeric years) with
    factor-correlated errors; returns the (y, x) arrays it holds. Values are
    written with ``repr`` so they read back bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n, t, k]))
    x = rng.standard_normal((n, t, k))
    mu = rng.uniform(-1.0, 1.0, size=n)
    loadings = rng.uniform(0.5, 1.5, size=n)
    factor = rng.standard_normal(t)
    eps = loadings[:, np.newaxis] * factor[np.newaxis, :] \
        + rng.standard_normal((n, t))
    y = mu[:, np.newaxis] + x @ np.asarray(beta) + eps
    years = [str(1821 + s) for s in range(t)]
    with open(path, "w", newline="") as fh:
        fh.write("firm,year,y," + ",".join(f"x{j + 1}" for j in range(k))
                 + "\n")
        for i in range(n):
            firm = f"firm{i + 1:04d}"
            yi, xi = y[i].tolist(), x[i].tolist()
            fh.write("".join(
                f"{firm},{years[s]},{yi[s]!r},"
                + ",".join(repr(v) for v in xi[s]) + "\n"
                for s in range(t)))
    return y, x


class CliDesk(Workload):
    name = "cli_desk"
    why = ("an applied user's estimate, test and diagnose on a 200k-row CSV: "
           "load_csv dominates; the only path through classify")
    N, T, K = 1000, 200, 3
    BETA = (1.0, 0.5, 0.5)
    RESTR = "b1=1, b2=b3"
    N_GRID = "200,400,800,1600"
    WARM_UP = (12, 8, "10,20,40,80")

    def _argv(self, csv_path: str, n_grid: str, tag: str) -> list:
        data = ["--data", csv_path, "--id-col", "firm", "--time-col", "year"]
        out = os.path.join(self.workdir, tag + "{}.json")
        return [
            ("estimate", ["estimate", *data, "--cov", "cs",
                          "--out", out.format("estimate")]),
            ("test", ["test", *data, "--cov", "kernel", "--trunc", "auto",
                      "--restr", self.RESTR, "--out", out.format("test")]),
            ("diagnose", ["diagnose", "--family", "example11", "--n-grid",
                          n_grid, "--out", out.format("diagnose")]),
        ]

    def make_inputs(self) -> None:
        self.csv_path = os.path.join(self.workdir, "panel.csv")
        self.y, self.x = write_panel_csv(self.csv_path, self.seed, self.N,
                                         self.T, self.K, self.BETA)
        self.small_csv = os.path.join(self.workdir, "warm_up.csv")
        n, t, _ = self.WARM_UP
        write_panel_csv(self.small_csv, self.seed, n, t, self.K, self.BETA)
        self.commands = self._argv(self.csv_path, self.N_GRID, "")
        self._beta_in_process = None

    def warm_up(self) -> None:
        for _, argv in self._argv(self.small_csv, self.WARM_UP[2], "warm_up_"):
            cli.dispatch(argv)

    def _dispatch_all(self, dispatch) -> list[dict]:
        records = []
        for command, argv in self.commands:
            t0 = time.perf_counter()
            code = dispatch(argv)
            records.append({"command": command, "exit": code,
                            "seconds": time.perf_counter() - t0,
                            "out": argv[-1]})
        return records

    def run_pass(self):
        return self._dispatch_all(cli.dispatch)

    def beta_in_process(self) -> np.ndarray:
        if self._beta_in_process is None:
            panel = panelcsd.PanelData(y=self.y, x=self.x)
            self._beta_in_process = panelcsd.fit(panel).beta_hat
        return self._beta_in_process

    def payloads(self, out) -> dict:
        found = {}
        for rec in out:
            try:
                with open(rec["out"]) as fh:
                    found[rec["command"]] = json.load(fh)
            except (OSError, ValueError):
                found[rec["command"]] = None
        return found

    def check(self, out, checks: Checks) -> None:
        checks.ops(len(out), sum(rec["exit"] != 0 for rec in out),
                   "cli_desk commands (nonzero exit)")
        payloads = self.payloads(out)
        want = self.beta_in_process()
        for command in ("estimate", "test"):
            payload = payloads[command]
            if not checks.check(payload is not None,
                                f"{command}: output is not JSON"):
                continue
            got = [payload["beta"][f"x{j + 1}"] for j in range(self.K)]
            checks.check(all(rel_close(g, w) for g, w in zip(got, want)),
                         f"{command}: beta {got} != in-process fit "
                         f"{want.tolist()}")
            checks.check(all_finite(payload), f"{command}: non-finite output")
        if payloads["test"] is not None:
            checks.check(payloads["test"]["test"]["dof"] == 2,
                         "test: expected 2 restrictions")
        diag = payloads["diagnose"]
        if checks.check(diag is not None, "diagnose: output is not JSON"):
            checks.check(diag["regime"] == "strong",
                         f"diagnose: example11 classified {diag['regime']!r}")

    def reference_payload(self, out) -> dict:
        return self.payloads(out)

    def traced_pass(self, tracer: Tracer):
        names = {
            "load_csv": "panel.load_csv",
            "fit": "estimators.fit",
            "cov_cross_section": "covariance.cov_cross_section",
            "cov_kernel": "covariance.cov_kernel",
            "chi2_sf": "inference.chi2_sf",
            "parse_restrictions": "inference.parse_restrictions",
            "wald": "inference.wald",
            "family_from_string": "dgp.family_from_string",
            "classify": "dependence.classify",
            "build_omega": "dgp.build_omega",
        }
        wrappers = {attr: tracer.wrap(span, getattr(cli, attr))
                    for attr, span in names.items()}

        def dispatch(argv):
            with tracer.span("cli.dispatch", command=argv[0]):
                return cli.dispatch(argv)

        with patched(cli, wrappers):
            return self._dispatch_all(dispatch)

    def layer_metrics(self, tracer: Tracer, out, checks: Checks) -> dict:
        spans = tracer.spans
        load_s = mean(spans, "panel.load_csv")
        return {
            "panel.load_csv_s": load_s,
            "panel.load_csv_rows_per_s": (self.N * self.T / load_s
                                          if load_s else 0.0),
            "panel.csv_bytes": os.path.getsize(self.csv_path),
            "inference.parse_restrictions_us":
                1e6 * mean(spans, "inference.parse_restrictions"),
            "dependence.classify_s": mean(spans, "dependence.classify"),
            "cli.overhead_ms": 1e3 * total_self(spans, "cli.dispatch"),
        }

    def pass_metrics(self, outs: list, pass_s: list[float]) -> dict:
        return {f"{command}_s": (statistics.median(
            rec["seconds"] for out in outs for rec in out
            if rec["command"] == command), "s")
            for command, _ in self.commands}


WORKLOADS = {w.name: w for w in (McCrossSection, McSerialMemory, McSizeSweep,
                                 CliDesk)}


def common_layer_metrics(spans: list[dict]) -> dict:
    """Per-call means of the layer functions several workloads call; 0 for
    a function the workload never called."""
    return {
        "dgp.gen_panel_ms": 1e3 * mean(spans, "dgp.gen_panel"),
        "dgp.build_omega_ms": 1e3 * mean(spans, "dgp.build_omega"),
        "estimators.fit_ms": 1e3 * mean(spans, "estimators.fit"),
        "covariance.cov_cross_section_ms":
            1e3 * mean(spans, "covariance.cov_cross_section"),
        "covariance.cov_kernel_ms": 1e3 * mean(spans, "covariance.cov_kernel"),
        "covariance.true_variance_cs_ms":
            1e3 * mean(spans, "covariance.true_variance_cs"),
        "covariance.true_variance_mixed_ms":
            1e3 * mean(spans, "covariance.true_variance_mixed"),
        "inference.wald_us": 1e6 * mean(spans, "inference.wald"),
    }
