import concurrent.futures.process
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panelcsd
from panelcsd import (CovMatrix, EstimatorKind, TimeDependenceSpec, fit,
                      montecarlo, true_variance_mixed)
from panelcsd.dgp import (EXAMPLE_PRESETS, DecayCorrelation, DgpSpec,
                          Diagonal, Equicorr, Factor, gen_panel)
from conftest import child_env, group_left_after, live_group_members
from panelcsd.cli import dispatch
from panelcsd.config import THREADS_ENV_VAR, resolve_workers
from panelcsd.errors import (ConditionWarning, SingularGram, UsageError,
                             WorkerPoolError)
from panelcsd.montecarlo import (CovConfig, McConfig, McReport, _derive_seed,
                                 aligned_x_coverage, regime_size_ordering,
                                 run_mc, t1_cross_section_experiment)


def small_config(**overrides):
    kw = dict(
        dgp=DgpSpec(cross_section=Diagonal(scale=1.0), beta_true=(1.0,)),
        grid=((8, 12),),
        reps=200,
        cov=CovConfig(method="cs"),
        master_seed=5,
    )
    kw.update(overrides)
    return McConfig(**kw)


def test_derived_seeds_distinct():
    seen = {_derive_seed(0, n, t, tag, r)
            for n in (5, 10) for t in (5, 10)
            for tag in (0, 1) for r in range(50)}
    assert len(seen) == 2 * 2 * 2 * 50
    assert _derive_seed(3, 5, 7, 1, 9) == _derive_seed(3, 5, 7, 1, 9)


def test_reps_floor_enforced():
    with pytest.raises(UsageError):
        small_config(reps=199)


def test_worker_count_does_not_change_bytes():
    r1 = run_mc(small_config(), workers=1)
    r2 = run_mc(small_config(), workers=2)
    assert r1.to_json() == r2.to_json()


def test_report_round_trip(tmp_path):
    report = run_mc(small_config(), workers=1)
    path = tmp_path / "report.json"
    report.save(str(path))
    back = McReport.load(str(path))
    assert back.to_json() == report.to_json()
    d = report.to_dict()
    assert "seed_rule" in d
    cell = d["cells"][0]
    for key in ("n", "t", "reps", "n_fail", "beta_mean", "beta_sd", "rmse",
                "size_05", "coverage_95"):
        assert key in cell


def test_report_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_bytes(b"previous\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    report = McReport(config={}, cells=[], rate=None)
    with pytest.raises(OSError, match="replace failed"):
        report.save(str(path))
    assert path.read_bytes() == b"previous\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_unbiasedness_within_mc_error():
    report = run_mc(small_config(reps=800), workers=2)
    cell = report.cells[0]
    mc_se = cell["beta_sd"][0] / np.sqrt(cell["reps"])
    assert abs(cell["beta_mean"][0] - 1.0) < 3.0 * mc_se


def test_failure_tally_deterministic():
    # truncation lag beyond the sample length fails every replication
    cfg = small_config(cov=CovConfig(method="kernel", trunc=50))
    r1 = run_mc(cfg, workers=1)
    r2 = run_mc(cfg, workers=2)
    cell = r1.cells[0]
    assert cell["n_fail"] == cell["reps"]
    assert cell["failed"] is True
    assert "TruncTooLarge" in cell["failure_kinds"]
    assert r1.to_json() == r2.to_json()


def test_all_failed_cell_has_the_keys_of_a_successful_cell():
    failed = run_mc(small_config(cov=CovConfig(method="kernel", trunc=50)),
                    workers=1).cells[0]
    ok = run_mc(small_config(), workers=1).cells[0]
    assert failed["n_fail"] == failed["reps"] and ok["n_fail"] == 0
    assert set(failed) == set(ok)
    assert failed["beta_mean"] is None and failed["vbar_true_ratio"] is None


def test_worker_block_tallies_linalg_and_true_variance_failures(monkeypatch):
    # a numpy linear-algebra failure inside a replication, in the fit or in
    # the exact variance, is tallied under its type name, not raised. The
    # stacked block fails as a whole first, so every replication reruns
    # alone, where the fit and the exact variance are per replication.
    cfg = small_config()
    clean = montecarlo._worker_block(cfg, 8, 12, 0, 5, None)
    real_fit = montecarlo.fit
    real_tv = montecarlo._true_variance_for
    calls = {"fit": 0, "tv": 0}

    def failing_stack(*args):
        raise np.linalg.LinAlgError("stacked algebra failed")

    def flaky_fit(panel, kind):
        calls["fit"] += 1
        if calls["fit"] == 2:
            raise np.linalg.LinAlgError("fit failed")
        return real_fit(panel, kind)

    def flaky_tv(x_dm, gram_inv, truth):
        calls["tv"] += 1
        if calls["tv"] == 3:
            raise np.linalg.LinAlgError("true variance failed")
        return real_tv(x_dm, gram_inv, truth)

    monkeypatch.setattr(montecarlo, "_stacked_block", failing_stack)
    monkeypatch.setattr(montecarlo, "fit", flaky_fit)
    monkeypatch.setattr(montecarlo, "_true_variance_for", flaky_tv)
    beta, vbar, pval, tvar, kinds = \
        montecarlo._worker_block(cfg, 8, 12, 0, 5, None)
    assert len(kinds) == 5
    # rep 1 fails in fit; rep 3 is the third true variance (reps 0, 2, 3)
    assert kinds == [None, "LinAlgError", None, "LinAlgError", None]
    assert [kind for kind in kinds if kind] == ["LinAlgError", "LinAlgError"]
    ok = np.array([kind is None for kind in kinds])
    for got, want in zip((beta, vbar, pval, tvar), clean[:4]):
        assert np.isnan(got[~ok]).all()
        assert np.array_equal(got[ok], want[ok])


_PRESET_CHANNELS = [(name, channel)
                    for name, fam in sorted(EXAMPLE_PRESETS.items())
                    for channel in ("none", "idio", "factor")
                    if channel != "factor" or isinstance(fam, Factor)]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(["ma", "summable"]), st.sampled_from(list(EstimatorKind)),
       st.integers(3, 12), st.integers(2, 16), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_worker_true_variance_matches_public_path(form, kind, n, t, k, seed):
    # the worker reads the exact variance off its fit; the public function
    # demeans and checks the panel itself: same numbers, same failures, for
    # every preset under every memory channel it admits
    for name, channel in _PRESET_CHANNELS:
        if channel == "none":
            tm = TimeDependenceSpec.none()
        elif form == "ma":
            tm = TimeDependenceSpec(channel=channel, form="ma",
                                    psi=(1.0, 0.6, 0.3))
        else:
            tm = TimeDependenceSpec(channel=channel, form="summable", decay=0.7)
        spec = DgpSpec(cross_section=EXAMPLE_PRESETS[name],
                       beta_true=(1.0,) * k, time_memory=tm)
        panel, truth = gen_panel(spec, n, t, seed)
        sigma = CovMatrix(truth["sigma"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditionWarning)
            try:
                res = fit(panel, kind)
            except SingularGram:
                with pytest.raises(SingularGram):
                    true_variance_mixed(panel, kind, tm, truth["loadings"],
                                        sigma)
                continue
            got = montecarlo._true_variance_for(
                res.demeaned_x.transpose(2, 0, 1), res.gram_inv, truth)
            want = true_variance_mixed(panel, kind, tm, truth["loadings"],
                                       sigma)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
            (name, channel)


def test_fixed_design_reuses_x():
    cfg = small_config(fixed_design=True, reps=200)
    report = run_mc(cfg, workers=1)
    assert report.config["fixed_design"] is True
    cell = report.cells[0]
    assert cell["n_fail"] == 0
    # estimator varies across reps even though the design is shared
    assert cell["beta_sd"][0] > 0


def test_fixed_design_true_variance_failure_is_not_fatal():
    # the shared design's exact variance is singular (5 regressors, 2 x 2
    # panel); the cell reports no target and tallies its replications as if
    # no exact variance had been asked for
    cfg = small_config(
        dgp=DgpSpec(cross_section=Diagonal(), beta_true=(1.0,) * 5),
        grid=((2, 2),), fixed_design=True, master_seed=0)
    cell = run_mc(cfg, workers=1).cells[0]
    assert cell["true_variance_diag"] is None
    assert cell["failure_kinds"] == {"SingularGram": 200}
    without = run_mc(replace(cfg, true_variance=False), workers=1).cells[0]
    assert cell == without


def test_true_variance_ratio_tracks_one():
    # consistency of the cross-section variance estimator under a strong
    # factor with a fixed design and growing t
    cfg = McConfig(
        dgp=DgpSpec(cross_section=Factor(n_factors=1, strength=1.0),
                    beta_true=(1.0,)),
        grid=((50, 1000),),
        reps=2000,
        cov=CovConfig(method="cs"),
        master_seed=11,
        fixed_design=True,
    )
    report = run_mc(cfg, workers=2)
    cell = report.cells[0]
    ratio = cell["vbar_true_ratio"][0]
    assert abs(ratio - 1.0) < 0.10


def test_rate_axis_slope():
    # serially and cross-sectionally independent errors: rmse shrinks with
    # sqrt of the sample, slope near -0.5 on the joint-size axis
    cfg = McConfig(
        dgp=DgpSpec(cross_section=Diagonal(scale=1.0), beta_true=(1.0,)),
        grid=((10, 40), (14, 80), (20, 160), (28, 320)),
        reps=400,
        cov=CovConfig(method="cs"),
        master_seed=21,
        rate_axis="NT",
    )
    report = run_mc(cfg, workers=2)
    assert report.rate is not None
    assert report.rate["axis"] == "NT"
    assert abs(report.rate["slope"] + 0.5) < 0.15


def test_t1_cross_section_experiment():
    out = t1_cross_section_experiment(reps=2000)
    # strong equicorrelated errors with uncentered x: no escape as n grows
    assert out["ratio"] > 0.5
    centered = t1_cross_section_experiment(reps=2000, centered=True)
    assert centered["ratio"] < 0.5


def test_config_round_trip():
    cfg = McConfig(
        dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0,),
                    time_memory=TimeDependenceSpec.idio_ma((1.0, 0.5))),
        grid=((10, 20), (20, 40)),
        reps=300,
        cov=CovConfig(method="kernel", kernel="parzen", trunc=2,
                      declared="ma:1"),
        master_seed=9,
        rate_axis="T",
    )
    back = McConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    # every memory channel and form, and every covariance, through JSON
    memory = (TimeDependenceSpec.none(), TimeDependenceSpec.idio_ma((1.0, 0.4)),
              TimeDependenceSpec.idio_summable(0.7),
              TimeDependenceSpec.factor_ma((1.0, 0.5, 0.25)),
              TimeDependenceSpec.factor_summable(0.6))
    covs = (CovConfig(method="plugin"), CovConfig(),
            CovConfig(method="kernel", trunc="auto", declared="summable"))
    for tm, cov in zip(memory, covs * 2):
        cfg = McConfig(
            dgp=DgpSpec(cross_section=Factor(n_factors=1, strength=0.5),
                        beta_true=(1.0, -0.5), time_memory=tm),
            grid=((9, 8),), reps=200, estimator=EstimatorKind.POOLED,
            cov=cov, master_seed=3, fixed_design=True, true_variance=False)
        back = McConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg
        assert back.to_dict() == cfg.to_dict()


def test_fixed_design_shared_across_workers():
    cfg = small_config(fixed_design=True)
    r1 = run_mc(cfg, workers=1)
    r2 = run_mc(cfg, workers=2)
    assert r1.to_json() == r2.to_json()


def test_regime_size_ordering():
    # weaker dependence reaches nominal test size at a t no later than
    # stronger dependence
    out = regime_size_ordering(workers=2)
    assert out["ordered_ok"]
    weak = out["regimes"]["weak"]["min_t_in_band"]
    strong = out["regimes"]["strong"]["min_t_in_band"]
    assert weak is not None
    if strong is not None:
        assert weak <= strong


def test_aligned_x_coverage_reported_side_by_side():
    out = aligned_x_coverage(workers=2)
    for key in ("aligned", "generic"):
        cov = out[key]["coverage_95"]
        assert 0.90 <= cov <= 0.99
    # the generic design satisfies the clt conditions: tighter band
    assert 0.925 <= out["generic"]["coverage_95"] <= 0.975


@pytest.mark.parametrize("cov, what", [
    (dict(method="kernel", kernel="foo", trunc=0), "kernel"),
    (dict(method="kernel", kernel="foo", trunc=2), "kernel"),
    (dict(method="kernel", trunc="abc"), "trunc"),
    (dict(method="kernel", trunc=-1), "trunc"),
    (dict(method="kernel", trunc=True), "trunc"),
    (dict(method="kernel", trunc=2, declared="ma:x"), "declared"),
    (dict(method="kernel", trunc="auto", declared="purecs"), "declared"),
])
def test_cov_config_rejects_malformed_fields(cov, what):
    # caught when the config is built, before any worker starts
    with pytest.raises(UsageError, match=what):
        CovConfig(**cov)
    with pytest.raises(UsageError, match=what):
        CovConfig.from_dict(cov)


@pytest.mark.parametrize("path, key", [
    ((), "master_sed"),
    (("cov",), "kernal"),
    (("dgp",), "beta"),
    (("dgp", "time_memory"), "decay_rate"),
    (("dgp", "cross_section"), "bogus"),
])
def test_config_from_dict_names_unknown_keys(path, key):
    d = McConfig(
        dgp=DgpSpec(cross_section=Diagonal(), beta_true=(1.0,),
                    time_memory=TimeDependenceSpec.idio_summable(0.5)),
        grid=((8, 12),), reps=200).to_dict()
    node = d
    for name in path:
        node = node[name]
    node[key] = 1
    with pytest.raises(UsageError, match=key):
        McConfig.from_dict(d)


def test_cov_config_has_one_home():
    import panelcsd
    from panelcsd import covariance
    assert panelcsd.CovConfig is montecarlo.CovConfig is covariance.CovConfig


def test_every_package_export_is_exported_by_its_own_module():
    # panelcsd exports exactly the union of its modules' __all__, sorted and
    # each name once, and every name is the object its own module exports
    import importlib
    import pkgutil
    import panelcsd
    modules = [importlib.import_module(f"panelcsd.{info.name}")
               for info in pkgutil.iter_modules(panelcsd.__path__)
               if info.name != "__main__"]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert sorted(m.__name__.split(".")[1] for m in listed) == [
        "covariance", "dependence", "dgp", "errors", "estimators",
        "inference", "montecarlo", "panel"]
    assert panelcsd.__all__ == sorted({name for m in listed
                                       for name in m.__all__})
    strays = sorted(f"{m.__name__}.{name}" for m in listed
                    for name in m.__all__
                    if getattr(panelcsd, name) is not getattr(m, name))
    assert strays == []


@pytest.mark.parametrize("key, value", [
    ("grid", [[8]]),
    ("grid", [[8, 9, 10]]),
    ("grid", None),
    ("grid", 8),
    ("estimator", "bogus"),
    ("estimator", None),
])
def test_config_from_dict_names_bad_grid_and_estimator(key, value):
    d = small_config().to_dict()
    d[key] = value
    with pytest.raises(UsageError, match=key):
        McConfig.from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("fixed_design", "false"),
    ("true_variance", "false"),
    ("fixed_design", 0),
    ("master_seed", 7.9),
    ("reps", 200.5),
    ("reps", True),
    ("grid", [[8.5, 12]]),
    ("grid", [[8, True]]),
])
def test_config_from_dict_checks_value_types(key, value):
    # a value is checked, never coerced into a different experiment
    d = small_config().to_dict()
    d[key] = value
    named = rf"{key}.*(integer|true or false)"
    with pytest.raises(UsageError, match=named):
        McConfig.from_dict(d)
    with pytest.raises(UsageError, match=named):
        small_config(**{key: value})


def _count_pools(monkeypatch) -> list:
    """Swap montecarlo's executor for a subclass that records each pool it
    builds; returns the record."""
    built = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return built


@pytest.mark.parametrize("experiment, kwargs", [
    (regime_size_ordering, dict(n=6, t_grid=(5, 8), reps=200, seed=3)),
    (aligned_x_coverage, dict(n=6, t=8, reps=200, seed=4)),
])
def test_experiment_shares_one_pool_with_unchanged_reports(
        monkeypatch, experiment, kwargs):
    built = _count_pools(monkeypatch)
    calls = []

    def recording_run_mc(config, workers=None):
        report = run_mc(config, workers=workers)
        calls.append((config, report))
        return report

    # the experiments call run_mc through the module name, as the
    # benchmark's recorder relies on
    monkeypatch.setattr(montecarlo, "run_mc", recording_run_mc)
    experiment(workers=2, **kwargs)
    assert built == [2]
    assert len(calls) >= 2
    for config, report in calls:
        assert run_mc(config, workers=2).to_json() == report.to_json()
    assert built == [2] * (1 + len(calls))


def test_nested_pool_scopes_share_only_a_pool_of_the_same_size(monkeypatch):
    built = _count_pools(monkeypatch)
    with montecarlo._pool(2) as outer:
        with montecarlo._pool(2) as inner:
            assert inner is outer
        with montecarlo._pool(1) as other:
            assert other is not outer
        with montecarlo._pool(2) as again:
            assert again is outer
    assert built == [2, 1]
    with montecarlo._pool(2) as fresh:
        assert fresh is not outer
    assert built == [2, 1, 2]


def test_worker_pool_error_names_cell_and_cause():
    # workers cannot re-import a main module read from stdin
    script = (
        "from panelcsd import CovConfig, DgpSpec, Diagonal, McConfig, run_mc\n"
        "run_mc(McConfig(dgp=DgpSpec(cross_section=Diagonal(), "
        "beta_true=(1.0,)), grid=((6, 5),), reps=200, "
        "cov=CovConfig(method='cs')), workers=2)\n")
    proc = subprocess.run([sys.executable, "-"], input=script, text=True,
                          capture_output=True, env=child_env(), timeout=120)
    assert proc.returncode != 0
    assert "WorkerPoolError" in proc.stderr
    assert "cell (n=6, t=5)" in proc.stderr
    assert "__main__" in proc.stderr
    assert "killed" in proc.stderr


_POOL_PROBE = """
import json, multiprocessing, os, sys, time
from panelcsd import McConfig, montecarlo, run_mc

def probe():
    time.sleep(0.5)  # long enough that each worker takes one
    return os.getpid(), os.getppid(), {
        key: os.environ.get(key) for key in montecarlo._WORKER_ENV}

if __name__ == "__main__":
    config_path, foreign = sys.argv[1], sys.argv[2] == "foreign"
    os.environ["OPENBLAS_NUM_THREADS"] = "4"
    if foreign:
        from multiprocessing import forkserver
        multiprocessing.set_forkserver_preload([])
        forkserver.ensure_running()
    with montecarlo._pool(2) as pool:
        seen = [f.result() for f in [pool.submit(probe) for _ in range(4)]]
    with open(config_path) as fh:
        report = run_mc(McConfig.from_dict(json.load(fh)), workers=2)
    print(json.dumps({"pid": os.getpid(),
                      "own_server": montecarlo._SERVER_PID, "seen": seen,
                      "env": os.environ["OPENBLAS_NUM_THREADS"],
                      "report": report.to_json()}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("foreign", [False, True])
def test_workers_and_reports_whoever_started_the_forkserver(tmp_path,
                                                            foreign):
    # A fresh interpreter that set OPENBLAS_NUM_THREADS=4 before its first
    # pool, and may have started a forkserver of its own first: every
    # worker still sees the worker environment, the report is the same, and
    # no process of the session outlives the interpreter.
    if foreign and "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver on this platform")
    script = tmp_path / "probe.py"
    script.write_text(_POOL_PROBE)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    out_path, err_path = tmp_path / "out.json", tmp_path / "err.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(script), str(config_path),
             "foreign" if foreign else "own"],
            stdout=out, stderr=err, env=child_env(), start_new_session=True)
    try:
        proc.wait(timeout=120)
        # timed from the interpreter's exit, not from its pipes' closing
        assert group_left_after(proc.pid, 5.0) == []
        assert proc.returncode == 0, err_path.read_text()
    finally:
        for pid in live_group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
    got = json.loads(out_path.read_text())
    assert len({pid for pid, _, _ in got["seen"]}) == 2
    assert all(env == montecarlo._WORKER_ENV for _, _, env in got["seen"])
    assert got["env"] == "4"  # the parent's own setting is back
    parents = {ppid for _, ppid, _ in got["seen"]}
    if foreign:
        # that server's environment is not ours: the workers are spawned
        assert got["own_server"] is None and parents == {got["pid"]}
    elif "forkserver" in multiprocessing.get_all_start_methods():
        assert parents == {got["own_server"]}
    assert got["report"] == run_mc(small_config(), workers=2).to_json()


@pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2"])
def test_worker_count_must_be_a_positive_integer(monkeypatch, workers):
    built = _count_pools(monkeypatch)
    with pytest.raises(UsageError, match="workers must be an integer >= 1"):
        run_mc(small_config(), workers=workers)
    with pytest.raises(UsageError, match="workers"):
        regime_size_ordering(workers=workers)
    with pytest.raises(UsageError, match="workers"):
        aligned_x_coverage(workers=workers)
    assert built == []


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
def test_worker_count_env_var_must_be_a_positive_integer(monkeypatch, env):
    built = _count_pools(monkeypatch)
    monkeypatch.setenv(THREADS_ENV_VAR, env)
    with pytest.raises(UsageError, match=THREADS_ENV_VAR):
        run_mc(small_config())
    with pytest.raises(UsageError, match=THREADS_ENV_VAR):
        regime_size_ordering()
    assert built == []


def test_worker_count_sources_in_order(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_workers() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv(THREADS_ENV_VAR, "")
    assert resolve_workers() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert resolve_workers() == 3
    assert resolve_workers(np.int64(2)) == 2
    with pytest.raises(UsageError, match="--threads"):
        resolve_workers(0, "--threads")


def test_config_estimator_must_be_an_estimator_kind():
    with pytest.raises(UsageError, match="estimator"):
        small_config(estimator="fe")
    cfg = small_config(estimator=EstimatorKind.POOLED)
    assert McConfig.from_dict(cfg.to_dict()) == cfg


# --- stacked replication blocks ---------------------------------------------

def _stacking_config(grid, dgp=None, **kw):
    kw.setdefault("cov", CovConfig(method="cs"))
    return McConfig(dgp=dgp or DgpSpec(cross_section=Equicorr(a=1.0, b=0.5),
                                       beta_true=(1.0,)),
                    grid=(grid,), reps=200, master_seed=17, **kw)


_STACKING_CASES = {
    # the zero-lag covariance and the cross-section exact variance
    "cs": _stacking_config((50, 25)),
    # more than 8192 values per design, one stacked block of 3
    "cs_long": _stacking_config((50, 200), true_variance=False),
    "kernel_mixed_variance": _stacking_config(
        (20, 30), DgpSpec(cross_section=Factor(n_factors=1),
                          beta_true=(1.0, -0.5),
                          time_memory=TimeDependenceSpec.idio_summable(0.8)),
        cov=CovConfig(method="kernel", trunc="auto", declared="summable")),
    "kernel_uniform_ma": _stacking_config(
        (12, 20), DgpSpec(cross_section=Factor(n_factors=1),
                          beta_true=(1.0, -0.5, 0.2),
                          time_memory=TimeDependenceSpec.idio_ma((1.0, 0.6))),
        cov=CovConfig(method="kernel", kernel="uniform", trunc=4)),
    "plugin_pooled": _stacking_config(
        (9, 15), DgpSpec(cross_section=DecayCorrelation(),
                         beta_true=(1.0, 2.0)),
        cov=CovConfig(method="plugin"), estimator=EstimatorKind.POOLED),
    "fixed_design": _stacking_config((12, 20), fixed_design=True),
    "factor_aligned": _stacking_config(
        (30, 40), DgpSpec(cross_section=Factor(n_factors=1, strength=1.0),
                          beta_true=(1.0,), x_law="factor_aligned")),
    "student_t_ma": _stacking_config(
        (15, 20), DgpSpec(cross_section=Diagonal(), beta_true=(1.0, 0.5),
                          error_dist="student_t", t_df=6.0,
                          time_memory=TimeDependenceSpec.idio_ma((1.0, 0.5))),
        cov=CovConfig(method="kernel", trunc=2)),
    "factor_summable": _stacking_config(
        (14, 50), DgpSpec(cross_section=Factor(n_factors=2, strength=0.7),
                          beta_true=(1.0, 0.5),
                          time_memory=TimeDependenceSpec.factor_summable(0.6)),
        cov=CovConfig(method="kernel", kernel="parzen", trunc=3)),
    # the uniform kernel's PSD repair leaves some R V R' singular
    "some_fail": _stacking_config(
        (2, 3), DgpSpec(cross_section=Diagonal(), beta_true=(1.0, 1.0),
                        x_law="cs_centered"),
        cov=CovConfig(method="kernel", kernel="uniform", trunc=1)),
    "all_singular_gram": _stacking_config(
        (2, 2), DgpSpec(cross_section=Diagonal(), beta_true=(1.0,) * 5)),
    # raised for the whole stack, then by every replication on its own
    "fixed_effect_two_periods": _stacking_config((6, 2)),
}


def _cell_in_process(cfg):
    n, t = cfg.grid[0]
    design, tv_fixed = (montecarlo._fixed_design(cfg, n, t)
                        if cfg.fixed_design else (None, None))
    block = montecarlo._worker_block(cfg, n, t, 0, cfg.reps, design)
    return block, montecarlo._aggregate_cell(n, t, cfg, *block, tv_fixed)


@pytest.mark.parametrize("name", sorted(_STACKING_CASES))
def test_stacked_blocks_match_one_replication_per_block(monkeypatch, name):
    cfg = _STACKING_CASES[name]
    n, t = cfg.grid[0]
    assert montecarlo._batch_size(n, t, len(cfg.dgp.beta_true)) > 1
    stacked, stacked_cell = _cell_in_process(cfg)
    monkeypatch.setattr(montecarlo, "_batch_size", lambda n, t, k: 1)
    single, single_cell = _cell_in_process(cfg)
    for got, want in zip(stacked[:4], single[:4]):
        assert got.tobytes() == want.tobytes()
    assert stacked[4] == single[4]
    assert json.dumps(stacked_cell) == json.dumps(single_cell)
    # and the same bits as the public functions, one replication at a time
    k = len(cfg.dgp.beta_true)
    restr = montecarlo.LinearRestriction(np.eye(k), cfg.dgp.beta_true)
    want_tv = cfg.true_variance and not cfg.fixed_design
    design = (montecarlo._fixed_design(cfg, n, t)[0] if cfg.fixed_design
              else None)
    for rep in [r for r, kind in enumerate(stacked[4]) if kind is None][:8]:
        alone = montecarlo._replicate(cfg, n, t, rep, design, restr, want_tv)
        for got, want in zip(stacked[:4], alone):
            want = np.broadcast_to(np.asarray(want, float), got[rep].shape)
            assert got[rep].tobytes() == want.tobytes()


def test_stacked_failures_keep_their_exception_names():
    kinds = {name: _cell_in_process(_STACKING_CASES[name])[1]["failure_kinds"]
             for name in ("some_fail", "all_singular_gram",
                          "fixed_effect_two_periods")}
    assert set(kinds["some_fail"]) == {"SingularRestrictedCov"}
    assert 0 < kinds["some_fail"]["SingularRestrictedCov"] < 200
    assert kinds["all_singular_gram"] == {"SingularGram": 200}
    assert kinds["fixed_effect_two_periods"] == {"SingularCov": 200}


def test_batch_size_keeps_a_block_within_its_budget():
    assert montecarlo._batch_size(50, 25, 1) == 26
    assert montecarlo._batch_size(50, 200, 1) == 3
    assert montecarlo._batch_size(50, 100, 2) == 4
    assert montecarlo._batch_size(200, 200, 2) == 1
    assert montecarlo._batch_size(2, 2, 1) == 32


@pytest.mark.parametrize("total, workers, batch", [
    (200, 1, 26), (200, 2, 26), (200, 8, 3), (1500, 2, 32), (200, 3, 1),
    (7, 4, 32), (250, 8, 32)])
def test_chunks_are_whole_stacked_blocks(total, workers, batch):
    chunks = montecarlo._chunk_ranges(total, workers, batch)
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
    assert all(lo % batch == 0 and hi > lo for lo, hi in chunks)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_pool_drops_queued_work_when_an_exception_leaves_it(error):
    before = set(multiprocessing.active_children())
    start = time.perf_counter()
    with pytest.raises(error):
        with montecarlo._pool(1) as pool:
            for _ in range(20):
                pool.submit(time.sleep, 0.5)
            raise error("stop")
    assert time.perf_counter() - start < 2.0
    assert set(multiprocessing.active_children()) <= before


def test_pool_ends_a_running_worker_when_an_exception_leaves_it():
    before = set(multiprocessing.active_children())
    with pytest.raises(KeyboardInterrupt):
        with montecarlo._pool(1) as pool:
            pool.submit(os.getpid).result()  # the worker is up
            pool.submit(time.sleep, 60)
            time.sleep(0.3)
            start = time.perf_counter()
            raise KeyboardInterrupt
    assert time.perf_counter() - start < 10.0
    assert set(multiprocessing.active_children()) <= before


def test_worker_pool_is_shared_by_the_calls_inside_it(monkeypatch):
    built = _count_pools(monkeypatch)
    cfg = small_config()
    with panelcsd.worker_pool(2):
        first = run_mc(cfg, workers=2)
        second = run_mc(replace(cfg, master_seed=6), workers=2)
    assert built == [2]
    assert first.to_json() == run_mc(cfg, workers=2).to_json()
    assert first.to_json() != second.to_json()
    assert built == [2, 2]


def test_interrupt_inside_submit_keeps_its_type_and_cell(monkeypatch,
                                                         tmp_path, capsys):
    # The interrupt lands after the executor made its manager thread and
    # before it started it: the pool's shutdown then cannot join that
    # thread, and must not replace the interrupt.
    def interrupted(self):
        raise KeyboardInterrupt

    cfg = small_config()
    undisturbed = run_mc(cfg, workers=2).to_json()
    cfg_path, out_path = tmp_path / "config.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures.process._ExecutorManagerThread, "start",
                  interrupted)
        with pytest.raises(KeyboardInterrupt) as info:
            run_mc(cfg, workers=2)
        assert info.value.__notes__ == ["in cell (n=8, t=12)"]
        code = dispatch(["mc", "run", str(cfg_path), "--threads", "2",
                         "--out", str(out_path)])
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted in cell "
                                       "(n=8, t=12)\n")
    assert not out_path.exists()
    assert run_mc(cfg, workers=2).to_json() == undisturbed


def test_workers_ignore_sigint():
    # a terminal sends Ctrl-C to the whole process group; the parent owns it
    with panelcsd.worker_pool(2) as pool:
        assert pool.submit(signal.getsignal,
                           signal.SIGINT).result() == signal.SIG_IGN


_FORK_AT_EXIT = """
import json, os, sys, time
from panelcsd import McConfig, run_mc

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        config = McConfig.from_dict(json.load(fh))
    run_mc(config, workers=2)
    run_mc(config, workers=2)
    child = os.fork()
    if child == 0:
        time.sleep(30)
        os._exit(0)
    print(child, flush=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_exit_leaves_the_forkserver_to_a_forked_child(tmp_path):
    # A child forked after the pools holds the forkserver's alive pipe open.
    # The interpreter exits without waiting for it; the server ends once the
    # child is gone, and nothing is left in TMPDIR.
    script, config_path = tmp_path / "fork.py", tmp_path / "config.json"
    script.write_text(_FORK_AT_EXIT)
    config_path.write_text(json.dumps(small_config().to_dict()))
    out_path, err_path = tmp_path / "out.txt", tmp_path / "err.txt"
    env = child_env()
    env["TMPDIR"] = str(tmp_path)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, str(script),
                                 str(config_path)], stdout=out, stderr=err,
                                env=env, start_new_session=True)
    child = None
    try:
        deadline = time.monotonic() + 120
        while not out_path.read_text().endswith("\n"):
            assert proc.poll() is None, err_path.read_text()
            assert time.monotonic() < deadline, "no pid was printed"
            time.sleep(0.05)
        child = int(out_path.read_text())
        proc.wait(timeout=5)
        assert proc.returncode == 0, err_path.read_text()
        os.kill(child, signal.SIGKILL)
        child = None
        assert group_left_after(proc.pid, 5.0) == []
        assert list(tmp_path.glob("pymp-*")) == []
    finally:
        if child is not None:
            os.kill(child, signal.SIGKILL)
        for pid in live_group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
