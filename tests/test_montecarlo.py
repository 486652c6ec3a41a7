import contextlib
import importlib
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panelcsd
from panelcsd import (CovMatrix, EstimatorKind, TimeDependenceSpec, fit,
                      montecarlo, true_variance_mixed)
from panelcsd.dgp import (EXAMPLE_PRESETS, Arrowhead, Block,
                          DecayCorrelation, DgpSpec, Diagonal, Equicorr,
                          Factor, ScaledEquicorr, gen_panel)
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


def test_written_files_get_the_umask_mode_and_replaced_ones_keep_theirs(
        tmp_path):
    old = os.umask(0o022)
    try:
        new = tmp_path / "new.json"
        montecarlo.write_atomic(str(new), "new\n")
        kept = {}
        for mode in (0o644, 0o640):
            path = tmp_path / f"{mode:o}.json"
            path.write_text("previous\n")
            path.chmod(mode)
            McReport(config={}, cells=[], rate=None).save(str(path))
            kept[mode] = stat.S_IMODE(path.stat().st_mode)
        assert os.umask(0o022) == 0o022  # the umask is left as it was
    finally:
        os.umask(old)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert new.read_text() == "new\n"
    assert kept == {0o644: 0o644, 0o640: 0o640}
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
    clean = montecarlo._worker_block(cfg, 8, 12, 0, 5)
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

    def flaky_tv(x_dm, gram_inv, dgp, n):
        calls["tv"] += 1
        if calls["tv"] == 3:
            raise np.linalg.LinAlgError("true variance failed")
        return real_tv(x_dm, gram_inv, dgp, n)

    monkeypatch.setattr(montecarlo, "_stacked_block", failing_stack)
    monkeypatch.setattr(montecarlo, "fit", flaky_fit)
    monkeypatch.setattr(montecarlo, "_true_variance_for", flaky_tv)
    beta, vbar, pval, tvar, kinds, _ = \
        montecarlo._worker_block(cfg, 8, 12, 0, 5)
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
                res.demeaned_x.transpose(2, 0, 1), res.gram_inv, spec, n)
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


def test_rate_is_none_when_the_cells_with_an_rmse_share_one_axis_value():
    # every replication of the (6, 2) cell fails, which leaves two cells at
    # t = 20 and no slope to fit
    cfg = McConfig(dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5),
                               beta_true=(1.0,)),
                   grid=((10, 20), (20, 20), (6, 2)), reps=200,
                   cov=CovConfig(method="cs"), master_seed=17, rate_axis="T")
    report = run_mc(cfg, workers=1)
    assert [c["rmse_scalar"] is None for c in report.cells] == [False, False,
                                                                 True]
    assert report.rate is None


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


def test_fixed_design_report_is_the_same_at_any_caller_thread_count(tmp_path):
    # the design and its exact variance (for the dense example6, an n x n
    # product whose bits depend on the BLAS thread count) come from the
    # one-thread workers, so the calling process's thread count cannot
    # reach the report
    cfg_path = tmp_path / "fixed.json"
    cfg_path.write_text(json.dumps({
        "dgp": {"cross_section": "example6", "beta_true": [1.0, 0.5]},
        "grid": [[600, 10]], "reps": 200, "master_seed": 3,
        "fixed_design": True, "true_variance": True}))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = child_env() | dict.fromkeys(
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"), threads)
        subprocess.run([sys.executable, "-m", "panelcsd", "mc", "run",
                        str(cfg_path), "--threads", "2", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


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
    ("grid", [[5, 0]]),
    ("grid", [[0, 10]]),
    ("grid", [[-3, 10]]),
    ("grid", [[5, 1]]),
    ("grid", [[1, 10]]),
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


def _count_starts(monkeypatch) -> list:
    """End this process's workers, then record the pid of each worker
    started from here on; returns the record."""
    montecarlo._end_workers()
    started = []

    class CountingWorker(montecarlo._Worker):
        def __init__(self):
            super().__init__()
            started.append(self.pid)

    monkeypatch.setattr(montecarlo, "_Worker", CountingWorker)
    return started


def _ended(worker) -> bool:
    """Whether ``worker``'s process has ended and been reaped."""
    try:
        os.kill(worker.pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("experiment, kwargs", [
    (regime_size_ordering, dict(n=6, t_grid=(5, 8), reps=200, seed=3)),
    (aligned_x_coverage, dict(n=6, t=8, reps=200, seed=4)),
])
def test_experiment_shares_one_pool_with_unchanged_reports(
        monkeypatch, experiment, kwargs):
    started = _count_starts(monkeypatch)
    calls = []

    def recording_run_mc(config, workers=None):
        report = run_mc(config, workers=workers)
        calls.append((config, report))
        return report

    # the experiments call run_mc through the module name, as the
    # benchmark's recorder relies on
    monkeypatch.setattr(montecarlo, "run_mc", recording_run_mc)
    experiment(workers=2, **kwargs)
    assert len(started) == 2
    assert len(calls) >= 2
    for config, report in calls:
        assert run_mc(config, workers=2).to_json() == report.to_json()
    assert len(started) == 2


def test_pool_scopes_share_the_workers_and_only_add_to_them(monkeypatch):
    started = _count_starts(monkeypatch)
    with montecarlo._pool(2) as outer:
        with montecarlo._pool(1) as inner:
            assert inner == outer[:1]
        with montecarlo._pool(3) as wider:
            assert wider[:2] == outer
    assert len(started) == 3
    with montecarlo._pool(2) as later:
        assert later == outer
    assert len(started) == 3
    assert [task.result() for task in [worker.submit(os.getpid)
                                       for worker in montecarlo._WORKERS]
            ] == started


_KILLED_IN_CELL = """
import os, signal
from panelcsd import CovConfig, DgpSpec, Diagonal, McConfig, run_mc

class Lethal(Diagonal):
    # a worker that builds this covariance is killed; a worker runs this
    # script as __mp_main__ to find the class
    def _low_rank(self, n):
        if __name__ == "__mp_main__":
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._low_rank(n)

if __name__ == "__main__":
    run_mc(McConfig(dgp=DgpSpec(cross_section=Lethal(), beta_true=(1.0,)),
                    grid=((6, 5),), reps=200, cov=CovConfig(method="cs")),
           workers=2)
"""


def test_worker_pool_error_names_cell_and_cause(tmp_path):
    # a worker killed inside the cell breaks the pool
    script = tmp_path / "killed.py"
    script.write_text(_KILLED_IN_CELL)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode != 0
    assert "WorkerPoolError" in proc.stderr
    assert "cell (n=6, t=5)" in proc.stderr
    assert "__main__" in proc.stderr
    assert "killed" in proc.stderr


_MAIN_RUNS = """
import json, os, sys
with open(sys.argv[1], "a") as fh:
    print(os.getpid(), file=fh)
from panelcsd import McConfig, run_mc

if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        config = McConfig.from_dict(json.load(fh))
    run_mc(config, workers=2)
    run_mc(config, workers=2)
    print(os.getpid())
"""


def test_workers_do_not_run_the_main_module(tmp_path):
    script, runs = tmp_path / "main_runs.py", tmp_path / "runs.txt"
    config_path = tmp_path / "config.json"
    script.write_text(_MAIN_RUNS)
    config_path.write_text(json.dumps(small_config().to_dict()))
    proc = subprocess.run([sys.executable, str(script), str(runs),
                           str(config_path)], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert runs.read_text().split() == proc.stdout.split()


def _run_alone(tmp_path, argv, stdin="", seconds=1.0, timeout=120):
    """Run ``argv`` in a session of its own, with its output in files. Once
    it has exited, no process of the session may be left after ``seconds``.
    Returns its exit code, standard output and standard error."""
    paths = [tmp_path / name for name in ("in.txt", "out.txt", "err.txt")]
    paths[0].write_text(stdin)
    with open(paths[0]) as inp, open(paths[1], "w") as out, \
            open(paths[2], "w") as err:
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, stderr=err,
                                env=child_env(), start_new_session=True)
    try:
        proc.wait(timeout=timeout)
        # timed from the interpreter's exit, not from its pipes' closing
        left = group_left_after(proc.pid, seconds)
    finally:
        for pid in live_group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
    assert left == []
    return proc.returncode, paths[1].read_text(), paths[2].read_text()


_NO_GUARD = """
import json
from panelcsd import McConfig, run_mc
config = McConfig.from_dict(json.loads({config!r}))
print(run_mc(config, workers=2).to_json(), end="")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_script_without_a_main_guard_runs(tmp_path, source):
    # and the workers it started end with it
    cfg = small_config(grid=((8, 12), (9, 12)))
    text = _NO_GUARD.format(config=json.dumps(cfg.to_dict()))
    script = tmp_path / "no_guard.py"
    script.write_text(text)
    code, out, err = _run_alone(
        tmp_path, [sys.executable, str(script) if source == "file" else "-"],
        stdin=text)
    assert code == 0, err
    assert err == ""
    assert out == run_mc(cfg, workers=2).to_json()


_NO_GUARD_OWN_FAMILY = """
from panelcsd import CovConfig, DgpSpec, Diagonal, McConfig, run_mc

class Mine(Diagonal):
    pass

run_mc(McConfig(dgp=DgpSpec(cross_section=Mine(), beta_true=(1.0,)),
                grid=((6, 5),), reps=200, cov=CovConfig(method="cs")),
       workers=2)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_script_without_a_main_guard_that_a_worker_runs_fails(tmp_path):
    # A worker runs the script to find Mine. The script's run_mc call then
    # runs in the worker, and must fail there, not start workers of its own.
    script = tmp_path / "own_family.py"
    script.write_text(_NO_GUARD_OWN_FAMILY)
    code, out, err = _run_alone(tmp_path, [sys.executable, str(script)])
    assert code == 1 and out == ""
    assert "RuntimeError: run_mc was called in a worker" in err


_POOL_PROBE = """
import json, multiprocessing, os, sys, time
from panelcsd import McConfig, montecarlo, run_mc

def probe():
    preloaded = "numpy.random" in sys.modules  # before the task imports it
    time.sleep(0.5)
    with open(f"/proc/{os.getppid()}/stat") as fh:
        server_parent = int(fh.read().rsplit(")", 1)[1].split()[1])
    return os.getpid(), (os.getppid(), server_parent), {
        key: os.environ.get(key) for key in montecarlo._WORKER_ENV}, \\
        preloaded, __name__

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
    print(json.dumps({"pid": os.getpid(), "seen": seen,
                      "env": os.environ["OPENBLAS_NUM_THREADS"],
                      "report": report.to_json()}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("foreign", [False, True])
def test_workers_and_reports_whoever_started_the_forkserver(tmp_path,
                                                            foreign):
    # A fresh interpreter that set OPENBLAS_NUM_THREADS=4 before its first
    # run, and may have started a multiprocessing forkserver of its own
    # first: every worker still sees the worker environment, the report is
    # the same, and no process of the session outlives the interpreter.
    if foreign and "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver on this platform")
    script = tmp_path / "probe.py"
    script.write_text(_POOL_PROBE)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    code, out, err = _run_alone(
        tmp_path, [sys.executable, str(script), str(config_path),
                   "foreign" if foreign else "own"], seconds=5.0)
    assert code == 0, err
    got = json.loads(out)
    assert len({pid for pid, *_ in got["seen"]}) == 2
    assert all(env == montecarlo._WORKER_ENV for _, _, env, *_ in got["seen"])
    # the task lives in the main module, which each worker ran to find it
    assert all(name == "__mp_main__" for *_, name in got["seen"])
    assert got["env"] == "4"  # the parent's own setting is untouched
    # one worker server, the interpreter's own child, forked the workers
    servers = {tuple(parents) for _, parents, *_ in got["seen"]}
    assert len(servers) == 1 and servers.pop()[1] == got["pid"]
    # numpy imports numpy.random lazily; a worker imports it at start
    assert all(preloaded for _, _, _, preloaded, _ in got["seen"])
    assert got["report"] == run_mc(small_config(), workers=2).to_json()


@pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2"])
def test_worker_count_must_be_a_positive_integer(monkeypatch, workers):
    started = _count_starts(monkeypatch)
    with pytest.raises(UsageError, match="workers must be an integer >= 1"):
        run_mc(small_config(), workers=workers)
    with pytest.raises(UsageError, match="workers"):
        regime_size_ordering(workers=workers)
    with pytest.raises(UsageError, match="workers"):
        aligned_x_coverage(workers=workers)
    assert started == []


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
def test_worker_count_env_var_must_be_a_positive_integer(monkeypatch, env):
    started = _count_starts(monkeypatch)
    monkeypatch.setenv(THREADS_ENV_VAR, env)
    with pytest.raises(UsageError, match=THREADS_ENV_VAR):
        run_mc(small_config())
    with pytest.raises(UsageError, match=THREADS_ENV_VAR):
        regime_size_ordering()
    assert started == []


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
    # covariances of small rank: a root and a sandwich in the structured
    # form, an indefinite rank-2 core, and a rank-deficient covariance
    "arrowhead_ma": _stacking_config(
        (12, 20), DgpSpec(cross_section=Arrowhead(c=1.5), beta_true=(1.0, 0.5),
                          time_memory=TimeDependenceSpec.idio_ma((1.0, 0.5))),
        cov=CovConfig(method="kernel", trunc=2)),
    "scaled_equicorr": _stacking_config(
        (16, 20), DgpSpec(cross_section=ScaledEquicorr(a=2.0),
                          beta_true=(1.0,))),
    "two_blocks_summable": _stacking_config(
        (15, 24), DgpSpec(cross_section=Block(n_blocks=2, b=0.5),
                          beta_true=(1.0,),
                          time_memory=TimeDependenceSpec.idio_summable(0.7))),
    "equicorr_rank_one": _stacking_config(
        (10, 20), DgpSpec(cross_section=Equicorr(a=1.0, b=1.0),
                          beta_true=(1.0,))),
}


def _cell_in_process(cfg):
    n, t = cfg.grid[0]
    block = montecarlo._worker_block(cfg, n, t, 0, cfg.reps)
    return block, montecarlo._aggregate_cell(n, t, cfg, *block)


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
    design = (montecarlo._fixed_design(cfg, n, t, False)[0]
              if cfg.fixed_design else None)
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


class _RecordingPool:
    """Runs a chunk in this process when its result is read, and records
    each submit and read as (event, cell, chunk) in ``events``."""

    def __init__(self, events):
        self.events = events

    def submit(self, fn, cfg, n, t, lo, hi):
        self.events.append(("submit", (n, t), (lo, hi)))
        return _RecordedFuture(self.events, (n, t),
                               lambda: fn(cfg, n, t, lo, hi))


class _RecordedFuture:
    def __init__(self, events, cell, call):
        self.events, self.cell, self.call = events, cell, call

    def result(self):
        self.events.append(("result", self.cell, None))
        return self.call()


@pytest.mark.parametrize("workers", [2, 3])
def test_next_cell_is_queued_before_the_current_one_is_collected(monkeypatch,
                                                               workers):
    cfg = small_config(grid=((8, 12), (9, 12), (10, 12)))
    events = []
    aggregate = montecarlo._aggregate_cell

    def recording_aggregate(n, t, *args):
        events.append(("aggregate", (n, t), None))
        return aggregate(n, t, *args)

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_pool",
                  lambda workers: contextlib.nullcontext(
                      _RecordingPool(events)))
        m.setattr(montecarlo, "_aggregate_cell", recording_aggregate)
        report = run_mc(cfg, workers=workers)
    steps = [(event, cell) for event, cell, _ in events]
    steps = [step for i, step in enumerate(steps)
             if i == 0 or steps[i - 1] != step]
    one, two, three = cfg.grid
    assert steps == [("submit", one), ("submit", two),
                     ("result", one), ("aggregate", one),
                     ("submit", three),
                     ("result", two), ("aggregate", two),
                     ("result", three), ("aggregate", three)]
    for n, t in cfg.grid:
        chunks = [chunk for event, cell, chunk in events
                  if event == "submit" and cell == (n, t)]
        batch = montecarlo._batch_size(n, t, 1)
        assert len(chunks) == workers
        assert chunks[0][0] == 0 and chunks[-1][1] == cfg.reps
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        assert all(lo % batch == 0 and hi > lo for lo, hi in chunks)
    assert report.to_json() == run_mc(cfg, workers=workers).to_json()


@pytest.mark.parametrize("cfg", [
    _stacking_config((8, 12)),
    _stacking_config((12, 20), DgpSpec(cross_section=Equicorr(a=1.0, b=0.5),
                                       beta_true=(1.0, 0.5)),
                     fixed_design=True),
    _stacking_config((8, 12), DgpSpec(
        cross_section=Block(size="sqrt", b=0.5), beta_true=(1.0, -0.5),
        time_memory=TimeDependenceSpec.idio_ma((1.0, 0.5)))),
], ids=["drawn_design", "fixed_design", "block_drawn_design"])
def test_multi_cell_reports_are_byte_identical_across_worker_counts(cfg):
    # the middle cell fails every replication, and each fixed design is
    # drawn in the parent while the cell before it runs
    cfg = replace(cfg, grid=(cfg.grid[0], (6, 2), (9, 15)))
    reports = {run_mc(cfg, workers=workers).to_json()
               for workers in (1, 2, 3)}
    assert len(reports) == 1
    cells = json.loads(reports.pop())["cells"]
    assert cells[1]["failure_kinds"] == {"SingularCov": 200}
    assert all(cell["n_fail"] == 0 for cell in (cells[0], cells[2]))


def test_interrupt_while_collecting_names_that_cell_and_ends_the_workers(
        monkeypatch):
    cfg = small_config(grid=((8, 12), (9, 12), (10, 12)))
    submitted, seen = [], {}
    aggregate, submit = montecarlo._aggregate_cell, montecarlo._Pool.submit

    def recording_submit(self, fn, *args):
        submitted.append(args[1:3])
        return submit(self, fn, *args)

    def interrupted(n, t, *args):
        if (n, t) == cfg.grid[0]:
            seen.update(queued=list(submitted),
                        workers=list(montecarlo._WORKERS))
            raise KeyboardInterrupt
        return aggregate(n, t, *args)

    monkeypatch.setattr(montecarlo._Pool, "submit", recording_submit)
    monkeypatch.setattr(montecarlo, "_aggregate_cell", interrupted)
    with pytest.raises(KeyboardInterrupt) as info:
        run_mc(cfg, workers=2)
    assert info.value.__notes__ == ["in cell (n=8, t=12)"]
    assert seen["queued"] == [(8, 12)] * 2 + [(9, 12)] * 2
    assert seen["workers"]
    assert all(_ended(w) for w in seen["workers"])
    assert montecarlo._WORKERS == []


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_pool_drops_queued_work_when_an_exception_leaves_it(error):
    start = time.perf_counter()
    with pytest.raises(error):
        with montecarlo._pool(1) as pool:
            for _ in range(20):
                pool.submit(time.sleep, 0.5)
            workers = list(montecarlo._WORKERS)
            raise error("stop")
    assert time.perf_counter() - start < 2.0
    assert all(_ended(w) for w in workers)
    assert montecarlo._WORKERS == []


def test_pool_ends_a_running_worker_when_an_exception_leaves_it():
    with pytest.raises(KeyboardInterrupt):
        with montecarlo._pool(1) as pool:
            pool.submit(os.getpid).result()  # the worker is up
            pool.submit(time.sleep, 60)
            time.sleep(0.3)
            workers = list(montecarlo._WORKERS)
            start = time.perf_counter()
            raise KeyboardInterrupt
    assert time.perf_counter() - start < 10.0
    assert all(_ended(w) for w in workers)


def test_workers_start_once_for_the_calls_of_a_process(monkeypatch):
    started = _count_starts(monkeypatch)
    cfg = small_config()
    with panelcsd.worker_pool(2):
        first = run_mc(cfg, workers=2)
        second = run_mc(replace(cfg, master_seed=6), workers=2)
    assert len(started) == 2
    assert first.to_json() == run_mc(cfg, workers=2).to_json()
    assert first.to_json() != second.to_json()
    assert len(started) == 2
    assert [w.pid for w in montecarlo._WORKERS] == started


_VERSIONED = "def version():\n    return {version!r}\n"


def _versions(module) -> list:
    with montecarlo._pool(2) as pool:
        return [task.result() for task in [pool.submit(module.version)
                                           for _ in range(2)]]


def test_workers_run_the_code_of_a_reloaded_module(tmp_path, monkeypatch):
    # Workers keep the modules they imported. Once this process reloads
    # one, the next scope replaces them, and the new ones run the new code.
    monkeypatch.syspath_prepend(tmp_path)
    source = tmp_path / "versioned.py"
    source.write_text(_VERSIONED.format(version="first"))
    import versioned
    monkeypatch.setitem(sys.modules, "versioned", versioned)
    assert _versions(versioned) == ["first"] * 2
    source.write_text(_VERSIONED.format(version="second, edited"))
    importlib.reload(versioned)
    assert _versions(versioned) == ["second, edited"] * 2


def test_workers_follow_a_changed_sys_path(tmp_path, monkeypatch):
    # workers already up when a directory joins sys.path are replaced
    with montecarlo._pool(2) as pool:
        pool.submit(os.getpid).result()
    monkeypatch.syspath_prepend(tmp_path)
    (tmp_path / "late.py").write_text(_VERSIONED.format(version="late"))
    import late
    monkeypatch.setitem(sys.modules, "late", late)
    assert _versions(late) == ["late"] * 2


def test_workers_without_fork_are_interpreters_of_their_own(monkeypatch):
    # where a process cannot fork, each worker is started as a new one
    cfg = small_config()
    want = run_mc(cfg, workers=2).to_json()
    montecarlo._end_workers()
    monkeypatch.setattr(montecarlo, "_FORKS", False)
    try:
        assert run_mc(cfg, workers=2).to_json() == want
        workers = list(montecarlo._WORKERS)
        assert montecarlo._SERVER is None
        assert [w.proc.pid for w in workers] == [w.pid for w in workers]
    finally:
        montecarlo._end_workers()
    assert all(w.proc.returncode is not None for w in workers)


def _cut_frame_then_interrupt(self, fn, *args):
    # the interrupt lands halfway through a task's frame
    self.stdin.write(montecarlo._HEADER.pack(1 << 20) + b"cut")
    self.stdin.flush()
    raise KeyboardInterrupt


def test_interrupt_inside_submit_keeps_its_type_and_cell(monkeypatch,
                                                         tmp_path, capsys):
    # A worker holding part of a frame cannot take another: the workers
    # are killed, and the next call starts fresh ones.
    cfg = small_config()
    undisturbed = run_mc(cfg, workers=2).to_json()
    cfg_path, out_path = tmp_path / "config.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    with monkeypatch.context() as m:
        m.setattr(montecarlo._Worker, "submit", _cut_frame_then_interrupt)
        with pytest.raises(KeyboardInterrupt) as info:
            run_mc(cfg, workers=2)
        assert info.value.__notes__ == ["in cell (n=8, t=12)"]
        assert montecarlo._WORKERS == []
        code = dispatch(["mc", "run", str(cfg_path), "--threads", "2",
                         "--out", str(out_path)])
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted in cell "
                                       "(n=8, t=12)\n")
    assert not out_path.exists()
    assert run_mc(cfg, workers=2).to_json() == undisturbed


_INTERRUPTED_SUBMIT = """
import sys
from panelcsd import montecarlo
from panelcsd.cli import dispatch

def interrupted(self, fn, *args):
    self.stdin.write(montecarlo._HEADER.pack(1 << 20) + b"cut")
    self.stdin.flush()
    raise KeyboardInterrupt

if __name__ == "__main__":
    montecarlo._Worker.submit = interrupted
    sys.exit(dispatch(["mc", "run", sys.argv[1], "--threads", "2"]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_interrupt_inside_submit_writes_one_error_line(tmp_path):
    # The workers the run started may still be starting, or hold part of a
    # frame, when the interrupt lands: nothing but the parent's one line
    # reaches file descriptor 2, however late a worker would write.
    script, config_path = tmp_path / "submit.py", tmp_path / "config.json"
    script.write_text(_INTERRUPTED_SUBMIT)
    config_path.write_text(json.dumps(small_config().to_dict()))
    code, out, err = _run_alone(tmp_path, [sys.executable, str(script),
                                           str(config_path)])
    assert code == 130
    assert err == "error: interrupted in cell (n=8, t=12)\n"


def test_threads_take_turns_with_the_workers():
    # The process's threads share its workers and their pipes: interleaved
    # frames or replies read by the wrong thread would change a report or
    # hang. More workers than cores, and a short switch interval.
    cfgs = [small_config(master_seed=seed, grid=((8, 12), (9, 12)))
            for seed in range(4)]
    want = [run_mc(cfg, workers=3).to_json() for cfg in cfgs]
    got = [None] * len(cfgs)

    def run(i):
        got[i] = run_mc(cfgs[i], workers=3).to_json()

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_workers_ignore_sigint():
    # a terminal sends Ctrl-C to the whole process group; the parent owns it
    with panelcsd.worker_pool(2) as pool:
        assert pool.submit(signal.getsignal,
                           signal.SIGINT).result() == signal.SIG_IGN


_FORK = """
import json, os, sys, time
from panelcsd import McConfig, montecarlo, run_mc

def pids():
    return [worker.pid for worker in montecarlo._WORKERS]

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        config = McConfig.from_dict(json.load(fh))
    report = run_mc(config, workers=2).to_json()
    mine = pids()
    child = os.fork()
    if child == 0 and sys.argv[2] == "idle":
        time.sleep(30)
        os._exit(0)
    if child == 0:  # starts its own workers; its exit ends only those
        same = run_mc(config, workers=2).to_json() == report
        print(json.dumps({"same": same, "workers": pids()}), flush=True)
        sys.exit(0)
    if sys.argv[2] == "run":
        os.waitpid(child, 0)
        same = run_mc(config, workers=2).to_json() == report
        print(json.dumps({"same": same, "workers": pids()}))
    print(json.dumps({"child": child, "workers": mine}), flush=True)
"""


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not os.path.isdir("/proc/self"),
                    reason="forks and reads /proc")
def test_exit_ends_the_workers_a_forked_child_holds(tmp_path):
    # A child forked after the workers started holds their input open. The
    # interpreter exits without waiting for it, and its workers end with it.
    script, config_path = tmp_path / "fork.py", tmp_path / "config.json"
    script.write_text(_FORK)
    config_path.write_text(json.dumps(small_config().to_dict()))
    out_path, err_path = tmp_path / "out.txt", tmp_path / "err.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, str(script),
                                 str(config_path), "idle"], stdout=out,
                                stderr=err, env=child_env(),
                                start_new_session=True)
    try:
        proc.wait(timeout=120)
        assert proc.returncode == 0, err_path.read_text()
        child = json.loads(out_path.read_text())["child"]
        assert group_left_after(proc.pid, 1.0) == [child]
        os.kill(child, signal.SIGKILL)
        assert group_left_after(proc.pid, 5.0) == []
    finally:
        for pid in live_group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not os.path.isdir("/proc/self"),
                    reason="forks and reads /proc")
def test_forked_child_runs_on_workers_of_its_own(tmp_path):
    # The child does not touch the parent's workers: its run starts its own
    # and gives the same report, its exit ends only those, and the parent
    # goes on with its own.
    script, config_path = tmp_path / "fork.py", tmp_path / "config.json"
    script.write_text(_FORK)
    config_path.write_text(json.dumps(small_config().to_dict()))
    code, out, err = _run_alone(tmp_path, [sys.executable, str(script),
                                           str(config_path), "run"])
    assert code == 0, err
    in_child, in_parent, before_fork = map(json.loads, out.splitlines())
    assert in_child["same"] and in_parent["same"]
    assert in_parent["workers"] == before_fork["workers"]
    assert len(set(in_child["workers"]) | set(in_parent["workers"])) == 4


_BIG_FRAMES = """
from panelcsd import CovConfig, DgpSpec, Equicorr, McConfig, run_mc

if __name__ == "__main__":
    # each chunk's design (8 x 520 x 2 doubles) and each chunk's replies
    # (800 replications of 88 bytes) are more than a pipe holds
    report = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5),
                    beta_true=(1.0, 0.5)),
        grid=((8, 520), (9, 520), (10, 520)), reps=1600,
        cov=CovConfig(method="cs"), fixed_design=True), workers=2)
    print([cell["n_fail"] for cell in report.cells])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_frames_larger_than_a_pipe_do_not_deadlock(tmp_path):
    # The next cell's chunks are written while the workers' replies to the
    # current one fill their pipes, which this process is not reading yet.
    script = tmp_path / "big.py"
    script.write_text(_BIG_FRAMES)
    code, out, err = _run_alone(tmp_path, [sys.executable, str(script)],
                                timeout=60)
    assert code == 0, err
    assert out == "[0, 0, 0]\n"
