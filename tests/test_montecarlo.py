import os

import numpy as np
import pytest

from panelcsd import TimeDependenceSpec
from panelcsd.dgp import DgpSpec, Diagonal, Equicorr, Factor, gen_panel
from panelcsd.errors import UsageError
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


def test_fixed_design_reuses_x():
    cfg = small_config(fixed_design=True, reps=200)
    report = run_mc(cfg, workers=1)
    assert report.config["fixed_design"] is True
    cell = report.cells[0]
    assert cell["n_fail"] == 0
    # estimator varies across reps even though the design is shared
    assert cell["beta_sd"][0] > 0


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
