"""End-to-end acceptance gate.

Each test exercises one headline capability at its contractual tolerance
and runtime budget and prints one PASS/FAIL line; the lines are echoed in
the terminal summary by conftest.py.
"""

import time

import numpy as np
import pytest

import conftest
from panelcsd import (CovMatrix, EstimatorKind, PanelData, Regime,
                      TimeDependenceSpec, classify, cov_cross_section,
                      cov_kernel, factor_decompose, fit,
                      fourth_moment_lower_bound, true_variance_mixed,
                      weight_blocks)
from panelcsd.config import PSD_REPAIR_REL
from panelcsd.dgp import (EXAMPLE_PRESETS, DgpSpec, Diagonal, Equicorr,
                          Factor, build_omega, gen_panel)
from panelcsd.montecarlo import (CovConfig, McConfig, run_mc,
                                 t1_cross_section_experiment)


def _report(num, ok, elapsed, detail, budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.1f}s) {detail}"
    conftest.criteria_lines.append(line)
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: over {budget}s budget"


def _random_small_panel(rng):
    n = int(rng.integers(2, 6))
    t = int(rng.integers(3, 9))
    k = int(rng.integers(1, 4))
    x = rng.standard_normal((n, t, k))
    beta = rng.standard_normal(k)
    y = rng.uniform(-1, 1, n)[:, None] + x @ beta \
        + rng.standard_normal((n, t))
    return PanelData(y=y, x=x)


def _dense_beta_oracle(panel, kind):
    n, t, k = panel.x.shape
    xf = panel.x.reshape(n * t, k)
    if kind is EstimatorKind.FIXED_EFFECT:
        d = np.kron(np.eye(n), np.ones((t, 1)))
    else:
        d = np.ones((n * t, 1))
    coef, *_ = np.linalg.lstsq(np.hstack([xf, d]), panel.y.ravel(),
                               rcond=None)
    return coef[:k]


def _dense_vbar_oracle(res, trunc):
    wb = weight_blocks(res)
    t = res.n_periods
    scores = [wb.blocks[s] @ res.residuals[:, s] for s in range(t)]
    v = sum(np.outer(s, s) for s in scores)
    for j in range(1, trunc + 1):
        w = 1.0 - j / (trunc + 1.0)
        a = sum(np.outer(scores[s], scores[s - j]) for s in range(j, t))
        v = v + w * (a + a.T)
    v = 0.5 * (v + v.T)
    evals, evecs = np.linalg.eigh(v)
    if evals[0] >= -PSD_REPAIR_REL * max(float(evals[-1]), 0.0):
        return v
    r = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    return 0.5 * (r + r.T)


def test_criterion_1_small_panel_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(20260819)
    worst_beta, worst_v = 0.0, 0.0
    for _ in range(60):
        panel = _random_small_panel(rng)
        for kind in EstimatorKind:
            res = fit(panel, kind)
            gap = np.abs(res.beta_hat - _dense_beta_oracle(panel, kind)).max()
            worst_beta = max(worst_beta, gap)
            for trunc in (0, 1):
                got = cov_kernel(res, kernel="bartlett", trunc=trunc).matrix
                oracle = _dense_vbar_oracle(res, trunc)
                worst_v = max(worst_v, np.abs(got - oracle).max())
        got_cs = cov_cross_section(res).matrix
        worst_v = max(worst_v, np.abs(got_cs - _dense_vbar_oracle(res, 0)).max())
    elapsed = time.monotonic() - start
    ok = worst_beta < 1e-9 and worst_v < 1e-12
    _report(1, ok, elapsed,
            f"60 panels; max slope gap {worst_beta:.1e} (tol 1e-9), "
            f"max variance gap {worst_v:.1e} (tol 1e-12)", budget=10.0)


def test_criterion_2_norm_sandwich():
    start = time.monotonic()
    rng = np.random.default_rng(271828)
    violations = 0
    from panelcsd import norm_euclid_scaled, norm_max_eig, norm_max_row_sum
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        omega = CovMatrix(a @ a.T / n)
        lo = norm_euclid_scaled(omega)
        mid = norm_max_eig(omega)
        hi = norm_max_row_sum(omega)
        slack = 1e-10 * max(hi, 1e-12)
        if lo > mid + slack or mid > hi + slack:
            violations += 1
    elapsed = time.monotonic() - start
    _report(2, violations == 0, elapsed,
            f"1000 random PSD matrices, {violations} violations "
            "(slack 1e-10)", budget=30.0)


def test_criterion_3_factor_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        omega = CovMatrix(a @ a.T / n)
        split = factor_decompose(omega, n_factors="auto")
        recon = split.loadings @ split.loadings.T + split.idio_cov.values
        worst = max(worst, np.linalg.norm(recon - omega.values)
                    / np.linalg.norm(omega.values))
    for family in EXAMPLE_PRESETS.values():
        for n in (25, 50, 100, 200):
            omega = build_omega(family, n)
            split = factor_decompose(omega, n_factors="auto")
            recon = split.loadings @ split.loadings.T + split.idio_cov.values
            worst = max(worst, np.linalg.norm(recon - omega.values)
                        / np.linalg.norm(omega.values))
    elapsed = time.monotonic() - start
    _report(3, worst <= 1e-8, elapsed,
            f"200 random + 14 families at n<=200; worst relative "
            f"reconstruction {worst:.1e} (tol 1e-8)", budget=60.0)


def test_criterion_4_family_classification():
    start = time.monotonic()
    grid = [25, 50, 100, 200, 400, 800]
    expected_headline = {
        **{f"example{i}": Regime.WEAK for i in range(1, 6)},
        **{f"example{i}": Regime.MODERATE for i in (6, 7, 8, 14)},
        **{f"example{i}": Regime.STRONG for i in (9, 10, 11, 13)},
    }
    mistakes = []
    profiles = {}
    for name, want in expected_headline.items():
        family = EXAMPLE_PRESETS[name]
        profile = classify(lambda n, f=family: build_omega(f, n), grid)
        profiles[name] = profile
        if profile.regime is not want:
            mistakes.append(f"{name}: {profile.regime.value}")
    if profiles["example13"].regime_per_norm["euclid_scaled"] \
            is not Regime.MODERATE:
        mistakes.append("example13 euclid label")
    if profiles["example14"].regime_per_norm["euclid_scaled"] \
            is not Regime.WEAK:
        mistakes.append("example14 euclid label")
    elapsed = time.monotonic() - start
    _report(4, not mistakes, elapsed,
            "13 families on n in {25..800}; "
            + ("all labels as expected" if not mistakes
               else "wrong: " + ", ".join(mistakes)), budget=120.0)


def test_criterion_5_rate_reproduction():
    start = time.monotonic()
    strong = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0,)),
        grid=((50, 50), (50, 100), (50, 200), (50, 400)),
        reps=2000, cov=CovConfig(method="cs"), master_seed=101,
        rate_axis="T", true_variance=False), workers=2)
    weak = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Diagonal(scale=1.0), beta_true=(1.0,)),
        grid=((25, 50), (35, 100), (50, 200), (71, 400)),
        reps=2000, cov=CovConfig(method="cs"), master_seed=102,
        rate_axis="NT", true_variance=False), workers=2)
    s_slope = strong.rate["slope"]
    w_slope = weak.rate["slope"]
    t1 = t1_cross_section_experiment(reps=2000)
    t1c = t1_cross_section_experiment(reps=2000, centered=True)
    ok = (abs(s_slope + 0.5) <= 0.1 and abs(w_slope + 0.5) <= 0.1
          and t1["ratio"] > 0.5 and t1c["ratio"] < 0.5)
    elapsed = time.monotonic() - start
    _report(5, ok, elapsed,
            f"strong slope vs T {s_slope:.3f}, weak slope vs NT "
            f"{w_slope:.3f} (target -0.5 +/- 0.1); single-period rmse "
            f"ratio {t1['ratio']:.2f} (> 0.5), centered {t1c['ratio']:.2f} "
            "(< 0.5)", budget=600.0)


def test_criterion_6_wald_size():
    start = time.monotonic()
    strong = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0,)),
        grid=((50, 400),), reps=2000, cov=CovConfig(method="cs"),
        master_seed=201, true_variance=False), workers=2)
    weak = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Diagonal(scale=1.0), beta_true=(1.0,)),
        grid=((25, 400),), reps=2000, cov=CovConfig(method="cs"),
        master_seed=202, true_variance=False), workers=2)
    s_size = strong.cells[0]["size_05"]
    w_size = weak.cells[0]["size_05"]
    w_cov = weak.cells[0]["coverage_95"]
    ok = (0.035 <= s_size <= 0.065 and 0.035 <= w_size <= 0.065
          and 0.925 <= w_cov <= 0.975)
    elapsed = time.monotonic() - start
    _report(6, ok, elapsed,
            f"size at 5%: strong {s_size:.3f}, weak {w_size:.3f} "
            f"(band [0.035, 0.065]); weak coverage {w_cov:.3f} "
            "(band [0.925, 0.975])", budget=600.0)


def test_criterion_7_kernel_bias_on_short_memory():
    start = time.monotonic()
    n, t, reps = 50, 200, 2000
    spec = DgpSpec(cross_section=Factor(n_factors=1, strength=1.0),
                   beta_true=(1.0,),
                   time_memory=TimeDependenceSpec.idio_ma((1.0, 1.0)))
    design_panel, truth = gen_panel(spec, n, t,
                                    np.random.SeedSequence((7, 0)))
    design = (design_panel.x, truth["mu"])
    v_true = true_variance_mixed(
        design_panel, EstimatorKind.FIXED_EFFECT, spec.time_memory,
        loadings=truth["loadings"], sigma=CovMatrix(truth["sigma"]))[0, 0]
    vk = np.empty(reps)
    vc = np.empty(reps)
    trunc_used = None
    for r in range(reps):
        panel, _ = gen_panel(spec, n, t, np.random.SeedSequence((7, 1, r)),
                             design=design)
        res = fit(panel, EstimatorKind.FIXED_EFFECT)
        rc_k = cov_kernel(res, kernel="bartlett", trunc="auto")
        trunc_used = rc_k.trunc_lag
        vk[r] = rc_k.matrix[0, 0]
        vc[r] = cov_cross_section(res).matrix[0, 0]
    rmse_k = float(np.sqrt(np.mean((vk - v_true) ** 2))) / v_true
    rmse_c = float(np.sqrt(np.mean((vc - v_true) ** 2))) / v_true
    ok = trunc_used is not None and trunc_used > 0 and rmse_k > rmse_c
    elapsed = time.monotonic() - start
    _report(7, ok, elapsed,
            f"relative rmse around the true variance: lagged kernel "
            f"(trunc {trunc_used}) {rmse_k:.3f} > zero-lag {rmse_c:.3f}")


def test_criterion_8_fourth_moment_chain():
    start = time.monotonic()
    rng = np.random.default_rng(918273)
    chain_ok = True
    for _ in range(50):
        t = int(rng.integers(2, 200))
        n = int(rng.integers(1, 41))
        scale = rng.exponential(1.0)
        sample = scale * rng.standard_normal((t, n))
        b = fourth_moment_lower_bound(sample)
        if not (b.trace_vf >= b.sum_sq - 1e-12 * abs(b.trace_vf)
                and b.sum_sq >= b.lambda_sq - 1e-12 * abs(b.sum_sq)):
            chain_ok = False
    gaussian = fourth_moment_lower_bound(
        np.random.default_rng(314159).standard_normal((50000, 3)))
    wick_rel = abs(gaussian.trace_vf - 15.0) / 15.0
    ok = chain_ok and wick_rel < 0.02
    elapsed = time.monotonic() - start
    _report(8, ok, elapsed,
            f"chain ordering exact on 50 samples; independent-normal "
            f"fourth-moment trace within {wick_rel:.3%} of 15 (tol 2%)")


def test_criterion_9_worker_count_determinism():
    start = time.monotonic()
    cfg = {
        "dgp": {"cross_section": "equicorr:a=1,b=0.5", "beta_true": [1.0]},
        "grid": [[10, 30], [15, 45]],
        "reps": 200,
        "estimator": "fe",
        "cov": {"method": "kernel", "kernel": "bartlett", "trunc": 2},
        "master_seed": 424242,
    }
    r1 = run_mc(McConfig.from_dict(cfg), workers=1)
    r8 = run_mc(McConfig.from_dict(cfg), workers=8)
    ok = r1.to_json() == r8.to_json()
    elapsed = time.monotonic() - start
    _report(9, ok, elapsed,
            "same config and seed, 1 vs 8 workers: "
            + ("byte-identical reports" if ok else "reports differ"))
