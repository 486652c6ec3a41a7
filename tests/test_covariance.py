import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from panelcsd import (CovMatrix, CovMethod, EstimatorKind, FitResult,
                      LinearRestriction, PanelData, TimeDependenceSpec,
                      cov_cross_section, cov_kernel, cov_plugin, fit,
                      kernel_weight, omega_hat,
                      true_variance_cs, true_variance_mixed, wald,
                      weight_blocks)
from panelcsd.config import auto_truncation, declared_lag
from panelcsd.errors import (SingularCov, SingularRestrictedCov,
                             SpecMismatch, TruncTooLarge, UsageError)
from panelcsd.covariance import _robust_stack, _sandwich, _weighted_leads
from panelcsd.dgp import (_AR_BLOCK, Arrowhead, Block, DgpSpec, Diagonal,
                          Equicorr, Factor, ScaledEquicorr, _Structured,
                          gen_panel)
from panelcsd.estimators import _fit_stack


def random_panel(n, t, k, seed, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, k))
    beta = np.ones(k)
    y = rng.standard_normal(n)[:, None] + x @ beta \
        + noise * rng.standard_normal((n, t))
    return PanelData(y=y, x=x)


def scalar_fit(x_vals, resid):
    # hand-built single-unit scalar fit for dimension-collapse checks
    x = np.asarray(x_vals, float).reshape(1, -1, 1)
    e = np.asarray(resid, float).reshape(1, -1)
    gram = np.array([[float((x ** 2).sum())]])
    return FitResult(
        kind=EstimatorKind.FIXED_EFFECT, beta_hat=np.zeros(1), gram=gram,
        gram_inv=np.linalg.inv(gram), residuals=e, demeaned_y=e,
        demeaned_x=x, intercepts=np.zeros(1), condition_number=1.0,
        condition_warning=False)


def test_omega_hat_trivials():
    v = np.array([1.0, -2.0, 0.5])
    e = np.tile(v[:, None], (1, 4))
    assert_allclose(omega_hat(e).values, np.outer(v, v), atol=1e-12)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    e = np.sqrt(4.0) * q
    assert_allclose(omega_hat(e).values, np.eye(4), atol=1e-10)


def test_omega_hat_consistency():
    n, t = 5, 5000
    omega = np.full((n, n), 0.5) + 0.5 * np.eye(n)
    rng = np.random.default_rng(60)
    chol = np.linalg.cholesky(omega)
    e = chol @ rng.standard_normal((n, t))
    got = omega_hat(e).values
    rel = np.linalg.norm(got - omega) / np.linalg.norm(omega)
    assert rel < 0.05


def test_omega_hat_rank_metadata():
    e = np.random.default_rng(1).standard_normal((6, 3))
    om = omega_hat(e)
    assert om.meta.get("rank_deficient") is True


def test_cov_cross_section_zero_residuals():
    res = scalar_fit([1.0, -1.0, 2.0], [0.0, 0.0, 0.0])
    rc = cov_cross_section(res)
    assert rc.method is CovMethod.CROSS_SECTION
    assert_allclose(rc.matrix, 0.0, atol=1e-15)
    # the singular estimate is refused where it is inverted
    with pytest.raises(SingularRestrictedCov):
        wald(res.beta_hat, rc, LinearRestriction(np.eye(1), np.zeros(1)))


def test_cov_cross_section_scalar_collapse():
    x = np.array([1.0, -2.0, 0.5, 3.0])
    e = np.array([0.3, -0.1, 0.7, 0.2])
    res = scalar_fit(x, e)
    rc = cov_cross_section(res)
    b = x / (x ** 2).sum()
    assert_allclose(rc.matrix[0, 0], (b ** 2 * e ** 2).sum(), atol=1e-14)


def test_cov_cross_section_dense_oracle():
    panel = random_panel(4, 6, 2, seed=13)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    rc = cov_cross_section(res)
    meat = np.zeros((2, 2))
    for s in range(6):
        xs = res.demeaned_x[:, s, :]
        es = res.residuals[:, s]
        meat += xs.T @ np.outer(es, es) @ xs
    oracle = res.gram_inv @ meat @ res.gram_inv
    assert_allclose(rc.matrix, oracle, atol=1e-12)
    assert_allclose(rc.matrix, rc.matrix.T, atol=0)
    evals = np.linalg.eigvalsh(rc.matrix)
    assert evals.min() >= -1e-10 * rc.matrix.trace()


def test_kernel_weight_closed_forms():
    assert kernel_weight("bartlett", 1, 3) == pytest.approx(0.75)
    assert kernel_weight("bartlett", 4, 3) == 0.0
    assert kernel_weight("uniform", 3, 3) == 1.0
    assert kernel_weight("uniform", 4, 3) == 0.0
    assert kernel_weight("parzen", 1, 3) == pytest.approx(0.71875)
    assert kernel_weight("parzen", 3, 3) == pytest.approx(0.03125)
    with pytest.raises(ValueError):
        kernel_weight("gauss", 1, 3)


def test_cov_kernel_trunc_zero_matches_cross_section():
    panel = random_panel(3, 8, 2, seed=14)
    res = fit(panel)
    rc0 = cov_kernel(res, trunc=0)
    rcs = cov_cross_section(res)
    assert_allclose(rc0.matrix, rcs.matrix, atol=1e-14)
    assert rc0.trunc_lag == 0


def test_cov_kernel_lag_one_dense_oracle():
    panel = random_panel(2, 4, 1, seed=15)
    res = fit(panel)
    wb = weight_blocks(res)
    rc = cov_kernel(res, kernel="bartlett", trunc=1)
    v0 = sum(np.outer(b @ res.residuals[:, s], b @ res.residuals[:, s])
             for s, b in enumerate(wb.blocks))
    a1 = sum(np.outer(wb.blocks[s] @ res.residuals[:, s],
                      wb.blocks[s - 1] @ res.residuals[:, s - 1])
             for s in range(1, 4))
    oracle = v0 + 0.5 * (a1 + a1.T)  # bartlett weight 1 - 1/2
    evals, evecs = np.linalg.eigh(0.5 * (oracle + oracle.T))
    oracle_psd = (evecs * np.clip(evals, 0, None)) @ evecs.T
    assert_allclose(rc.matrix, oracle_psd, atol=1e-12)


def test_cov_kernel_iid_lags_vanish():
    # with serially independent errors the lag terms estimate zeros
    reps, t = 50, 2000
    acc0 = np.zeros((1, 1))
    acc3 = np.zeros((1, 1))
    for r in range(reps):
        panel = random_panel(4, t, 1, seed=1000 + r)
        res = fit(panel)
        acc0 += cov_kernel(res, trunc=0).matrix
        acc3 += cov_kernel(res, trunc=3).matrix
    rel = abs(acc3[0, 0] - acc0[0, 0]) / acc0[0, 0]
    assert rel < 0.05


def test_cov_kernel_trunc_validation():
    panel = random_panel(3, 5, 1, seed=16)
    res = fit(panel)
    with pytest.raises(TruncTooLarge):
        cov_kernel(res, trunc=5)
    rc = cov_kernel(res, trunc=4)
    assert rc.trunc_lag == 4


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(list(EstimatorKind)),
       st.sampled_from(["bartlett", "uniform", "parzen"]),
       st.integers(2, 8), st.integers(3, 12), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_kernel_at_truncation_zero_is_the_zero_lag_covariance(
        kind, kernel, n, t, k, seed):
    res = fit(random_panel(n, t, k, seed), kind)
    assert np.array_equal(cov_kernel(res, kernel=kernel, trunc=0).matrix,
                          cov_cross_section(res).matrix)


@pytest.mark.parametrize("trunc", [0, 2, "auto"])
def test_cov_kernel_rejects_unknown_kernel_at_every_truncation(trunc):
    res = fit(random_panel(3, 8, 1, seed=2))
    with pytest.raises(ValueError, match="unknown kernel"):
        cov_kernel(res, kernel="gauss", trunc=trunc)


_OMEGA = CovMatrix(0.5 * np.eye(5) + 0.5)
_PUBLIC_COVS = [
    ("cs", {}, cov_cross_section),
    *[("kernel", {"kernel": kernel, "trunc": trunc},
       lambda res, kernel=kernel, trunc=trunc: cov_kernel(
           res, kernel=kernel, trunc=trunc))
      for kernel in ("bartlett", "uniform", "parzen")
      for trunc in (0, 2, "auto")],
    ("plugin", {}, cov_plugin),
    ("plugin", {"omega": _OMEGA.values}, lambda res: cov_plugin(res, _OMEGA)),
]


@pytest.mark.parametrize("method, options, public", _PUBLIC_COVS)
def test_public_covariances_are_the_stacked_routine_on_one_fit(
        method, options, public):
    # the same matrix bytes and metadata as _robust_stack on a block of one,
    # and as that fit's slice of a block of several
    panels = [random_panel(5, 9, 2, seed) for seed in (21, 22, 23)]
    results = [fit(p) for p in panels]

    def block(fits):  # k-major designs, as the Monte Carlo fit returns them
        return (np.stack([r.demeaned_x.transpose(2, 0, 1) for r in fits]),
                np.stack([r.residuals for r in fits]),
                np.stack([r.gram_inv for r in fits]))

    stacked = _robust_stack(EstimatorKind.FIXED_EFFECT, *block(results),
                            method, **options)
    # and as the stacked fit's own designs, residuals and Gram inverses
    kept, *fitted, _ = _fit_stack(np.stack([p.y for p in panels]),
                                  np.stack([p.x for p in panels]),
                                  EstimatorKind.FIXED_EFFECT)
    assert kept.tolist() == [0, 1, 2]
    from_fit = _robust_stack(EstimatorKind.FIXED_EFFECT, *fitted, method,
                             **options)
    for i, res in enumerate(results):
        assert public(res).matrix.tobytes() == from_fit[0][i].tobytes()
    for i, res in enumerate(results):
        v, repaired, clipped, lag = _robust_stack(
            EstimatorKind.FIXED_EFFECT, *block([res]), method, **options)
        rc = public(res)
        assert rc.matrix.tobytes() == v[0].tobytes() == stacked[0][i].tobytes()
        assert rc.metadata() == {
            "method": method,
            "kernel": options.get("kernel"),
            "trunc_lag": lag,
            "psd_repaired": bool(repaired[0]),
            "clipped_mass": float(clipped[0]),
        }
        assert (lag, bool(repaired[0]), float(clipped[0])) == (
            stacked[3], bool(stacked[1][i]), float(stacked[2][i]))
        if method == "kernel":
            assert lag == (2 if options["trunc"] == "auto"
                           else options["trunc"])
        else:
            assert lag is None


def test_declared_dependence_grammar():
    assert declared_lag("pure-cs") == 0
    assert declared_lag("ma:0") == 0
    assert declared_lag("ma:3") == 3
    assert declared_lag("summable") is None
    assert declared_lag("unknown") is None
    for bad in ("purecs", "ma:", "ma:-1", "ma:x", "ma:1.5", "MA:1", "", None):
        with pytest.raises(UsageError):
            declared_lag(bad)
    with pytest.raises(UsageError, match="purecs"):
        auto_truncation(100, "purecs")


def test_two_period_fixed_effect_scores_give_no_covariance():
    # u_1 = u_2 and u_1 + u_2 = 0: every score covariance is exactly zero
    panel = random_panel(3, 2, 1, seed=4)
    res = fit(panel)
    for estimate in (cov_cross_section, cov_plugin,
                     lambda r: cov_kernel(r, trunc=1)):
        with pytest.raises(SingularCov, match="3"):
            estimate(res)
    # a known error covariance and the pooled estimator still give one
    assert cov_plugin(res, omega=CovMatrix(np.eye(3))).matrix[0, 0] > 0
    pooled = fit(panel, EstimatorKind.POOLED)
    assert cov_cross_section(pooled).matrix[0, 0] > 0


def test_cov_kernel_auto_truncation():
    assert auto_truncation(100) == 4
    assert auto_truncation(200) == 4
    assert auto_truncation(1000) == 6
    panel = random_panel(3, 100, 1, seed=17)
    res = fit(panel)
    assert cov_kernel(res, trunc="auto").trunc_lag == 4
    assert cov_kernel(res, trunc="auto", declared="pure-cs").trunc_lag == 0
    assert cov_kernel(res, trunc="auto", declared="ma:2").trunc_lag == 2


def test_cov_kernel_deterministic_psd_repair():
    # alternating unit scores make the uniform-kernel lag-1 sum equal
    # t - 2(t-1) < 0, which must clip to zero with recorded mass
    t = 6
    x = np.array([1.0, -1.0] * 3)
    e = t * np.array([(-1.0) ** s for s in range(t)]) * x
    res = scalar_fit(x, e)
    rc = cov_kernel(res, kernel="uniform", trunc=1)
    assert rc.psd_repaired
    assert_allclose(rc.matrix, 0.0, atol=1e-12)
    assert rc.clipped_mass == pytest.approx(t - 2.0)
    meta = rc.metadata()
    assert meta["psd_repaired"] is True
    assert meta["kernel"] == "uniform"


def test_cov_kernel_bartlett_rarely_repairs():
    repaired = 0
    for r in range(100):
        panel = random_panel(5, 120, 1, seed=2000 + r)
        res = fit(panel)
        rc = cov_kernel(res, kernel="bartlett", trunc="auto")
        repaired += int(rc.psd_repaired)
    assert repaired <= 1


def test_cov_plugin_formula():
    panel = random_panel(4, 7, 2, seed=18)
    res = fit(panel)
    rc = cov_plugin(res)
    om = omega_hat(res.residuals).values
    meat = np.zeros((2, 2))
    for s in range(7):
        xs = res.demeaned_x[:, s, :]
        meat += xs.T @ om @ xs
    assert_allclose(rc.matrix, res.gram_inv @ meat @ res.gram_inv, atol=1e-12)
    assert rc.method is CovMethod.PLUG_IN
    # an explicit omega is the known-omega exact variance, PSD-repaired
    explicit = cov_plugin(res, CovMatrix(om))
    assert explicit.matrix.tobytes() == rc.matrix.tobytes()
    with pytest.raises(ValueError, match=r"omega is 5 x 5.*4 units"):
        cov_plugin(res, CovMatrix(np.eye(5)))


def test_true_variance_cs_classical_formula():
    panel = random_panel(4, 6, 2, seed=19)
    res = fit(panel)
    sigma2 = 2.3
    tv = true_variance_cs(panel, EstimatorKind.FIXED_EFFECT,
                          CovMatrix(sigma2 * np.eye(4)))
    assert_allclose(tv, sigma2 * res.gram_inv, atol=1e-10)


def test_true_variance_cs_dense_oracle():
    n, t, k = 3, 4, 2
    panel = random_panel(n, t, k, seed=20)
    rng = np.random.default_rng(21)
    a = rng.standard_normal((n, n))
    omega = a @ a.T + np.eye(n)
    for kind in EstimatorKind:
        tv = true_variance_cs(panel, kind, CovMatrix(omega))
        # dense stacked-by-unit evaluation
        xf = panel.x.reshape(n * t, k)
        if kind is EstimatorKind.FIXED_EFFECT:
            d = np.kron(np.eye(n), np.ones((t, 1)))
        else:
            d = np.ones((n * t, 1))
        m = np.eye(n * t) - d @ np.linalg.inv(d.T @ d) @ d.T
        gamma = np.kron(omega, np.eye(t))  # by-unit stacking
        xm = m @ xf
        ginv = np.linalg.inv(xm.T @ xm)
        oracle = ginv @ (xm.T @ gamma @ xm) @ ginv
        assert_allclose(tv, oracle, atol=1e-12)


def test_true_variance_cs_mc_oracle():
    n, t, k = 4, 6, 1
    panel = random_panel(n, t, k, seed=22)
    omega = np.full((n, n), 0.5) + 0.5 * np.eye(n)
    tv = true_variance_cs(panel, EstimatorKind.FIXED_EFFECT, CovMatrix(omega))
    res = fit(panel)
    stacked = weight_blocks(res).stacked()  # (t, 1, n)
    rng = np.random.default_rng(23)
    chol = np.linalg.cholesky(omega)
    draws = 200000
    eps = np.einsum("nm,rmt->rnt", chol,
                    rng.standard_normal((draws, n, t)))
    dev = np.einsum("tkn,rnt->rk", stacked, eps)[:, 0]
    assert abs(dev.var(ddof=1) - tv[0, 0]) / tv[0, 0] < 0.02


def test_true_variance_mixed_reduces_to_cs():
    n, t = 5, 8
    panel = random_panel(n, t, 1, seed=24)
    rng = np.random.default_rng(25)
    lam = rng.standard_normal((n, 2))
    sig = np.diag(rng.uniform(0.5, 1.5, n))
    v = true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                            TimeDependenceSpec.none(),
                            loadings=lam, sigma=CovMatrix(sig))
    oracle = true_variance_cs(panel, EstimatorKind.FIXED_EFFECT,
                              CovMatrix(lam @ lam.T + sig))
    assert_allclose(v, oracle, atol=1e-12)


def dense_sandwich(panel, kind, gamma_by_time):
    # by-time-ordered dense sandwich oracle
    n, t, k = panel.x.shape
    xf = np.transpose(panel.x, (1, 0, 2)).reshape(n * t, k)
    if kind is EstimatorKind.FIXED_EFFECT:
        d = np.tile(np.eye(n), (t, 1))
    else:
        d = np.ones((n * t, 1))
    m = np.eye(n * t) - d @ np.linalg.inv(d.T @ d) @ d.T
    xm = m @ xf
    ginv = np.linalg.inv(xm.T @ xm)
    return ginv @ (xm.T @ gamma_by_time @ xm) @ ginv


def test_true_variance_mixed_factor_ma_dense_oracle():
    n, t = 3, 5
    panel = random_panel(n, t, 1, seed=26)
    rng = np.random.default_rng(27)
    lam = rng.standard_normal((n, 1))
    sig = np.diag(rng.uniform(0.5, 1.0, n))
    spec = TimeDependenceSpec.factor_ma((1.0, 1.0))
    assert spec.autocorr(1) == pytest.approx(0.5)

    v_factor = true_variance_mixed(
        panel, EstimatorKind.FIXED_EFFECT, spec, loadings=lam)
    # dense block-Toeplitz oracle: common component with lag-1 correlation
    lag1 = np.eye(t, k=1) + np.eye(t, k=-1)
    gamma_common = np.kron(np.eye(t), lam @ lam.T) \
        + 0.5 * np.kron(lag1, lam @ lam.T)
    oracle = dense_sandwich(panel, EstimatorKind.FIXED_EFFECT, gamma_common)
    assert_allclose(v_factor, oracle, atol=1e-12)

    # adding the serially independent idiosyncratic part is additive
    v_idio = true_variance_cs(panel, EstimatorKind.FIXED_EFFECT,
                              CovMatrix(sig))
    gamma_full = gamma_common + np.kron(np.eye(t), sig)
    oracle_full = dense_sandwich(panel, EstimatorKind.FIXED_EFFECT,
                                 gamma_full)
    assert_allclose(v_factor + v_idio, oracle_full, atol=1e-12)
    # passing sigma adds the idiosyncratic part at lag 0 in one call
    v_full = true_variance_mixed(
        panel, EstimatorKind.FIXED_EFFECT, spec, loadings=lam,
        sigma=CovMatrix(sig))
    assert_allclose(v_full, oracle_full, atol=1e-12)


def test_true_variance_mixed_idio_ma_dense_oracle():
    n, t = 3, 5
    panel = random_panel(n, t, 1, seed=28)
    rng = np.random.default_rng(29)
    sig = rng.standard_normal((n, n))
    sig = sig @ sig.T + np.eye(n)
    psi = (1.0, 0.6)
    spec = TimeDependenceSpec.idio_ma(psi)
    rho1 = 0.6 / (1 + 0.36)
    v = true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                            spec, sigma=CovMatrix(sig))
    lag1 = np.eye(t, k=1) + np.eye(t, k=-1)
    gamma = np.kron(np.eye(t), sig) + rho1 * np.kron(lag1, sig)
    oracle = dense_sandwich(panel, EstimatorKind.FIXED_EFFECT, gamma)
    assert_allclose(v, oracle, atol=1e-12)


@pytest.mark.parametrize("decay, t", [(0.9, 6), (0.02, 14)])
@pytest.mark.parametrize("kind", [EstimatorKind.FIXED_EFFECT,
                                  EstimatorKind.POOLED])
@pytest.mark.parametrize("channel", ["idio", "factor"])
def test_true_variance_mixed_summable_dense_oracle(channel, kind, decay, t):
    # geometric memory sums every lag up to T-1 (at decay 0.02 the last lags
    # are far below double precision relative to lag 0)
    n = 3
    panel = random_panel(n, t, 2, seed=31)
    rng = np.random.default_rng(32)
    lam = rng.standard_normal((n, 1))
    sig = rng.standard_normal((n, n))
    sig = sig @ sig.T + np.eye(n)
    lags = np.abs(np.subtract.outer(np.arange(t), np.arange(t)))
    toeplitz = decay ** lags
    if channel == "idio":
        spec = TimeDependenceSpec.idio_summable(decay)
        v = true_variance_mixed(panel, kind, spec, loadings=lam,
                                sigma=CovMatrix(sig))
        gamma = np.kron(toeplitz, sig) + np.kron(np.eye(t), lam @ lam.T)
    else:
        spec = TimeDependenceSpec.factor_summable(decay)
        v = true_variance_mixed(panel, kind, spec, loadings=lam)
        gamma = np.kron(toeplitz, lam @ lam.T)
    assert spec.max_lag(t) == t - 1
    assert_allclose(v, dense_sandwich(panel, kind, gamma), atol=1e-12)


def test_true_variance_mixed_spec_mismatch():
    panel = random_panel(3, 4, 1, seed=30)
    with pytest.raises(SpecMismatch):
        true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                            TimeDependenceSpec.idio_ma((1.0, 0.5)))
    with pytest.raises(SpecMismatch):
        true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                            TimeDependenceSpec.factor_ma((1.0, 0.5)),
                            sigma=CovMatrix(np.eye(3)))
    with pytest.raises(SpecMismatch):
        true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                            TimeDependenceSpec.none())


def test_dominant_factor_term_in_normalized_limit():
    # with a strong factor and factor-aligned regressors, dropping the
    # idiosyncratic and lag terms barely moves the normalized variance
    spec = DgpSpec(cross_section=Factor(n_factors=1, strength=1.0),
                   beta_true=(1.0,),
                   time_memory=TimeDependenceSpec.idio_ma((1.0, 0.8)),
                   x_law="factor_aligned")
    panel, truth = gen_panel(spec, n=200, t=200, seed=99)
    lam = truth["loadings"]
    sig = truth["sigma"]
    full = true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                               spec.time_memory, loadings=lam,
                               sigma=CovMatrix(sig))
    factor_only = true_variance_mixed(panel, EstimatorKind.FIXED_EFFECT,
                                      TimeDependenceSpec.none(),
                                      loadings=lam)
    rel = abs(full[0, 0] - factor_only[0, 0]) / full[0, 0]
    assert rel < 0.10


# --- the blocked backward pass of the weighted leads -----------------------

def weighted_leads_loop(x_dm, decay):
    # z_{T-1} = 0, z_s = d (x_{s+1} + z_{s+1}) as a loop over periods
    t = x_dm.shape[1]
    z = np.zeros_like(x_dm)
    for s in range(t - 2, -1, -1):
        z[:, s] = decay * (x_dm[:, s + 1] + z[:, s + 1])
    return z


@pytest.mark.parametrize("t", [_AR_BLOCK // 2 + 3, _AR_BLOCK, 2 * _AR_BLOCK,
                               2 * _AR_BLOCK + 1])
def test_blocked_weighted_leads_match_the_period_loop(t):
    spec = TimeDependenceSpec.idio_summable(0.99)
    panel = random_panel(6, t, 2, seed=t)
    res = fit(panel)
    want = weighted_leads_loop(np.ascontiguousarray(res.demeaned_x),
                               0.99).transpose(2, 0, 1)
    scale = np.abs(want).max()
    # the contiguous k-major design fit keeps, and a k-major view of a
    # plain (n, t, k) array
    for x_dm in (res.demeaned_x.transpose(2, 0, 1),
                 np.ascontiguousarray(res.demeaned_x).transpose(2, 0, 1)):
        got = _weighted_leads(x_dm, spec)
        assert got.shape == x_dm.shape
        assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


# --- the sandwich of a covariance in the structured form --------------------

@pytest.mark.parametrize("family", [
    Diagonal(scale=2.0), Equicorr(a=1.0, b=0.5), Equicorr(a=1.0, b=1.0),
    ScaledEquicorr(a=2.0), Arrowhead(c=1.5), Block(n_blocks=3, b=0.4),
    Factor(n_factors=2, strength=0.7)], ids=lambda f: f.name)
@pytest.mark.parametrize("n, t", [(4, 3), (30, 20)])
def test_structured_sandwich_matches_the_dense_one(family, n, t):
    form = family._low_rank(n)
    dense = _Structured(family.build(n))
    rng = np.random.default_rng(n)
    ak = rng.standard_normal((3, 2, n, t))
    bk = rng.standard_normal((3, 2, n, t))
    for b in (bk, ak):  # a second design, and the design itself
        got = _sandwich(ak, form, b)
        want = _sandwich(ak, dense, b)
        assert got.shape == want.shape == (3, 2, 2)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # each design alone gets the bits it gets in the stack
        for i in range(3):
            alone = _sandwich(ak[i], form, b[i])
            assert alone.tobytes() == got[i].tobytes()


def test_dense_base_with_a_low_rank_part_matches_their_sum():
    # a dense sigma plus loadings, as true_variance_mixed passes them
    n, t = 6, 5
    rng = np.random.default_rng(8)
    sig = rng.standard_normal((n, n))
    sig = sig @ sig.T
    lam = rng.standard_normal((n, 2))
    ak = rng.standard_normal((2, n, t))
    got = _sandwich(ak, _Structured(sig, lam, np.eye(2)), ak)
    want = _sandwich(ak, _Structured(sig + lam @ lam.T), ak)
    assert_allclose(got, want, rtol=1e-13, atol=0)
    # a stack of dense bases, one per design, as the plug-in passes them
    stack = np.stack([sig, 2.0 * sig])
    got = _sandwich(np.stack([ak, ak]), _Structured(stack),
                    np.stack([ak, ak]))
    assert_allclose(got[1], 2.0 * got[0], rtol=1e-14, atol=0)
