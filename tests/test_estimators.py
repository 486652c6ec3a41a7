import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from panelcsd import (CovMatrix, DgpSpec, EstimatorKind, PanelData,
                      TimeDependenceSpec, demean, fit, gen_panel,
                      true_variance_cs, true_variance_mixed, weight_blocks)
from panelcsd.dgp import Diagonal
from panelcsd.errors import ConditionWarning, SingularGram
from panelcsd.estimators import _demean_stack, _fit_stack


def random_panel(n, t, k, seed, beta=None, mu_scale=1.0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, k))
    beta = np.ones(k) if beta is None else np.asarray(beta, dtype=float)
    mu = mu_scale * rng.standard_normal(n)
    eps = noise * rng.standard_normal((n, t))
    y = mu[:, None] + x @ beta + eps
    return PanelData(y=y, x=x), beta, mu, eps


def test_within_demean_trivials():
    y = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    x = np.ones((2, 3, 1))
    y_dm, x_dm = demean(PanelData(y=y, x=x), EstimatorKind.FIXED_EFFECT)
    assert_allclose(y_dm[0], [-1.0, 0.0, 1.0])
    assert_allclose(y_dm[1], 0.0)
    # constant-within-unit regressor is annihilated
    assert_allclose(x_dm, 0.0, atol=1e-15)


def test_within_demean_matches_projection_matrix():
    # explicit 6x6 block-diagonal projector on the by-unit stacking
    n, t = 2, 3
    rng = np.random.default_rng(11)
    y = rng.standard_normal((n, t))
    x = rng.standard_normal((n, t, 2))
    m_unit = np.eye(t) - np.full((t, t), 1.0 / t)
    m_full = np.kron(np.eye(n), m_unit)
    y_dm, x_dm = demean(PanelData(y=y, x=x), EstimatorKind.FIXED_EFFECT)
    assert_allclose(y_dm.ravel(), m_full @ y.ravel(), atol=1e-12)
    for j in range(2):
        assert_allclose(x_dm[:, :, j].ravel(), m_full @ x[:, :, j].ravel(),
                        atol=1e-12)


def test_grand_demean_trivials():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.full((2, 2, 1), 7.0)
    y_dm, x_dm = demean(PanelData(y=y, x=x), EstimatorKind.POOLED)
    assert_allclose(y_dm.ravel(), [-1.5, -0.5, 0.5, 1.5])
    assert_allclose(x_dm, 0.0, atol=1e-15)


def test_grand_demean_matches_projection_matrix():
    n, t = 2, 3
    rng = np.random.default_rng(12)
    y = rng.standard_normal((n, t))
    x = rng.standard_normal((n, t, 1))
    m_bar = np.eye(n * t) - np.full((n * t, n * t), 1.0 / (n * t))
    y_dm, x_dm = demean(PanelData(y=y, x=x), EstimatorKind.POOLED)
    assert_allclose(y_dm.ravel(), m_bar @ y.ravel(), atol=1e-12)
    assert_allclose(x_dm[:, :, 0].ravel(), m_bar @ x[:, :, 0].ravel(),
                    atol=1e-12)


def test_fit_noiseless_recovers_beta_exactly():
    panel, beta, mu, _ = random_panel(4, 6, 2, seed=5, beta=[2.0, -1.0],
                                      noise=0.0)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    assert_allclose(res.beta_hat, [2.0, -1.0], atol=1e-10)
    assert_allclose(res.intercepts, mu, atol=1e-9)
    assert_allclose(res.residuals, 0.0, atol=1e-9)


def test_fit_matches_dummy_variable_ols():
    n, t, k = 3, 4, 2
    panel, _, _, _ = random_panel(n, t, k, seed=42)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    # explicit least squares on [X, unit dummies]
    x_flat = panel.x.reshape(n * t, k)
    dummies = np.kron(np.eye(n), np.ones((t, 1)))
    design = np.hstack([x_flat, dummies])
    coef, *_ = np.linalg.lstsq(design, panel.y.ravel(), rcond=None)
    assert_allclose(res.beta_hat, coef[:k], atol=1e-9)
    assert_allclose(res.intercepts, coef[k:], atol=1e-9)


def test_pooled_matches_intercept_ols():
    n, t, k = 3, 5, 2
    panel, _, _, _ = random_panel(n, t, k, seed=43)
    res = fit(panel, EstimatorKind.POOLED)
    design = np.hstack([panel.x.reshape(n * t, k), np.ones((n * t, 1))])
    coef, *_ = np.linalg.lstsq(design, panel.y.ravel(), rcond=None)
    assert_allclose(res.beta_hat, coef[:k], atol=1e-9)
    assert_allclose(res.intercepts, np.full(n, coef[k]), atol=1e-9)


def test_time_invariant_regressor_rejected():
    rng = np.random.default_rng(9)
    n, t = 4, 5
    x = np.repeat(rng.standard_normal((n, 1, 1)), t, axis=1)
    y = rng.standard_normal((n, t))
    panel = PanelData(y=y, x=x)
    fe = EstimatorKind.FIXED_EFFECT
    with pytest.raises(SingularGram):
        fit(panel, fe)
    # the exact variance targets run the same check on the same design
    with pytest.raises(SingularGram):
        true_variance_cs(panel, fe, CovMatrix(np.eye(n)))
    with pytest.raises(SingularGram):
        true_variance_mixed(panel, fe, TimeDependenceSpec.idio_ma((1.0, 0.5)),
                            sigma=CovMatrix(np.eye(n)))


def test_collinear_regressors_reported_rank_deficient():
    # an exactly collinear pair leaves a Gram eigenvalue at roundoff level,
    # which is named as rank deficiency, not as a huge condition number
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 6, 1))
        panel = PanelData(y=rng.standard_normal((5, 6)),
                          x=np.concatenate([a, 3.0 * a], axis=2))
        with pytest.raises(SingularGram, match="rank deficient"):
            fit(panel, EstimatorKind.FIXED_EFFECT)


@pytest.mark.parametrize("seed", range(6))
def test_true_variance_rejects_more_regressors_than_within_rows(seed):
    # five regressors on a 2 x 2 panel leave two within-unit rows: the
    # exact variance raises like the fit instead of returning garbage
    panel, truth = gen_panel(DgpSpec(Diagonal(), beta_true=(1.0,) * 5),
                             2, 2, seed)
    with pytest.raises(SingularGram):
        fit(panel, EstimatorKind.FIXED_EFFECT)
    with pytest.raises(SingularGram):
        true_variance_cs(panel, EstimatorKind.FIXED_EFFECT,
                         CovMatrix(truth["omega"]))


def test_residual_sum_invariants():
    panel, _, _, _ = random_panel(6, 8, 2, seed=77)
    fe = fit(panel, EstimatorKind.FIXED_EFFECT)
    scale = np.abs(fe.residuals).max()
    assert_allclose(fe.residuals.sum(axis=1), 0.0, atol=1e-8 * max(scale, 1))
    pooled = fit(panel, EstimatorKind.POOLED)
    assert abs(pooled.residuals.sum()) < 1e-8 * max(scale, 1)


def test_gram_inverse_identity():
    panel, _, _, _ = random_panel(5, 7, 3, seed=21)
    for kind in EstimatorKind:
        res = fit(panel, kind)
        assert_allclose(res.gram @ res.gram_inv, np.eye(3), atol=1e-8)


def test_the_one_design_scale_is_the_frobenius_norm():
    # _demean_stack computes the scale the rank floor of every fit and exact
    # variance uses; it must be np.linalg.norm's value to the bit, for
    # C-ordered stacks and for a Fortran-ordered panel alike
    rng = np.random.default_rng(5)
    for _ in range(300):
        b, n, t, k = (int(v) for v in rng.integers(1, (6, 40, 40, 4)))
        x = rng.standard_normal((b, n, t, k)) * 10.0 ** rng.uniform(-6, 6)
        y = rng.standard_normal((b, n, t))
        for kind in EstimatorKind:
            scale = _demean_stack(y, x, kind)[4]
            assert [float(v) for v in scale] == \
                [float(np.linalg.norm(xi)) for xi in x]
        xf = np.asfortranarray(x[0])
        scale = _demean_stack(y[:1], xf[np.newaxis],
                              EstimatorKind.FIXED_EFFECT)[4]
        assert float(scale[0]) == float(np.linalg.norm(xf))


def test_stacked_fit_passes_contiguous_k_major_designs():
    # the layout every stacked stage reads, whether or not the fit drops
    # panels (here a non-finite one and a rank-deficient one), and the
    # values of each kept panel's own fit
    panels = [random_panel(4, 6, 2, seed)[0] for seed in range(4)]
    y = np.stack([p.y for p in panels])
    x = np.stack([p.x for p in panels])
    for kind in EstimatorKind:
        kept, xk, *_ = _fit_stack(y, x, kind)
        assert kept.tolist() == [0, 1, 2, 3]
        assert xk.shape == (4, 2, 4, 6) and xk.flags.c_contiguous
        for i, p in enumerate(panels):
            assert np.array_equal(xk[i], fit(p, kind).demeaned_x
                                  .transpose(2, 0, 1))
    y[1, 0, 0] = np.nan
    x[2, :, :, 1] = 0.0
    kept, xk, *_ = _fit_stack(y, x, EstimatorKind.FIXED_EFFECT)
    assert kept.tolist() == [0, 3]
    assert xk.shape == (2, 2, 4, 6) and xk.flags.c_contiguous


# Names that came with numpy 2.0: the ndarray.mT attribute, and these
# functions of the numpy and numpy.linalg namespaces.
_NUMPY_2_NAMES = re.compile(
    r"\.mT\b"
    r"|\b(np|numpy)\.(vecdot|matvec|vecmat|concat|permute_dims|unstack"
    r"|astype)\b"
    r"|\b(np|numpy)\.linalg\.(matrix_transpose|vector_norm)\b")


def test_source_has_no_matrix_transpose_attribute():
    # pyproject.toml allows numpy 1.23, so src/ uses no numpy 2.0-only name
    src = Path(__file__).resolve().parents[1] / "src" / "panelcsd"
    uses = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if _NUMPY_2_NAMES.search(line)]
    assert uses == []
    for line in ("x.mT", "np.vecdot(a, b)", "np.concat([a, b])",
                 "numpy.astype(a, float)", "np.linalg.vector_norm(a)",
                 "np.linalg.matrix_transpose(a)", "np.unstack(a)"):
        assert _NUMPY_2_NAMES.search(line), line
    for line in ("np.concatenate([a, b])", "a.astype(float)",
                 "np.linalg.norm(a)", "a.swapaxes(-1, -2)", "x.mTx"):
        assert not _NUMPY_2_NAMES.search(line), line


def test_condition_warning_flag():
    rng = np.random.default_rng(2)
    n, t = 4, 6
    base = rng.standard_normal((n, t))
    x = np.stack([base, base + 1e-5 * rng.standard_normal((n, t))], axis=2)
    y = rng.standard_normal((n, t))
    with pytest.warns(ConditionWarning):
        res = fit(PanelData(y=y, x=x), EstimatorKind.FIXED_EFFECT)
    assert res.condition_warning
    assert res.condition_number > 1e8


def test_weight_blocks_identities():
    for kind in EstimatorKind:
        panel, _, _, _ = random_panel(5, 6, 2, seed=31)
        res = fit(panel, kind)
        wb = weight_blocks(res)
        assert len(wb.blocks) == panel.n_periods
        total = sum(b @ res.demeaned_x[:, s, :]
                    for s, b in enumerate(wb.blocks))
        assert_allclose(total, np.eye(2), atol=1e-8)
        recon = sum(b @ res.demeaned_y[:, s]
                    for s, b in enumerate(wb.blocks))
        assert_allclose(recon, res.beta_hat, atol=1e-10)


def test_weight_blocks_scalar_formula():
    panel, _, _, _ = random_panel(2, 3, 1, seed=8)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    wb = weight_blocks(res)
    x_dm = res.demeaned_x[:, :, 0]
    denom = (x_dm ** 2).sum()
    for s, b in enumerate(wb.blocks):
        assert_allclose(b[0], x_dm[:, s] / denom, atol=1e-12)


def test_weight_blocks_error_reconstruction():
    # deviation of the estimate equals the blocks applied to raw errors
    panel, beta, _, eps = random_panel(5, 9, 2, seed=55)
    res = fit(panel, EstimatorKind.FIXED_EFFECT)
    wb = weight_blocks(res)
    dev = sum(b @ eps[:, s] for s, b in enumerate(wb.blocks))
    assert_allclose(res.beta_hat - beta, dev, atol=1e-10)


def test_weight_block_magnitude_band():
    # mean over t of tr(b_t b_t') * N * T^2 stays in a fixed band as N,T grow
    values = []
    for n, t, seed in [(10, 20, 1), (20, 40, 2), (40, 80, 3)]:
        panel, _, _, _ = random_panel(n, t, 1, seed=seed)
        res = fit(panel, EstimatorKind.FIXED_EFFECT)
        stacked = weight_blocks(res).stacked()
        mean_tr = np.einsum("tkn,tkn->", stacked, stacked) / t
        values.append(mean_tr * n * t ** 2)
    for v in values:
        assert 0.5 < v < 2.0


def test_gauss_markov_match():
    # MC spread of the estimator matches the classical formula under iid noise
    n, t, reps, sigma = 10, 20, 2000, 1.0
    rng = np.random.default_rng(314)
    x = rng.standard_normal((n, t, 1))
    y0 = x[:, :, 0]  # beta = 1, mu = 0, no noise yet
    res = fit(PanelData(y=y0, x=x), EstimatorKind.FIXED_EFFECT)
    stacked = weight_blocks(res).stacked()  # (t, 1, n)
    eps = rng.standard_normal((reps, n, t))
    # beta deviation per rep via the exact weight-block identity
    dev = np.einsum("tkn,rnt->rk", stacked, eps)[:, 0]
    target_sd = sigma * np.sqrt(res.gram_inv[0, 0])
    mc_sd = dev.std(ddof=1)
    assert abs(mc_sd - target_sd) / target_sd < 0.05


# --- the checked-Gram solve against an SVD least-squares reference ---------

def near_collinear_panel(n, t, k, seed, gap):
    # k random regressors; with k >= 2 and a gap, the last is the first plus
    # gap-scaled noise, which sets the Gram condition number near 4 / gap^2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, k))
    if k >= 2 and gap is not None:
        x[:, :, -1] = x[:, :, 0] + gap * rng.standard_normal((n, t))
    y = rng.standard_normal(n)[:, None] + x @ np.linspace(1.0, -1.0, k) \
        + rng.standard_normal((n, t))
    return PanelData(y=y, x=x)


def lstsq_reference(panel, kind):
    axes = 1 if kind is EstimatorKind.FIXED_EFFECT else (0, 1)
    x_dm = panel.x - panel.x.mean(axis=axes, keepdims=True)
    y_dm = panel.y - panel.y.mean(axis=axes, keepdims=True)
    n, t, k = x_dm.shape
    beta = np.linalg.lstsq(x_dm.reshape(n * t, k), y_dm.ravel(),
                           rcond=None)[0]
    return beta, x_dm, y_dm - x_dm @ beta


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fit_matches_lstsq_reference(kind, k):
    # below COND_WARN, fit solves with the checked Gram inverse and two
    # residual corrections; it must agree with an SVD solve to 1e-12
    for seed in range(5):
        panel = near_collinear_panel(7, 9, k, seed, None)
        res = fit(panel, kind)
        beta, x_dm, resid = lstsq_reference(panel, kind)
        assert_allclose(res.beta_hat, beta, rtol=1e-12,
                        atol=1e-12 * np.abs(beta).max())
        assert_allclose(res.residuals, resid, rtol=0,
                        atol=1e-12 * np.abs(resid).max())
        assert res.demeaned_x.shape == panel.x.shape
        assert_allclose(res.demeaned_x, x_dm, rtol=0, atol=1e-14)
        recon = sum(b @ res.demeaned_y[:, s]
                    for s, b in enumerate(weight_blocks(res).blocks))
        assert_allclose(recon, res.beta_hat, rtol=1e-12)


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("gap", [1e-2, 3e-4])
def test_fit_near_collinear_matches_lstsq_to_its_conditioning(kind, k, gap):
    # cond(G) from about 5e4 to 6e7, still under COND_WARN: on the same
    # demeaned data both solves sit within about eps * cond(G) of the exact
    # solution (checked against 60-digit arithmetic), so that is the bound
    for seed in range(5):
        panel = near_collinear_panel(7, 9, k, seed, gap)
        res = fit(panel, kind)
        assert not res.condition_warning
        xf = np.ascontiguousarray(res.demeaned_x).reshape(-1, k)
        beta = np.linalg.lstsq(xf, res.demeaned_y.ravel(), rcond=None)[0]
        tol = np.finfo(float).eps * res.condition_number
        assert_allclose(res.beta_hat, beta, rtol=0,
                        atol=tol * np.abs(beta).max())


@pytest.mark.parametrize("k", [1, 2])
def test_fit_leaves_the_panel_unchanged(k):
    # the k-major working copy is a copy even where the transpose of a
    # k = 1 design is already contiguous
    panel = near_collinear_panel(4, 5, k, 2, None)
    x0, y0 = panel.x.copy(), panel.y.copy()
    for kind in EstimatorKind:
        fit(panel, kind)
        demean(panel, kind)
    assert np.array_equal(panel.x, x0) and np.array_equal(panel.y, y0)


def test_ill_conditioned_design_warns_and_takes_lstsq(monkeypatch):
    # cond(G) between COND_WARN and COND_FAIL: a warning, and the SVD solve
    calls = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    panel = near_collinear_panel(6, 8, 2, 4, 1e-5)
    with pytest.warns(ConditionWarning, match="exceeds 1e\\+08"):
        res = fit(panel, EstimatorKind.FIXED_EFFECT)
    assert 1e8 < res.condition_number < 1e12 and res.condition_warning
    assert len(calls) == 1
    xf = np.ascontiguousarray(res.demeaned_x).reshape(-1, 2)
    beta = real(xf, res.demeaned_y.ravel(), rcond=None)[0]
    assert_allclose(res.beta_hat, beta, rtol=1e-12)
    # a well-conditioned design does not call it
    fit(near_collinear_panel(6, 8, 2, 4, None), EstimatorKind.FIXED_EFFECT)
    assert len(calls) == 1


def test_singular_designs_raise_the_same_messages():
    rng = np.random.default_rng(9)
    x = np.repeat(rng.standard_normal((4, 1, 1)), 5, axis=1)
    with pytest.raises(SingularGram) as err:
        fit(PanelData(y=rng.standard_normal((4, 5)), x=x))
    assert str(err.value) == ("demeaned design is rank deficient; "
                              "a regressor may be constant after demeaning")
    with pytest.raises(SingularGram) as err:
        fit(near_collinear_panel(6, 8, 2, 4, 1e-6))
    assert re.fullmatch(r"demeaned design condition number \d\.\d{3}e\+12 "
                        r">= 1e\+12", str(err.value))


def test_fit_results_compare_by_value_and_return_a_bool():
    rng = np.random.default_rng(3)
    panel = PanelData(y=rng.standard_normal((4, 5)),
                      x=rng.standard_normal((4, 5, 2)))
    res = fit(panel)
    again = fit(PanelData(y=panel.y.copy(), x=panel.x.copy()))
    assert (res == again) is True
    assert (res == fit(panel, EstimatorKind.POOLED)) is False
    assert (res == fit(PanelData(y=panel.y + 1.0, x=panel.x))) is False
    shorter = fit(PanelData(y=panel.y[:, :4], x=panel.x[:, :4]))
    assert (res == shorter) is False
