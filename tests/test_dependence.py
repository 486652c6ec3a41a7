import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ONE_1600_SQUARE, eigensolve_orders, traced_peak
from panelcsd import (CovMatrix, Regime, all_norms, classify, factor_decompose,
                      fourth_moment_lower_bound, norm_euclid,
                      norm_euclid_scaled, norm_max_eig, norm_max_row_sum,
                      norm_taxicab_scaled, select_n_factors)
from panelcsd.cli import dispatch
from panelcsd.config import EIG_CLIP_REL
from panelcsd.dgp import EXAMPLE_PRESETS, Band, build_omega, family_from_string
from panelcsd.errors import DegenerateFamily, NotPSD


def equicorr(n, a=1.0, b=0.5):
    return CovMatrix(np.full((n, n), b) + (a - b) * np.eye(n))


def arrowhead(n, c=2.0):
    v = np.full(n, 1.0 / (c * np.sqrt(n)))
    v[0] = 0.0
    omega = np.eye(n)
    omega[0, :] += v
    omega[:, 0] += v
    return CovMatrix(omega)


def random_psd(rng, n):
    a = rng.standard_normal((n, n))
    omega = a @ a.T / n
    return CovMatrix(omega)


def loglog_slope(ns, vals):
    # independent least-squares oracle for the fitted exponent
    return np.polyfit(np.log(np.asarray(ns, float)),
                      np.log(np.asarray(vals, float)), 1)[0]


def test_cov_matrix_validation():
    bad = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        CovMatrix(bad)
    with pytest.raises(NotPSD):
        CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])).eigenvalues
    with pytest.raises(ValueError):
        CovMatrix(np.ones((2, 3)))


def test_cov_matrix_without_positive_eigenvalue_is_psd_only_at_zero():
    # no positive eigenvalue is no excuse to skip the PSD check
    for values in (-np.eye(3), np.diag([0.0, 0.0, -1.0])):
        with pytest.raises(NotPSD):
            CovMatrix(values).eigenvalues
        with pytest.raises(NotPSD):
            CovMatrix(values).sqrt()
    assert_allclose(CovMatrix(np.zeros((3, 3))).eigenvalues, 0.0)


def test_cov_matrix_eigensystem():
    omega = equicorr(4)
    assert_allclose(np.sort(omega.eigenvalues), omega.eigenvalues)
    assert_allclose(omega.eigenvalues, [0.5, 0.5, 0.5, 2.5], atol=1e-12)
    p = omega.eigenvectors
    assert_allclose(p.T @ p, np.eye(4), atol=1e-8)
    recon = p @ np.diag(omega.eigenvalues) @ p.T
    assert_allclose(recon, omega.values, atol=1e-8)


@pytest.mark.parametrize("n", [50, 200])
def test_eigenvalues_only_solve_matches_the_eigensystem(n):
    assert len(EXAMPLE_PRESETS) == 14
    for name, family in EXAMPLE_PRESETS.items():
        cov = build_omega(family, n)
        full = cov._eigensystem()[0]
        gap = np.abs(cov.eigenvalues - full).max()
        assert gap <= 1e-12 * full[-1], (name, gap)


def test_sqrt_is_the_symmetric_root_of_the_full_eigensolve():
    for values in (build_omega(family_from_string("example7"), 60).values,
                   np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])):
        cov = CovMatrix(values)
        cov.eigenvalues  # fills the eigenvalue cache first
        w, v = np.linalg.eigh(cov.values)
        w = np.where(np.abs(w) <= EIG_CLIP_REL * w[-1], 0.0, w)
        want = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        assert cov.sqrt().tobytes() == want.tobytes()


def test_not_psd_message_of_a_wide_flat_band():
    with pytest.raises(NotPSD) as err:
        build_omega(Band(width=40, b=0.5), 100)
    assert str(err.value) == (
        "family 'band' at n=100 is not positive semidefinite: minimum "
        "eigenvalue -4.833e+00 below -1e-08 * lambda_max")


def _top(cov):
    return np.linalg.eigvalsh(cov.values)[-1]


@pytest.mark.parametrize("n", [50, 200, 400])
def test_lambda_max_matches_eigvalsh_on_every_preset(n):
    for name, family in EXAMPLE_PRESETS.items():
        cov = build_omega(family, n)
        gap = abs(cov.lambda_max - _top(cov))
        assert gap <= 1e-12 * _top(cov), (name, gap)


def test_lambda_max_of_the_factor_preset_at_1600_needs_no_eigensolve(
        monkeypatch):
    tops = []
    with monkeypatch.context() as patch:
        orders = eigensolve_orders(patch)
        peak = traced_peak(lambda: tops.append(
            build_omega(family_from_string("example11"), 1600).lambda_max))
    assert max(orders) == 2 and peak < ONE_1600_SQUARE
    want = _top(build_omega(family_from_string("example11"), 1600))
    assert abs(tops[0] - want) <= 1e-12 * want


def test_eigenvalues_of_a_form_backed_preset_at_1600_need_no_n_by_n_array(
        monkeypatch):
    # the exact spectrum of the form: no n x n array, no n x n eigensolve
    names = [name for name, family in EXAMPLE_PRESETS.items()
             if family._low_rank(1600) is not None]
    assert names == ["example1", "example3", "example8", "example9",
                     "example10", "example11", "example12", "example13",
                     "example14"]
    orders = eigensolve_orders(monkeypatch)
    for name in names:
        spectra = []

        def spectrum():
            cov = build_omega(EXAMPLE_PRESETS[name], 1600)
            spectra.append((cov.eigenvalues, cov.lambda_max))

        assert traced_peak(spectrum) < ONE_1600_SQUARE, name
        evals, top = spectra[0]
        assert evals.shape == (1600,) and np.all(np.diff(evals) >= 0), name
        assert evals[-1] == top and evals[0] >= 0.0, name
    assert max(orders) < 1600


def test_lambda_max_of_a_top_eigenvector_hidden_from_a_fixed_start():
    # 10 v v' + 5 w w' + I with v orthogonal to the vector sin(j^2) and w
    # a unit vector orthogonal to v that overlaps it: an iteration from
    # that start never sees v and would report 6, not 11
    n = 400
    start = np.sin(np.arange(1.0, n + 1.0) ** 2)
    start /= np.linalg.norm(start)
    v = np.random.default_rng(0).standard_normal(n)
    v -= (v @ start) * start
    v /= np.linalg.norm(v)
    w = start + np.cos(np.arange(n))
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    a = 10.0 * np.outer(v, v) + 5.0 * np.outer(w, w) + np.eye(n)
    want = np.linalg.eigvalsh(a)[-1]
    assert abs(want - 11.0) <= 1e-12 * 11.0
    assert abs(CovMatrix(a).lambda_max - want) <= 1e-12 * want


@pytest.mark.parametrize("first", [CovMatrix.sqrt,
                                   lambda cov: cov.eigenvectors],
                         ids=["sqrt", "eigenvectors"])
def test_a_dense_solve_first_leaves_a_form_its_exact_spectrum(first):
    # the dense eigh behind the root or the eigenvectors does not stand in
    # for the form's spectrum, whichever is read first
    n = 60
    form = EXAMPLE_PRESETS["example11"]._low_rank(n)
    cov = CovMatrix._of_form(form, n)
    first(cov)
    want = CovMatrix._of_form(form, n).eigenvalues
    assert cov.eigenvalues.tobytes() == want.tobytes()
    assert cov.lambda_max == want[-1]


@pytest.mark.parametrize("n", [50, 1600])
def test_the_p_zero_decay_preset_is_the_equicorrelation_form(n, monkeypatch):
    # both held as the same form, whose 1 x 1 core gives the exact spectrum
    orders = eigensolve_orders(monkeypatch)
    covs = []
    peak = traced_peak(lambda: covs.extend(
        build_omega(family_from_string(name), n)
        for name in ("example9", "example13")))
    decay, equi = covs
    for a, b in zip(decay._form, equi._form):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    want = 1.0 + (n - 1) / 2.0
    for cov in covs:
        assert abs(cov.lambda_max - want) <= 1e-12 * want
    assert orders == [1, 1] and peak < n * n * 8


@pytest.mark.parametrize("values", [Band(width=40, b=0.5).build(100),
                                    -np.eye(3), np.diag([0.0, 0.0, -1.0])],
                         ids=["wide-flat-band", "minus-identity",
                              "no-positive-eigenvalue"])
def test_lambda_max_refuses_as_the_eigenvalue_check_does(values):
    with pytest.raises(NotPSD) as via_eigenvalues:
        CovMatrix(values).eigenvalues
    with pytest.raises(NotPSD) as via_top:
        CovMatrix(values).lambda_max
    assert str(via_top.value) == str(via_eigenvalues.value)


def test_zero_and_rank_one_matrices_pass_the_check():
    assert CovMatrix(np.zeros((3, 3))).lambda_max == 0.0
    v = np.array([1.0, 2.0, 3.0])
    rank_one = CovMatrix(np.outer(v, v))
    assert_allclose(rank_one.lambda_max, 14.0, rtol=1e-12)


def test_a_clustered_top_spectrum_falls_back_to_eigvalsh():
    # a narrow band's top eigenvalues crowd together; like every dense
    # matrix, its largest eigenvalue is eigvalsh's top
    cov = build_omega(family_from_string("example2"), 400)
    assert cov._evals is not None
    assert cov.lambda_max == _top(cov)


def test_lambda_max_reads_a_cached_spectrum(monkeypatch):
    values = build_omega(family_from_string("example11"), 400).values
    cov = CovMatrix(values)
    cov.eigenvalues
    assert cov.lambda_max == cov.eigenvalues[-1]
    cov = CovMatrix(values)
    cov.sqrt()

    def no_eigvalsh(a):
        raise AssertionError("eigvalsh run despite a cached eigensystem")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert cov.lambda_max == cov._eigensystem()[0][-1]


def test_diagnose_family_repeats_byte_for_byte(capsys):
    outs = []
    for _ in range(2):
        assert dispatch(["diagnose", "--family", "example11",
                         "--n-grid", "100,200,400,800"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cov_matrix_eigenvalue_clamp():
    # rank-one PSD matrix: tiny negative roundoff eigenvalues clamp to zero
    v = np.array([1.0, 2.0, 3.0])
    omega = CovMatrix(np.outer(v, v))
    evals = omega.eigenvalues
    assert (evals >= 0.0).all()
    assert_allclose(evals[:2], 0.0, atol=1e-12)


def test_norms_identity():
    omega = CovMatrix(np.eye(4))
    assert_allclose(norm_max_eig(omega), 1.0, atol=1e-12)
    assert_allclose(norm_max_row_sum(omega), 1.0, atol=1e-12)
    assert_allclose(norm_euclid_scaled(omega), 1.0, atol=1e-12)
    assert_allclose(norm_taxicab_scaled(omega), 1.0, atol=1e-12)
    assert_allclose(norm_euclid(omega), 2.0, atol=1e-12)


def test_norms_equicorrelation():
    omega = equicorr(4)
    assert_allclose(norm_max_eig(omega), 2.5, atol=1e-10)
    assert_allclose(norm_max_row_sum(omega), 2.5, atol=1e-12)
    assert_allclose(norm_euclid_scaled(omega), np.sqrt(1.75), atol=1e-12)
    assert_allclose(norm_taxicab_scaled(omega), 2.5, atol=1e-12)
    d = all_norms(omega)
    assert set(d) == {"max_eig", "max_row_sum", "euclid_scaled",
                      "taxicab_scaled"}
    assert_allclose(d["max_eig"], 2.5, atol=1e-10)


def test_arrowhead_norms():
    # closed forms: top eigenvalue 1 + sqrt(n-1)/(c sqrt(n)), row sum
    # 1 + (n-1)/(c sqrt(n))
    omega = arrowhead(9, c=2.0)
    assert_allclose(norm_max_eig(omega), 1.0 + np.sqrt(8.0) / 6.0, atol=1e-10)
    assert_allclose(norm_max_row_sum(omega), 1.0 + 8.0 / 6.0, atol=1e-12)
    # bounded max eigenvalue but unbounded row sum as n grows
    eigs = [norm_max_eig(arrowhead(n)) for n in (9, 25, 100, 400)]
    rows = [norm_max_row_sum(arrowhead(n)) for n in (9, 25, 100, 400)]
    assert all(1.0 < e <= 2.0 for e in eigs)
    assert eigs[-1] - eigs[0] < 0.05
    assert rows[-1] / rows[0] > 3.0


def test_sandwich_inequality_random_psd():
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        omega = random_psd(rng, n)
        lo = norm_euclid_scaled(omega)
        mid = norm_max_eig(omega)
        hi = norm_max_row_sum(omega)
        scale = max(hi, 1e-12)
        assert lo <= mid + 1e-10 * scale
        assert mid <= hi + 1e-10 * scale


def test_classify_identity_family():
    profile = classify(lambda n: CovMatrix(np.eye(n)), [8, 16, 32, 64, 128])
    assert profile.regime is Regime.WEAK
    assert abs(profile.exponent_max_eig) < 0.01
    assert all(r is Regime.WEAK for r in profile.regime_per_norm.values())


def test_classify_equicorrelation_strong():
    profile = classify(lambda n: equicorr(n), [25, 50, 100, 200, 400])
    assert profile.regime is Regime.STRONG
    assert abs(profile.exponent_max_eig - 1.0) < 0.1
    # scaled euclidean norm grows like sqrt(n) for this family
    assert profile.regime_per_norm["euclid_scaled"] is Regime.MODERATE


def test_classify_inverse_root_equicorr():
    fam = family_from_string("example14")
    profile = classify(lambda n: build_omega(fam, n), [25, 50, 100, 200, 400])
    assert profile.regime is Regime.MODERATE
    assert abs(profile.exponent_max_eig - 0.5) < 0.1
    assert profile.regime_per_norm["euclid_scaled"] is Regime.WEAK


def test_classify_scale_equivariant_labels():
    base = classify(lambda n: equicorr(n), [8, 16, 32, 64])
    scaled = classify(lambda n: CovMatrix(3.7 * equicorr(n).values),
                      [8, 16, 32, 64])
    assert base.regime is scaled.regime
    assert base.regime_per_norm == scaled.regime_per_norm


def test_classify_grid_validation():
    fam = lambda n: CovMatrix(np.eye(n))
    with pytest.raises(ValueError):
        classify(fam, [8, 16, 32])
    with pytest.raises(ValueError):
        classify(fam, [8, 16, 16, 32])
    with pytest.raises(ValueError):
        classify(fam, [8, 10, 12, 14])


def test_classify_degenerate_family():
    with pytest.raises(DegenerateFamily):
        classify(lambda n: CovMatrix(np.zeros((n, n))), [8, 16, 32, 64])


def test_strong_end_exponent_agreement():
    # at the strong end the max-eig, plain-sum, and unscaled euclidean
    # norms all grow linearly; fitted exponents agree within 0.1 of 1.0
    grids = [25, 50, 100, 200, 400]
    block = family_from_string("example10")
    for make in (lambda n: equicorr(n),
                 lambda n: build_omega(block, n)):
        mats = [make(n) for n in grids]
        for norm in (norm_max_eig, norm_taxicab_scaled, norm_euclid):
            alpha = loglog_slope(grids, [norm(m) for m in mats])
            assert abs(alpha - 1.0) < 0.1


def test_factor_decompose_equicorrelation():
    split = factor_decompose(equicorr(4), n_factors=1)
    assert split.n_factors == 1
    lam = split.loadings
    assert lam.shape == (4, 1)
    assert_allclose(lam @ lam.T, np.full((4, 4), 0.5), atol=1e-10)
    assert_allclose(split.idio_cov.values, 0.5 * np.eye(4), atol=1e-10)
    assert_allclose(split.c_coeffs, [1.0])


def test_factor_decompose_identity_degenerate():
    split = factor_decompose(CovMatrix(np.eye(5)), n_factors=1)
    assert_allclose(split.loadings, 0.0, atol=1e-12)
    assert_allclose(split.idio_cov.values, np.eye(5), atol=1e-12)


def test_factor_decompose_planted_recovery():
    rng = np.random.default_rng(17)
    lam = rng.choice([-1.0, 1.0], size=(20, 2))
    planted = lam @ lam.T
    omega = CovMatrix(planted + 0.3 * np.eye(20))
    split = factor_decompose(omega, n_factors=2)
    got = split.loadings @ split.loadings.T
    rel = np.linalg.norm(got - planted) / np.linalg.norm(planted)
    assert rel < 1e-8
    recon = got + split.idio_cov.values
    assert_allclose(recon, omega.values, atol=1e-8)


def test_factor_decompose_sigma_spectrum():
    # idiosyncratic spectrum is the low eigenvalues plus the smallest one
    # repeated for each extracted factor
    rng = np.random.default_rng(23)
    omega = random_psd(rng, 12)
    m = 3
    split = factor_decompose(omega, n_factors=m)
    evals = omega.eigenvalues
    expected = np.sort(np.concatenate([evals[:12 - m],
                                       np.full(m, evals[0])]))
    assert_allclose(np.sort(split.idio_cov.eigenvalues), expected, atol=1e-8)


def test_factor_decompose_partial_c():
    rng = np.random.default_rng(29)
    omega = random_psd(rng, 8)
    split = factor_decompose(omega, n_factors=2, c_coeffs=[0.5, 1.0])
    recon = split.loadings @ split.loadings.T + split.idio_cov.values
    assert_allclose(recon, omega.values, atol=1e-8)
    evals = omega.eigenvalues
    deltas = np.linalg.eigvalsh(split.loadings @ split.loadings.T)[-2:]
    assert_allclose(np.sort(deltas),
                    np.sort([evals[-2] - 0.5 * evals[0],
                             evals[-1] - 1.0 * evals[0]]), atol=1e-8)


def test_factor_decompose_argument_validation():
    omega = equicorr(4)
    with pytest.raises(ValueError):
        factor_decompose(omega, n_factors=4)
    with pytest.raises(ValueError):
        factor_decompose(omega, n_factors=-1)
    with pytest.raises(ValueError):
        factor_decompose(omega, n_factors=1, c_coeffs=[0.0])
    with pytest.raises(ValueError):
        factor_decompose(omega, n_factors=1, c_coeffs=[1.5])


def test_select_n_factors():
    # one dominant eigenvalue with ratio above the threshold
    assert select_n_factors(equicorr(8)) == 1
    # flat spectrum: no gap clears the ratio threshold
    assert select_n_factors(CovMatrix(np.eye(8))) == 0
    # two planted factors of equal strength
    rng = np.random.default_rng(5)
    lam = rng.choice([-1.0, 1.0], size=(30, 2)) * 3.0
    omega = CovMatrix(lam @ lam.T + 0.1 * np.eye(30))
    assert select_n_factors(omega) == 2


def test_factor_decompose_auto():
    split = factor_decompose(equicorr(6), n_factors="auto")
    assert split.n_factors == 1
    recon = split.loadings @ split.loadings.T + split.idio_cov.values
    assert_allclose(recon, equicorr(6).values, atol=1e-8)


def test_fourth_moment_chain_exact():
    rng = np.random.default_rng(41)
    for _ in range(20):
        t = int(rng.integers(2, 30))
        n = int(rng.integers(1, 10))
        sample = rng.standard_normal((t, n)) * rng.exponential(1.0)
        b = fourth_moment_lower_bound(sample)
        assert b.trace_vf >= b.sum_sq - 1e-12 * abs(b.trace_vf)
        assert b.sum_sq >= b.lambda_sq - 1e-12 * abs(b.sum_sq)


def test_fourth_moment_gaussian_value():
    rng = np.random.default_rng(314159)
    sample = rng.standard_normal((50000, 3))
    b = fourth_moment_lower_bound(sample)
    # independent standard normals: E||e||^4 = n^2 + 2n
    assert abs(b.trace_vf - 15.0) / 15.0 < 0.02
    assert abs(b.sum_sq - 3.0) < 0.2
    assert abs(b.lambda_sq - 1.0) < 0.2


def test_fourth_moment_common_factor():
    rng = np.random.default_rng(2718)
    f = rng.standard_normal(20000)
    sample = np.outer(f, np.ones(3))
    b = fourth_moment_lower_bound(sample)
    # rank-one covariance with top eigenvalue near n
    assert abs(b.lambda_sq - 9.0) < 0.5


def test_fourth_moment_large_cross_section():
    # O(T n^2) work and no n^2 x n^2 object, so wide cross-sections compute
    rng = np.random.default_rng(43)
    for n in (41, 200):
        b = fourth_moment_lower_bound(rng.standard_normal((30, n)))
        assert b.n == n
        assert b.trace_vf >= b.sum_sq >= b.lambda_sq > 0
