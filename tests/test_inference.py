import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from conftest import child_env
from panelcsd import (LinearRestriction, chi2_sf, parse_restrictions, wald)
from panelcsd.errors import (DomainError, SingularRestrictedCov, UsageError)


def test_wald_identity_covariance():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(4)
    restr = LinearRestriction(matrix=np.eye(4), value=np.zeros(4))
    res = wald(z, np.eye(4), restr)
    assert res.statistic == pytest.approx(float(z @ z))
    assert res.dof == 4
    assert res.p_value == pytest.approx(chi2_sf(float(z @ z), 4))


def test_wald_scalar_is_t_squared():
    beta = np.array([1.7, -0.3])
    v = np.array([[0.25, 0.1], [0.1, 0.5]])
    restr = LinearRestriction(matrix=np.array([[1.0, 0.0]]),
                              value=np.array([1.0]))
    res = wald(beta, v, restr)
    t_stat = (1.7 - 1.0) / np.sqrt(0.25)
    assert res.statistic == pytest.approx(t_stat ** 2)
    assert res.dof == 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5))
def test_wald_unchanged_by_rescaled_restriction_rows(k, seed, scales, flips):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, k + 1))
    beta = rng.standard_normal(k)
    a = rng.standard_normal((k, k))
    v = a @ a.T + np.eye(k)
    r = rng.standard_normal((q, k))
    val = rng.standard_normal(q)
    d = np.array([-s if f else s for s, f in zip(scales, flips)])[:q]
    base = wald(beta, v, LinearRestriction(matrix=r, value=val))
    scaled = wald(beta, v, LinearRestriction(matrix=d[:, None] * r,
                                             value=d * val))
    assert scaled.dof == base.dof
    assert scaled.statistic == pytest.approx(base.statistic, rel=1e-8)


def test_wald_invariance_under_row_transform():
    rng = np.random.default_rng(13)
    beta = rng.standard_normal(5)
    a = rng.standard_normal((5, 5))
    v = a @ a.T + np.eye(5)
    r = rng.standard_normal((3, 5))
    val = rng.standard_normal(3)
    base = wald(beta, v, LinearRestriction(matrix=r, value=val))
    trans = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    other = wald(beta, v, LinearRestriction(matrix=trans @ r,
                                            value=trans @ val))
    assert abs(base.statistic - other.statistic) < 1e-9 * base.statistic
    assert base.dof == other.dof


def test_wald_singular_restricted_cov():
    beta = np.zeros(2)
    v = np.diag([1.0, 0.0])
    restr = LinearRestriction(matrix=np.array([[0.0, 1.0]]),
                              value=np.array([0.0]))
    with pytest.raises(SingularRestrictedCov):
        wald(beta, v, restr)


def test_wald_dimension_mismatch():
    restr = LinearRestriction(matrix=np.eye(2), value=np.zeros(2))
    with pytest.raises(UsageError):
        wald(np.zeros(3), np.eye(3), restr)


def test_wald_statistic_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        beta = rng.standard_normal(k)
        a = rng.standard_normal((k, k))
        v = a @ a.T + 0.1 * np.eye(k)
        q = int(rng.integers(1, k + 1))
        r = rng.standard_normal((q, k))
        res = wald(beta, v, LinearRestriction(matrix=r,
                                              value=rng.standard_normal(q)))
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0


def test_linear_restriction_validation():
    with pytest.raises(UsageError):
        LinearRestriction(matrix=np.zeros((3, 2)), value=np.zeros(3))
    with pytest.raises(UsageError):
        LinearRestriction(matrix=np.array([[1.0, 0.0], [2.0, 0.0]]),
                          value=np.zeros(2))
    with pytest.raises(UsageError):
        LinearRestriction(matrix=np.eye(2), value=np.zeros(3))
    restr = LinearRestriction(matrix=np.array([[1.0, 2.0]]),
                              value=np.array([3.0]))
    assert restr.q == 1


def test_wald_null_distribution_ks():
    # known-variance statistics on a tiny fixed design follow the reference
    rng = np.random.default_rng(101)
    k, q, reps = 3, 2, 10000
    x = rng.standard_normal((40, k))
    v = np.linalg.inv(x.T @ x)
    chol = np.linalg.cholesky(v)
    r = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    restr = LinearRestriction(matrix=r, value=np.zeros(q))
    stats_vals = np.empty(reps)
    for i in range(reps):
        beta = chol @ rng.standard_normal(k)
        stats_vals[i] = wald(beta, v, restr).statistic
    ks = stats.kstest(stats_vals, stats.chi2(df=q).cdf).statistic
    assert ks < 0.03


def test_chi2_sf_closed_forms():
    assert chi2_sf(2.0 * np.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)
    for x in (0.5, 1.0, 3.0, 10.0):
        assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2), abs=1e-12)
        assert chi2_sf(x, 1) == pytest.approx(
            2.0 * (1.0 - stats.norm.cdf(np.sqrt(x))), abs=1e-10)
    assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
    assert chi2_sf(0.0, 5) == 1.0


def test_chi2_sf_monotone_and_bounded():
    xs = np.linspace(0.0, 50.0, 200)
    for dof in (1, 2, 5, 20):
        vals = [chi2_sf(x, dof) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        diffs = np.diff(vals)
        assert (diffs < 0).all()


def test_chi2_sf_high_precision_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def oracle(x, dof):
        return float(mp.gammainc(dof / 2.0, x / 2.0, mp.inf,
                                 regularized=True))

    rng = np.random.default_rng(55)
    for _ in range(60):
        dof = int(rng.integers(1, 201))
        x = float(rng.uniform(0.0, 1000.0))
        assert abs(chi2_sf(x, dof) - oracle(x, dof)) <= 1e-10


def test_chi2_sf_matches_mpmath_to_1e12_relative():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def oracle(x, dof):
        return mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf,
                           regularized=True)

    # where e^{-x/2} alone underflows but the tail does not
    points = [(3000.0, 3000), (1600.0, 1500), (5000.0, 2000), (1378.0, 2),
              (1370.0, 1), (1e-300, 1), (1e-12, 3), (3.841459, 1)]
    rng = np.random.default_rng(91)
    for _ in range(150):
        dof = int(rng.integers(1, 2001))
        points.append((float(rng.uniform(0.0, 5000.0)), dof))
        # and across the body and both tails of the distribution
        near = dof + rng.normal() * 6.0 * math.sqrt(2.0 * dof)
        points.append((float(np.clip(near, 0.0, 5000.0)), dof))
    for dof in (1, 2, 3, 4, 19, 20, 21):
        points += [(x, dof) for x in (0.01, 1.0, 3.84, 21.0, 40.0, 200.0)]
    checked = 0
    for x, dof in points:
        want = oracle(x, dof)
        if want < mp.mpf("1e-300"):
            continue
        got = chi2_sf(x, dof)
        assert abs(mp.mpf(got) - want) <= 1e-12 * want, (x, dof, got)
        checked += 1
    assert checked >= 200


def test_import_loads_no_scipy():
    probe = ("import sys, panelcsd; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=child_env(), timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_chi2_sf_domain_errors():
    with pytest.raises(DomainError):
        chi2_sf(-0.1, 2)
    with pytest.raises(DomainError):
        chi2_sf(np.nan, 2)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 2.5)


def test_parse_restrictions_grammar():
    restr = parse_restrictions("b1=0", 3)
    assert_allclose(restr.matrix, [[1.0, 0.0, 0.0]])
    assert_allclose(restr.value, [0.0])

    restr = parse_restrictions("b2=b3", 3)
    assert_allclose(restr.matrix, [[0.0, 1.0, -1.0]])
    assert_allclose(restr.value, [0.0])

    restr = parse_restrictions("2*b1+3*b2=1", 2)
    assert_allclose(restr.matrix, [[2.0, 3.0]])
    assert_allclose(restr.value, [1.0])

    # bare coefficient form and fractions
    restr = parse_restrictions("2b1-0.5b2=4", 2)
    assert_allclose(restr.matrix, [[2.0, -0.5]])
    assert_allclose(restr.value, [4.0])

    restr = parse_restrictions("b1=0, b2=1", 2)
    assert restr.q == 2
    assert_allclose(restr.matrix, np.eye(2))
    assert_allclose(restr.value, [0.0, 1.0])

    # constants may sit on either side
    restr = parse_restrictions("1=b1", 1)
    assert_allclose(restr.matrix, [[-1.0]])
    assert_allclose(restr.value, [-1.0])


def test_parse_restrictions_errors():
    with pytest.raises(UsageError):
        parse_restrictions("b1=0=1", 2)
    with pytest.raises(UsageError):
        parse_restrictions("b5=0", 2)
    with pytest.raises(UsageError):
        parse_restrictions("", 2)
    with pytest.raises(UsageError):
        parse_restrictions("b1+fish=0", 2)
    # redundant rows make R rank deficient
    with pytest.raises(UsageError):
        parse_restrictions("b1=0, 2b1=0", 2)


def test_wald_accepts_robust_cov(tmp_path):
    from panelcsd import EstimatorKind, cov_cross_section, fit, PanelData
    rng = np.random.default_rng(77)
    x = rng.standard_normal((5, 30, 2))
    y = x @ np.array([1.0, 0.0]) + rng.standard_normal((5, 30))
    res = fit(PanelData(y=y, x=x), EstimatorKind.FIXED_EFFECT)
    rc = cov_cross_section(res)
    out = wald(res.beta_hat, rc,
               parse_restrictions("b2=0", 2))
    assert out.dof == 1
    assert out.method.get("method") == "cs"
    assert 0.0 <= out.p_value <= 1.0
