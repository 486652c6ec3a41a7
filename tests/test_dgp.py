import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import traced_peak
from panelcsd import (CovMatrix, TimeDependenceSpec, all_norms, classify,
                      dgp, norm_euclid)
from panelcsd.dgp import (EXAMPLE_PRESETS, Arrowhead, Band, Block,
                          DecayCorrelation, DgpSpec, Diagonal, Equicorr,
                          Factor, ScaledEquicorr, SpatialAR, build_omega,
                          family_from_string, gen_panel)
from panelcsd.errors import NotPSD, SpecMismatch, UsageError


def base_spec(family, **kw):
    return DgpSpec(cross_section=family, beta_true=(1.0,), **kw)


def errors_of(panel, truth, spec):
    beta = np.asarray(spec.beta_true)
    return panel.y - truth["mu"][:, None] - panel.x @ beta


def test_presets_all_psd():
    assert set(EXAMPLE_PRESETS) == {f"example{i}" for i in range(1, 15)}
    for name, family in EXAMPLE_PRESETS.items():
        omega = build_omega(family, 30)
        assert omega.eigenvalues[0] >= -1e-10 * omega.eigenvalues[-1]
        assert omega.meta["family"] == family.name


def test_diagonal_family():
    omega = build_omega(Diagonal(scale=2.0), 5)
    assert_allclose(omega.values, 2.0 * np.eye(5), atol=1e-14)


def test_equicorr_eigenvalue():
    omega = build_omega(Equicorr(a=1.0, b=0.5), 4)
    assert_allclose(omega.eigenvalues[-1], 2.5, atol=1e-10)


def test_spatial_ar_bounded():
    tops = [build_omega(SpatialAR(rho=0.4), n).eigenvalues[-1]
            for n in (50, 100, 200, 400, 800)]
    assert max(tops) / min(tops) < 1.05
    assert max(tops) < 10.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spatial_ar_weights_sum_to_one(n):
    # W is symmetric, so its rows sum to 1 exactly when the covariance's
    # rows sum to 1 / (1 - rho)^2; at n <= 2 both ring neighbours are one
    # unit, which gets both weights
    rho = 0.4
    omega = SpatialAR(rho=rho).build(n)
    assert_allclose(omega.sum(axis=1), 1.0 / (1.0 - rho) ** 2, rtol=1e-14)


def test_spatial_ar_has_no_subnormal_entry():
    omega = SpatialAR(rho=0.4).build(1600)
    subnormal = (omega != 0.0) & (np.abs(omega) < np.finfo(float).tiny)
    assert not subnormal.any()


def test_not_psd_names_family():
    family = Band(width="sqrt", b=0.9, taper="flat")
    with pytest.raises(NotPSD) as err:
        build_omega(family, 100)
    assert "band" in str(err.value)
    with pytest.raises(NotPSD) as err:
        gen_panel(base_spec(family), n=100, t=5, seed=1)
    assert "'band' at n=100" in str(err.value)


def test_gen_panel_deterministic():
    spec = base_spec(family_from_string("example13"))
    p1, t1 = gen_panel(spec, n=8, t=12, seed=321)
    p2, t2 = gen_panel(spec, n=8, t=12, seed=321)
    assert p1.y.tobytes() == p2.y.tobytes()
    assert p1.x.tobytes() == p2.x.tobytes()
    assert t1["mu"].tobytes() == t2["mu"].tobytes()
    p3, _ = gen_panel(spec, n=8, t=12, seed=322)
    assert p1.y.tobytes() != p3.y.tobytes()


@pytest.mark.parametrize("n", [6, 200])
def test_rank_one_family_draws_one_common_error(n):
    # Equicorr(1, 1) is the all-ones matrix: every unit gets the same error
    spec = base_spec(Equicorr(a=1.0, b=1.0))
    panel, truth = gen_panel(spec, n=n, t=8, seed=11)
    eps = errors_of(panel, truth, spec)
    assert np.abs(eps - eps[0]).max() < 1e-12


def test_truth_arrays_are_read_only():
    # draws of one (family, n) share these arrays
    for family in (Equicorr(a=1.0, b=0.5), Factor(n_factors=2)):
        _, truth = gen_panel(base_spec(family), n=6, t=4, seed=1)
        for key in ("omega", "loadings", "sigma"):
            if truth[key] is not None:
                with pytest.raises(ValueError):
                    truth[key][0, 0] = 7.0


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(EXAMPLE_PRESETS)),
                          st.integers(3, 40), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=6))
def test_gen_panel_depends_only_on_seed(draws):
    # a draw made after any sequence of other draws equals the same draw
    # made from an empty cross-section cache
    def draw(name, n, seed):
        panel, truth = gen_panel(base_spec(EXAMPLE_PRESETS[name]), n, 5, seed)
        return [a.tobytes() for a in (panel.y, panel.x, truth["mu"],
                                      truth["omega"], truth["sigma"])]

    got = [draw(*d) for d in draws]
    for d, bytes_in_sequence in zip(draws, got):
        dgp._cross_section.cache_clear()
        assert draw(*d) == bytes_in_sequence


def test_gen_panel_design_reuse():
    spec = base_spec(family_from_string("example2"))
    p1, t1 = gen_panel(spec, n=6, t=9, seed=5)
    p2, t2 = gen_panel(spec, n=6, t=9, seed=6,
                       design=(p1.x, t1["mu"]))
    assert p2.x.tobytes() == p1.x.tobytes()
    assert t2["mu"].tobytes() == t1["mu"].tobytes()
    assert p2.y.tobytes() != p1.y.tobytes()
    with pytest.raises(ValueError):
        gen_panel(spec, n=6, t=9, seed=7, design=(p1.x[:, :5], t1["mu"]))


def test_moment_fidelity_all_presets():
    n, t = 10, 10000
    for i, (name, family) in enumerate(sorted(EXAMPLE_PRESETS.items())):
        spec = base_spec(family)
        panel, truth = gen_panel(spec, n=n, t=t, seed=9000 + i)
        eps = errors_of(panel, truth, spec)
        sample = eps @ eps.T / t
        target = truth["omega"]
        rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
        assert rel < 0.05, f"{name}: relative error {rel:.3f}"


def test_moment_fidelity_equicorr_tight():
    spec = base_spec(Equicorr(a=1.0, b=0.3))
    panel, truth = gen_panel(spec, n=5, t=20000, seed=77)
    eps = errors_of(panel, truth, spec)
    sample = eps @ eps.T / 20000
    rel = np.linalg.norm(sample - truth["omega"]) \
        / np.linalg.norm(truth["omega"])
    assert rel < 0.03


def test_idio_ma_lag_one_autocovariance():
    spec = base_spec(Diagonal(scale=1.0),
                     time_memory=TimeDependenceSpec.idio_ma((1.0, 1.0)))
    panel, truth = gen_panel(spec, n=5, t=20000, seed=88)
    eps = errors_of(panel, truth, spec)
    lag0 = eps @ eps.T / 20000
    lag1 = eps[:, 1:] @ eps[:, :-1].T / (20000 - 1)
    target = truth["omega"]
    assert np.linalg.norm(lag0 - target) / np.linalg.norm(target) < 0.03
    assert np.linalg.norm(lag1 - 0.5 * target) / np.linalg.norm(target) < 0.03


def test_factor_ma_lag_one_autocovariance():
    fam = Factor(n_factors=1, strength=1.0)
    spec = base_spec(fam,
                     time_memory=TimeDependenceSpec.factor_ma((1.0, 1.0)))
    panel, truth = gen_panel(spec, n=6, t=20000, seed=99)
    eps = errors_of(panel, truth, spec)
    lam = truth["loadings"]
    common = lam @ lam.T
    lag1 = eps[:, 1:] @ eps[:, :-1].T / (20000 - 1)
    assert np.linalg.norm(lag1 - 0.5 * common) / np.linalg.norm(common) < 0.05


def test_summable_memory_geometric_decay():
    spec = base_spec(Diagonal(scale=1.0),
                     time_memory=TimeDependenceSpec.idio_summable(0.6))
    assert spec.time_memory.autocorr(2) == pytest.approx(0.36)
    panel, truth = gen_panel(spec, n=4, t=20000, seed=111)
    eps = errors_of(panel, truth, spec)
    target = truth["omega"]
    lag2 = eps[:, 2:] @ eps[:, :-2].T / (20000 - 2)
    assert np.linalg.norm(lag2 - 0.36 * target) / np.linalg.norm(target) < 0.05


def test_student_t_unit_variance():
    spec = base_spec(Diagonal(scale=1.0), error_dist="student_t", t_df=8.0)
    panel, truth = gen_panel(spec, n=5, t=20000, seed=404)
    eps = errors_of(panel, truth, spec)
    sample = eps @ eps.T / 20000
    rel = np.linalg.norm(sample - truth["omega"]) \
        / np.linalg.norm(truth["omega"])
    assert rel < 0.05


def test_student_t_moment_floor():
    with pytest.raises(SpecMismatch):
        base_spec(Diagonal(scale=1.0), error_dist="student_t", t_df=4.0)
    base_spec(Diagonal(scale=1.0), error_dist="student_t", t_df=4.5)


def test_x_law_cs_centered():
    spec = base_spec(family_from_string("example1"), x_law="cs_centered")
    panel, _ = gen_panel(spec, n=7, t=11, seed=3)
    assert_allclose(panel.x.mean(axis=0), 0.0, atol=1e-14)


def test_x_law_factor_aligned():
    fam = Factor(n_factors=1, strength=1.0)
    spec = base_spec(fam, x_law="factor_aligned")
    panel, truth = gen_panel(spec, n=100, t=200, seed=12)
    lam = truth["loadings"][:, 0]
    # per-period cross-section correlation with the loading direction
    x = panel.x[:, :, 0]
    score = np.array([np.corrcoef(x[:, s], lam)[0, 1] for s in range(200)])
    assert np.abs(score).mean() > 0.3


def test_mu_laws():
    spec = base_spec(Diagonal(scale=1.0), mu_law="zero")
    _, truth = gen_panel(spec, n=6, t=5, seed=1)
    assert_allclose(truth["mu"], 0.0, atol=0)
    spec = base_spec(Diagonal(scale=1.0), mu_law="uniform")
    _, truth = gen_panel(spec, n=200, t=5, seed=1)
    assert np.abs(truth["mu"]).max() <= 1.0


def test_h_n_scaling_laws():
    assert Equicorr(a=1.0, b=0.5).h_n(400) / Equicorr(a=1.0, b=0.5).h_n(100) \
        == pytest.approx(4.0)
    assert SpatialAR(rho=0.4).h_n(400) == SpatialAR(rho=0.4).h_n(100)
    fam = Factor(n_factors=1, strength=0.5)
    assert fam.h_n(400) / fam.h_n(100) == pytest.approx(2.0)


def test_factor_loading_scale():
    # top eigenvalue of the common component tracks n^strength
    for a in (0.5, 1.0):
        fam = Factor(n_factors=1, strength=a, loading_seed=7)
        tops = []
        for n in (100, 400):
            lam = fam.loadings(n)
            tops.append(np.linalg.eigvalsh(lam @ lam.T)[-1])
        ratio = tops[1] / tops[0]
        assert ratio == pytest.approx(4.0 ** a, rel=0.25)


def test_family_from_string_forms():
    fam = family_from_string("equicorr:a=1,b=0.5")
    assert isinstance(fam, Equicorr)
    assert fam.params()["b"] == 0.5

    fam = family_from_string("band:width=sqrt,b=0.5,taper=bartlett")
    assert isinstance(fam, Band)
    assert fam.params()["width"] == "sqrt"

    fam = family_from_string("block:n_blocks=2,b=0.5")
    assert isinstance(fam, Block)

    fam = family_from_string("example13")
    assert isinstance(fam, Equicorr)

    fam = family_from_string("example13:a=1,b=0.25")
    assert isinstance(fam, Equicorr)
    assert fam.params()["b"] == 0.25

    fam = family_from_string("factor:n_factors=2,strength=0.5")
    assert isinstance(fam, Factor)
    assert fam.params()["n_factors"] == 2


def test_family_from_string_errors():
    with pytest.raises(UsageError):
        family_from_string("gaussian_process")
    with pytest.raises(UsageError):
        family_from_string("example1:scale=2")
    with pytest.raises(UsageError):
        family_from_string("equicorr:a=1,b")
    with pytest.raises(UsageError):
        family_from_string("equicorr:a=one")
    with pytest.raises(UsageError):
        family_from_string("equicorr:nope=1")
    # values take the type their field declares and are checked on parsing
    for text in ("band:width=abc", "band:width=2.5", "factor:n_factors=1.5",
                 "equicorr:a=1,b=2", "example13:b=2", "decay:p=-1",
                 "factor:loading_law=uniform", "block:n_blocks=0"):
        with pytest.raises(UsageError):
            family_from_string(text)


MEMORY_SPECS = (
    TimeDependenceSpec.none(),
    TimeDependenceSpec.idio_ma((1.0, 0.5)),
    TimeDependenceSpec.idio_summable(0.7),
    TimeDependenceSpec.factor_ma((1.0, 0.5, 0.25)),
    TimeDependenceSpec.factor_summable(0.6),
)


@pytest.mark.parametrize("raw", [
    {"family": "equicorr", "a": 1, "b": 2},
    "equicorr:a=1,b=2",
    {"family": "band", "width": "abc"},
    "band:width=0",
    {"family": "band", "width": 2.5},
    {"family": "decay", "b": True},
    {"family": "equicorr", "b": None},
    {"family": "spatial_ar", "rho": "near one"},
    "spatial_ar:rho=1",
    {"family": "factor", "n_factors": 0},
    "factor:strength=1.5",
    {"family": "factor", "idio_var": -1.0},
    {"family": "factor", "loading_seed": 0.5},
    {"family": "arrowhead", "c": 1},
    "scaled_equicorr:a=0",
    {"family": "diagonal", "scale": 0},
    {"b": 0.5},
    # non-finite numbers used to load and fail later, in build_omega
    "equicorr:a=inf",
    "diagonal:scale=inf",
    "band:b=nan",
    {"family": "factor", "idio_var": float("inf")},
    {"family": "decay", "p": float("inf")},
    {"family": "arrowhead", "c": float("inf")},
    {"family": "scaled_equicorr", "a": float("nan")},
])
def test_bad_family_parameter_fails_on_load(raw):
    # caught when the spec is built, before any panel of any size is drawn
    with pytest.raises(UsageError):
        DgpSpec.from_dict({"cross_section": raw, "beta_true": [1.0]})


def test_family_checks_need_no_size():
    # n-independent checks run at construction; build keeps the rest
    for cls, kw in ((Diagonal, {"scale": -1.0}), (Band, {"taper": "cosine"}),
                    (Band, {"width": 0}), (Block, {"size": "cube"}),
                    (Equicorr, {"a": 0.0, "b": 0.0}), (SpatialAR, {"rho": -1}),
                    (Factor, {"n_factors": 0}), (Factor, {"strength": 0.0})):
        with pytest.raises(UsageError):
            cls(**kw)
    with pytest.raises(UsageError):
        build_omega(Factor(n_factors=3), 3)
    with pytest.raises(UsageError):
        build_omega(Block(n_blocks=4), 3)


def test_spec_round_trip():
    spec = DgpSpec(cross_section=Band(width=2, b=0.3),
                   beta_true=(1.0, -2.0),
                   time_memory=TimeDependenceSpec.idio_ma((1.0, 0.5)),
                   x_law="cs_centered", mu_law="zero",
                   error_dist="student_t", t_df=9.0)
    back = DgpSpec.from_dict(spec.to_dict())
    assert back.to_dict() == spec.to_dict()
    p1, _ = gen_panel(spec, n=4, t=6, seed=2)
    p2, _ = gen_panel(back, n=4, t=6, seed=2)
    assert p1.y.tobytes() == p2.y.tobytes()
    # every preset, memory channel and form survives a trip through JSON
    specs = [base_spec(family) for family in EXAMPLE_PRESETS.values()]
    specs += [base_spec(Factor(n_factors=1), time_memory=tm)
              for tm in MEMORY_SPECS]
    for spec in specs:
        back = DgpSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.to_dict() == spec.to_dict()


@pytest.mark.parametrize("edit, key", [
    ({"beta_true": "12"}, "beta_true"),
    ({"beta_true": ["1", True]}, "beta_true"),
    ({"beta_true": [1.0, None]}, "beta_true"),
    ({"beta_true": 1.0}, "beta_true"),
    ({"t_df": "x"}, "t_df"),
    ({"error_dist": "student_t", "t_df": "9"}, "t_df"),
    ({"time_memory": {"channel": "idio", "form": "summable",
                      "decay": "0.5"}}, "decay"),
    ({"time_memory": {"channel": "idio", "form": "summable",
                      "decay": True}}, "decay"),
    ({"time_memory": {"channel": "idio", "form": "ma",
                      "psi": ["1", "0.5"]}}, "psi"),
    ({"time_memory": {"channel": "idio", "form": "ma", "psi": "15"}}, "psi"),
    ({"cross_section": ["example1"]}, "cross_section"),
    # inf and NaN used to load and fail later, in a worker
    ({"beta_true": [float("inf")]}, "beta_true"),
    ({"beta_true": [1.0, float("nan")]}, "beta_true"),
    ({"error_dist": "student_t", "t_df": float("inf")}, "t_df"),
    ({"t_df": float("nan")}, "t_df"),
    ({"time_memory": {"channel": "idio", "form": "summable",
                      "decay": float("nan")}}, "decay"),
    ({"time_memory": {"channel": "idio", "form": "ma",
                      "psi": [1.0, float("inf")]}}, "psi"),
    ({"cross_section": "equicorr:a=inf"}, "'a' must be finite"),
    ({"cross_section": "diagonal:scale=inf"}, "'scale' must be finite"),
])
def test_spec_from_dict_checks_values_instead_of_coercing(edit, key):
    # "12" must not load as beta (1.0, 2.0), nor "0.5" as a decay
    d = {"cross_section": "example1", "beta_true": [1.0], **edit}
    with pytest.raises(UsageError, match=key):
        DgpSpec.from_dict(d)


def test_spec_from_dict_string_family():
    spec = DgpSpec.from_dict({"cross_section": "example13",
                              "beta_true": [1.0]})
    assert isinstance(spec.cross_section, Equicorr)


def test_spec_validation():
    with pytest.raises(SpecMismatch):
        base_spec(Diagonal(scale=1.0), x_law="martian")
    with pytest.raises(SpecMismatch):
        base_spec(Diagonal(scale=1.0), mu_law="martian")
    with pytest.raises(SpecMismatch):
        base_spec(Diagonal(scale=1.0), error_dist="cauchy")
    with pytest.raises(UsageError):
        DgpSpec(cross_section=Diagonal(scale=1.0), beta_true=())


@pytest.mark.parametrize("kw, field", [
    ({"channel": "idio", "form": "summable", "decay": 0.5,
      "psi": (1.0, 0.3)}, "psi"),
    ({"channel": "factor", "form": "summable", "decay": 0.5,
      "psi": (1.0,)}, "psi"),
    ({"channel": "idio", "form": "ma", "psi": (1.0, 0.3),
      "decay": 0.5}, "decay"),
    ({"decay": 0.5}, "decay"),
    ({"psi": (1.0, 0.3)}, "psi"),
])
def test_memory_spec_refuses_a_field_its_form_ignores(kw, field):
    # the draw would ignore the field, and to_dict would still write it
    with pytest.raises(SpecMismatch, match=field):
        TimeDependenceSpec(**kw)


def test_block_family_validation():
    with pytest.raises(UsageError):
        Block(size=4, n_blocks=2, b=0.5)
    with pytest.raises(UsageError):
        Block(b=0.5)


# --- the blocked first-order recursion against the period loop ------------

BLOCK = dgp._AR_BLOCK
# shorter than one block, exact multiples of it, and one past a multiple
AR_LENGTHS = [BLOCK // 2 + 3, BLOCK, 2 * BLOCK, 2 * BLOCK + 1]


def filter_series_loop(z, phi):
    # the summable form as a loop over periods
    out = np.empty_like(z)
    out[..., 0] = z[..., 0]
    scale = np.sqrt(1.0 - phi * phi)
    for s in range(1, z.shape[-1]):
        out[..., s] = phi * out[..., s - 1] + scale * z[..., s]
    return out


@pytest.mark.parametrize("t", AR_LENGTHS)
def test_blocked_filter_series_matches_the_period_loop(t):
    z = np.random.default_rng(t).standard_normal((7, t))
    spec = TimeDependenceSpec.idio_summable(0.99)
    got = dgp._filter_series(z, spec, t)
    want = filter_series_loop(z, 0.99)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # a 3-d block of innovation rows filters row by row
    z3 = z.reshape(7, 1, t)
    assert_allclose(dgp._filter_series(z3, spec, t)[:, 0], got, rtol=0,
                    atol=1e-15 * np.abs(want).max())


# --- draws assembled as a stack ---------------------------------------------

_STACK_SPECS = [
    base_spec(Equicorr(a=1.0, b=0.5)),
    base_spec(Arrowhead(c=1.5), time_memory=TimeDependenceSpec.idio_ma((1.0,
                                                                       0.5))),
    base_spec(Block(n_blocks=2, b=0.5)),
    DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0, -0.5),
            time_memory=TimeDependenceSpec.idio_ma((1.0, 0.6, 0.3)),
            error_dist="student_t"),
    DgpSpec(cross_section=Band(), beta_true=(2.0,), x_law="cs_centered",
            time_memory=TimeDependenceSpec.idio_summable(0.9)),
    DgpSpec(cross_section=Factor(n_factors=2, strength=0.7),
            beta_true=(1.0, 0.5), x_law="factor_aligned",
            time_memory=TimeDependenceSpec.factor_summable(0.6)),
    DgpSpec(cross_section=Factor(n_factors=1), beta_true=(1.0,),
            time_memory=TimeDependenceSpec.factor_ma((1.0, 0.4)),
            mu_law="zero"),
    DgpSpec(cross_section=Factor(n_factors=1), beta_true=(1.0,),
            time_memory=TimeDependenceSpec.idio_summable(0.5)),
]


@pytest.mark.parametrize("spec", _STACK_SPECS)
def test_stacked_assembly_gives_each_draw_its_gen_panel_bits(spec):
    # the Monte Carlo workers assemble blocks of draws at once; every
    # replication must come out as gen_panel draws it alone
    n, t, seeds = 9, 2 * dgp._AR_BLOCK + 5, range(5)
    y, x, mu = dgp._draw_block(spec, n, t, seeds)
    for seed, got_y, got_x, got_mu in zip(seeds, y, x, mu):
        panel, truth = gen_panel(spec, n, t, seed)
        assert got_y.tobytes() == panel.y.tobytes()
        assert got_x.tobytes() == panel.x.tobytes()
        assert got_mu.tobytes() == truth["mu"].tobytes()


def _longhand(spec, n, t, seed):
    # the seed contract written out: x, then mu, then the innovations (a
    # factor family's factor rows first), each from default_rng(seed); rows
    # with MA(q) memory hold q pre-sample columns
    k, family, tm = len(spec.beta_true), spec.cross_section, spec.time_memory
    rng = np.random.default_rng(seed)
    if spec.x_law == "factor_aligned":
        loadings = family.loadings(n)
        m = loadings.shape[1]
        g = rng.standard_normal((k, m, t))
        eta = rng.standard_normal((n, t, k))
        x = np.einsum("im,kmt->itk", loadings, g) / np.sqrt(m) + eta
    else:
        x = rng.standard_normal((n, t, k))
        if spec.x_law == "cs_centered":
            x = x - x.mean(axis=0, keepdims=True)
    mu = (rng.uniform(-1.0, 1.0, size=n) if spec.mu_law == "uniform"
          else np.zeros(n))
    q = len(tm.psi) - 1 if tm.form == "ma" else 0

    def innovations(rows, columns):
        if spec.error_dist == "gaussian":
            return rng.standard_normal((rows, columns))
        return rng.standard_t(spec.t_df, size=(rows, columns)) * np.sqrt(
            (spec.t_df - 2.0) / spec.t_df)

    if isinstance(family, Factor):
        f = innovations(family.n_factors, t + q * (tm.channel == "factor"))
        e = innovations(n, t + q * (tm.channel == "idio"))
        return x, mu, (f, e)
    return x, mu, (innovations(n, t + q),)


def _moving_average(z, psi, t):
    # out[:, s] = sum_j psi_j z[:, s + q - j], psi scaled to unit norm
    psi = np.asarray(psi) / np.linalg.norm(psi)
    q = len(psi) - 1
    return sum(p * z[:, q - j:q - j + t] for j, p in enumerate(psi))


def _dense_root(omega):
    lam, vec = np.linalg.eigh(omega)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


_CONTRACT_SPECS = {
    "iid": DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0,)),
    "cs_centered": DgpSpec(cross_section=Band(), beta_true=(2.0, -1.0),
                           x_law="cs_centered"),
    "factor_aligned": DgpSpec(cross_section=Factor(n_factors=2),
                              beta_true=(1.0, 0.5), x_law="factor_aligned"),
    "student_t": DgpSpec(cross_section=Arrowhead(c=1.5), beta_true=(1.0,),
                         error_dist="student_t", mu_law="zero"),
    "ma_idio": DgpSpec(cross_section=Block(size=3), beta_true=(0.5, 1.0, 2.0),
                       time_memory=TimeDependenceSpec.idio_ma((1.0, 0.6,
                                                               0.3))),
    "factor_ma": DgpSpec(cross_section=Factor(n_factors=1, idio_var=2.0),
                         beta_true=(1.0,),
                         time_memory=TimeDependenceSpec.factor_ma((1.0, 0.4))),
}


@pytest.mark.parametrize("name", _CONTRACT_SPECS)
def test_block_draws_follow_the_seed_contract_written_out(name):
    # the block's x and mu bytes come from each seed's own default_rng in
    # the contract's order, and y is mu + x beta + the errors from that
    # seed's innovations, here without any of the block's code
    spec = _CONTRACT_SPECS[name]
    n, t, seeds = 7, 12, [21, 22, 23]
    family, tm = spec.cross_section, spec.time_memory
    beta = np.asarray(spec.beta_true)
    y, x, mu = dgp._draw_block(spec, n, t, seeds)
    for i, seed in enumerate(seeds):
        want_x, want_mu, z = _longhand(spec, n, t, seed)
        assert x[i].tobytes() == want_x.tobytes()
        assert mu[i].tobytes() == want_mu.tobytes()
        memory = ((tm.channel == "factor", tm.channel == "idio")
                  if isinstance(family, Factor) else (tm.channel == "idio",))
        z = [_moving_average(zc, tm.psi, t) if carries else zc
             for zc, carries in zip(z, memory)]
        if isinstance(family, Factor):
            eps = family.loadings(n) @ z[0] + np.sqrt(family.idio_var) * z[1]
        else:
            eps = _dense_root(build_omega(family, n).values) @ z[0]
        want_y = want_mu[:, None] + want_x @ beta + eps
        assert_allclose(y[i], want_y, rtol=0, atol=1e-12 * np.abs(want_y).max())


@pytest.mark.parametrize("spec", _STACK_SPECS)
def test_block_on_a_fixed_design_gives_each_draw_its_gen_panel_bits(spec):
    # the block shares a read-only design among its replications without
    # writing it, and each replication is what gen_panel draws on it alone
    n, t, seeds = 9, 2 * dgp._AR_BLOCK + 5, [3, 4, 5, 6]
    panel, truth = gen_panel(spec, n, t, 99)
    design = (panel.x.copy(), truth["mu"].copy())
    before = [a.tobytes() for a in design]
    for a in design:
        a.setflags(write=False)
    y, x, mu = dgp._draw_block(spec, n, t, seeds, design)
    assert y.shape == (len(seeds), n, t)
    for seed, got_y, got_x, got_mu in zip(seeds, y, x, mu):
        one, one_truth = gen_panel(spec, n, t, seed, design=design)
        assert got_y.tobytes() == one.y.tobytes()
        assert got_x.tobytes() == before[0] == one.x.tobytes()
        assert got_mu.tobytes() == before[1] == one_truth["mu"].tobytes()
    assert [a.tobytes() for a in design] == before


# --- covariances of small rank in the structured form -----------------------

LOW_RANK_FAMILIES = [Diagonal(), Diagonal(scale=2.5), Equicorr(a=1.0, b=0.5),
                     Equicorr(a=2.0, b=0.3), Equicorr(a=1.0, b=1.0),
                     ScaledEquicorr(a=1.0), ScaledEquicorr(a=2.0),
                     Arrowhead(c=2.0), Arrowhead(c=1.1),
                     DecayCorrelation(p=0.0), DecayCorrelation(p=0.0, b=0.2),
                     Block(n_blocks=1, b=0.5), Block(n_blocks=1, b=1.0),
                     Block(n_blocks=2, b=0.5), Block(n_blocks=3, b=0.9),
                     Block(size=5), Block(size="sqrt"), Block(size=2),
                     Block(size=3, b=1.0),
                     Factor(n_factors=1), Factor(n_factors=2, strength=0.5,
                                                 loading_law="gaussian")]
FORM_SIZES = [1, 2, 7, 50, 200]


def dense(form, n):
    # D + U S U' as an n x n array
    out = form.d * np.eye(n) if np.ndim(form.d) == 0 else np.array(form.d)
    if form.u is not None:
        out = out + form.u @ form.s @ form.u.T
    return out


def closed_form(family, n):
    # each low-rank family's covariance entry by entry, without its form
    if isinstance(family, Diagonal):
        return family.scale * np.eye(n)
    if isinstance(family, Factor):
        lam = family.loadings(n)
        return lam @ lam.T + family.idio_var * np.eye(n)
    if isinstance(family, Arrowhead):
        out = np.eye(n)
        out[0, 1:] = out[1:, 0] = 1.0 / (family.c * np.sqrt(n))
        return out
    if isinstance(family, Block):
        sizes = family._sizes(n)
        block = np.repeat(np.arange(len(sizes)), sizes)
        out = np.where(block[:, None] == block, family.b, 0.0)
    elif isinstance(family, (Equicorr, DecayCorrelation)):
        out = np.full((n, n), family.b)
    else:
        out = np.full((n, n), family.a / np.sqrt(n))
    np.fill_diagonal(out, family.a if isinstance(family, Equicorr) else 1.0)
    return out


def low_rank_cases():
    # every (family, n) the family builds at (n_blocks <= n, a / sqrt(n)
    # <= 1, fewer factors than units)
    for family in LOW_RANK_FAMILIES:
        for n in FORM_SIZES:
            try:
                family.build(n)
            except UsageError:
                continue
            params = ",".join(f"{k}={v}" for k, v in family.params().items())
            yield pytest.param(family, n, id=f"{family.name}:{params}-{n}")


def test_dense_families_have_no_low_rank_form():
    for family in (Band(), Band(width="sqrt", b=0.5, taper="bartlett"),
                   DecayCorrelation(), SpatialAR()):
        assert family._low_rank(50) is None


@pytest.mark.parametrize("family, n", low_rank_cases())
def test_low_rank_form_is_the_built_covariance(family, n):
    want = closed_form(family, n)
    form = family._low_rank(n)
    assert np.ndim(form.d) == 0
    assert np.abs(family.build(n) - want).max() <= 1e-15 * np.abs(want).max()
    if isinstance(family, Factor):
        return  # its U is the loadings; its errors need no root
    if form.u is not None:
        assert_allclose(form.u.T @ form.u, np.eye(form.u.shape[1]),
                        rtol=0, atol=1e-14)
    root = form.root()
    r = dense(root, n)
    assert np.abs(r - r.T).max() <= 1e-15 * np.abs(r).max()
    # (the dense path's eigensolve root squares to within 5.6e-14 here)
    assert np.abs(r @ r - want).max() <= 1e-13 * np.abs(want).max()
    # the root the dense path takes from the eigensystem
    cov = build_omega(family, n)
    assert np.abs(r - cov.sqrt()).max() <= 1e-13 * np.abs(r).max()
    z = np.random.default_rng(n).standard_normal((2, n, 5))
    got = root @ z
    want_z = cov.sqrt() @ z
    assert np.abs(got - want_z).max() <= 1e-13 * np.abs(want_z).max()
    # a slice gets the same bits alone or stacked
    assert (root @ z[1]).tobytes() == got[1].tobytes()


@pytest.mark.parametrize("family, n", low_rank_cases())
def test_build_omega_from_the_form_matches_the_dense_matrix(family, n):
    # a low-rank family is held as its form: the dense values are the same
    # bits, the largest eigenvalue comes from the r x r core with no n x n
    # eigensolve, and the norms read blocks computed from the form
    cov = build_omega(family, n)
    dense_cov = CovMatrix(family.build(n))
    top = cov.lambda_max
    assert cov._evals is None and cov._eig is None
    got = {**all_norms(cov), "euclid": norm_euclid(cov)}
    want = {**all_norms(dense_cov), "euclid": norm_euclid(dense_cov)}
    assert cov.values.tobytes() == dense_cov.values.tobytes()
    dense_spectrum = np.linalg.eigvalsh(dense_cov.values)
    exact = dense_spectrum[-1]
    assert abs(top - exact) <= 1e-13 * exact
    # the whole spectrum, entry by entry, not only its top
    gap = np.abs(cov._form.spectrum(n) - dense_spectrum).max()
    assert gap <= 1e-13 * exact, gap / exact
    want["max_eig"] = exact
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-14 * value, (name, got[name])


ONE_1600_SQUARE = 1600 * 1600 * 8  # bytes of one 1600 x 1600 array


@pytest.mark.parametrize("preset", ["example11", "example3", "example8"])
def test_classify_of_the_factor_preset_forms_no_n_by_n_array(preset):
    family = EXAMPLE_PRESETS[preset]
    peak = traced_peak(lambda: classify(lambda n: build_omega(family, n),
                                        [200, 400, 800, 1600]))
    assert peak < ONE_1600_SQUARE


@pytest.mark.parametrize("preset", ["example3", "example8"])
def test_cross_section_of_a_block_preset_forms_no_n_by_n_array(preset):
    # blocks of size 5 or sqrt(n): the form, its root and the form-backed
    # covariance, with no dense n x n array
    dgp._cross_section.cache_clear()
    try:
        peak = traced_peak(
            lambda: dgp._cross_section(EXAMPLE_PRESETS[preset], 1600))
    finally:
        dgp._cross_section.cache_clear()
    assert peak < ONE_1600_SQUARE


def test_cross_section_of_a_factor_family_forms_no_n_by_n_array(monkeypatch):
    # the form is built once, its loadings drawn once, and neither the
    # dense covariance nor the dense idiosyncratic one is formed until
    # gen_panel's truth reads them
    family = Factor(n_factors=2)
    built = []
    low_rank = Factor._low_rank

    def counted(self, n):
        built.append(n)
        return low_rank(self, n)

    monkeypatch.setattr(Factor, "_low_rank", counted)
    dgp._cross_section.cache_clear()
    try:
        peak = traced_peak(lambda: dgp._cross_section(family, 1600))
        assert peak < ONE_1600_SQUARE
        assert built == [1600]
        cs = dgp._cross_section(family, 1600)
        assert cs.omega._values is None and cs.sigma._values is None
        assert_allclose(cs.sigma.values, np.eye(1600), rtol=0, atol=0)
    finally:
        dgp._cross_section.cache_clear()


@pytest.mark.parametrize("family, n", [(Equicorr(a=1.0, b=1.0), 50),
                                       (Block(n_blocks=1, b=1.0), 50),
                                       (ScaledEquicorr(a=2.0), 4),
                                       (Equicorr(a=1.0, b=1.0 - 1e-12), 50)])
def test_rank_deficient_root_keeps_the_rank_of_the_clipped_dense_root(family,
                                                                      n):
    # the all-equal covariance: c = 0, and the dense path clamps its n - 1
    # zero eigenvalues, so both roots have rank one and give every unit the
    # same error; so does c = 1e-12, within EIG_CLIP_REL of the top
    root = family._low_rank(n).root()
    assert root.d == 0.0
    dense_root = build_omega(family, n).sqrt()
    assert np.linalg.matrix_rank(dense_root) == 1
    assert np.linalg.matrix_rank(dense(root, n)) == 1
    z = np.random.default_rng(3).standard_normal((n, 6))
    got = root @ z
    assert np.abs(got - got[0]).max() == 0.0
    want = dense_root @ z
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_low_rank_families_draw_without_an_n_by_n_eigensolve(monkeypatch):
    # the root of a family of small rank comes from its r x r core; a dense
    # family still takes it from the eigensystem of the n x n covariance
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for family in (Equicorr(a=1.0, b=0.5), Arrowhead(c=2.0),
                   Block(n_blocks=3, b=0.5), Diagonal()):
        dgp._cross_section.cache_clear()
        gen_panel(base_spec(family), 40, 6, seed=1)
        assert max(sizes, default=0) <= 3, family
    dgp._cross_section.cache_clear()
    gen_panel(base_spec(Band()), 40, 6, seed=1)
    assert sizes[-1] == 40
    dgp._cross_section.cache_clear()
