"""Covariance requests and estimators for demeaned-panel slope estimators.

Write the estimation error as a sum of per-period contributions,
beta_hat - beta = sum_t G^{-1} x_t' eps_t, with G the gram matrix of the
demeaned design and x_t its (n, k) period-t slice. The per-period scores
u_t = G^{-1} x_t' e_t are formed directly from the demeaned design and the
residuals (the weight blocks G^{-1} x_t' of :mod:`panelcsd.estimators` are
the tests' reference, not an input here). Three estimators of
Var(beta_hat) follow:

* plug-in: replace the error covariance by the residual outer-product
  average (consistent only with many periods per cross-section pair);
* cross-section robust: sum_t u_t u_t', robust to arbitrary dependence
  within a period (zero-lag score sandwich);
* kernel: adds lag-weighted cross-period score products
  sum_j K(j) (A_j + A_j'), A_j = sum_t u_t u_{t-j}', robust to serial
  dependence up to the truncation lag.

:class:`CovConfig` is the checked request for one of them; the Monte Carlo
engine and the command line both build it and nothing else states its rules.

Exact finite-sample variance targets for simulated designs are computed
from a demeaned design that :func:`~panelcsd.estimators.gram_inverse` has
checked, blockwise from the lag structure of the errors, never materializing
the (n*t) x (n*t) covariance. When the lag-j error block is rho_j B, all lag
terms together are sum_t x_t' B z_t with the weighted leads
z_t = sum_{j>=1} rho_j x_{t+j}: one sandwich whatever the memory length.
Geometric memory, rho_j = d^j, builds z from one backward first-order
recursion, z_{T-1} = 0 and z_s = d (x_{s+1} + z_{s+1}), so every lag up to
T-1 is summed exactly. The recursion runs in blocks of periods as matrix
products (``dgp._ar1``), not as a loop over periods. Each error covariance
enters a sandwich as D + U S U' (``dependence._Structured``): with D = d I,
sum_t a_t' D b_t is d times one (k, n*t) x (n*t, k) product and the rank-r
part costs O(n r t) per regressor, so the designs of small rank never meet
an n x n matrix; a dense D costs the n x n products it always did.

The scores, lag windows, PSD repair and exact variances work on stacks of
fits (a leading axis of B), one product or eigensolve per fit, and read each
demeaned design in the k-major (k, n, t) layout the fit builds. All three
estimators have one entry point, :func:`_robust_stack`: the Monte Carlo
workers call it on blocks of replications, and :func:`cov_cross_section`,
:func:`cov_kernel` and :func:`cov_plugin` call it on a block of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import (PSD_REPAIR_REL, auto_truncation, declared_lag,
                     field_dict, from_fields)
from .errors import SingularCov, SpecMismatch, TruncTooLarge, UsageError
from .dependence import CovMatrix, _Structured
from .dgp import TimeDependenceSpec, _ar1
from .estimators import EstimatorKind, FitResult, _demean_stack, gram_inverse
from .panel import PanelData

__all__ = [
    "CovMethod",
    "CovConfig",
    "RobustCov",
    "omega_hat",
    "cov_cross_section",
    "cov_kernel",
    "cov_plugin",
    "kernel_weight",
    "true_variance_cs",
    "true_variance_mixed",
]


class CovMethod(enum.Enum):
    PLUG_IN = "plugin"
    CROSS_SECTION = "cs"
    KERNEL = "kernel"


KERNELS = ("bartlett", "uniform", "parzen")


@dataclass(frozen=True)
class CovConfig:
    """A checked covariance request: a :class:`CovMethod` value, and for the
    kernel estimator its kernel, truncation (a lag count or "auto") and the
    declared serial dependence that "auto" resolves from."""

    method: str = "cs"
    kernel: str = "bartlett"
    trunc: int | str = 0
    declared: str = "unknown"  # pure-cs | ma:<q> | summable | unknown

    def __post_init__(self):
        if self.method not in [m.value for m in CovMethod]:
            raise UsageError(f"unknown covariance method {self.method!r}")
        if self.kernel not in KERNELS:
            raise UsageError(f"unknown kernel {self.kernel!r}; "
                             f"choose from {KERNELS}")
        if self.trunc != "auto" and (type(self.trunc) is not int
                                     or self.trunc < 0):
            raise UsageError(f"trunc must be 'auto' or an integer >= 0, "
                             f"got {self.trunc!r}")
        declared_lag(self.declared)

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CovConfig":
        return from_fields(cls, d, "cov")


@dataclass(frozen=True)
class RobustCov:
    """A k x k covariance estimate plus how it was produced.

    ``psd_repaired`` is True when negative eigenvalues were clipped to zero;
    ``clipped_mass`` is the total absolute eigenvalue mass removed.
    """

    matrix: np.ndarray
    method: CovMethod
    kernel_name: str | None = None
    trunc_lag: int | None = None
    psd_repaired: bool = False
    clipped_mass: float = 0.0

    def metadata(self) -> dict:
        return {
            "method": self.method.value,
            "kernel": self.kernel_name,
            "trunc_lag": self.trunc_lag,
            "psd_repaired": self.psd_repaired,
            "clipped_mass": self.clipped_mass,
        }


def omega_hat(residuals) -> CovMatrix:
    """Residual outer-product average over periods, an n x n matrix.

    With fewer periods than units the average cannot have full rank; that
    is allowed but flagged via ``meta["rank_deficient"]``.
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 2:
        raise ValueError("residuals must be 2-d (units x periods)")
    n, t = e.shape
    if t < 2:
        raise ValueError("need at least two periods to average")
    meta = {"estimator": "residual_outer_mean", "n_periods": t}
    if t < n:
        meta["rank_deficient"] = True
    return CovMatrix(e @ e.T / t, meta=meta)


def _check_periods(kind: EstimatorKind, n_periods: int) -> None:
    # With two periods the within scores satisfy u_1 = u_2 and u_1 + u_2 = 0,
    # so every covariance built from them is exactly zero.
    if kind is EstimatorKind.FIXED_EFFECT and n_periods < 3:
        raise SingularCov(
            f"a fixed-effect panel with {n_periods} periods has "
            "identically zero scores; robust covariances need at least 3")


def _scores(xk: np.ndarray, residuals: np.ndarray,
            gram_inv: np.ndarray) -> np.ndarray:
    # u_t = G^{-1} x_t' e_t stacked as (B, T, k) for a stack of fits, from
    # the k-major designs (B, k, n, t)
    return (np.einsum("bknt,bnt->btk", xk, residuals)
            @ gram_inv.swapaxes(-1, -2))


def _repair_psd(v: np.ndarray):
    # A stack (B, k, k) symmetrized, with negative eigenvalues clipped where
    # the smallest is below -PSD_REPAIR_REL * the largest; also returns which
    # were repaired and the eigenvalue mass each lost.
    v = 0.5 * (v + v.swapaxes(-1, -2))
    evals, evecs = np.linalg.eigh(v)
    repaired = ~(evals[:, 0] >= -PSD_REPAIR_REL * np.maximum(evals[:, -1], 0.0))
    clipped = np.zeros(len(v))
    if repaired.any():
        w, q = evals[repaired], evecs[repaired]
        fixed = ((q * np.clip(w, 0.0, None)[:, np.newaxis, :])
                 @ q.swapaxes(-1, -2))
        v[repaired] = 0.5 * (fixed + fixed.swapaxes(-1, -2))
        clipped[repaired] = [-ev[ev < 0.0].sum() for ev in w]
    return v, repaired, clipped


def _robust_stack(kind: EstimatorKind, xk: np.ndarray,
                  residuals: np.ndarray, gram_inv: np.ndarray, method: str,
                  kernel: str = "bartlett", trunc: int | str = 0,
                  declared: str = "unknown", omega: np.ndarray | None = None):
    """The one robust covariance routine, for a stack of fits: k-major
    demeaned designs (B, k, n, t), residuals (B, n, t) and Gram inverses
    (B, k, k). ``method`` is a :class:`CovMethod` value; the kernel
    estimator reads ``kernel``, ``trunc`` and ``declared``, the plug-in one
    ``omega`` (n, n; default each fit's residual outer-product average).
    Returns the PSD-repaired matrices (B, k, k), which were repaired, the
    eigenvalue mass each lost, and the kernel's truncation lag (else None).
    Raises what the public estimator raises, for the whole stack; every
    product is per fit, so a fit gets the same bits alone or stacked."""
    t = residuals.shape[-1]
    if method == "plugin":
        if omega is None:
            _check_periods(kind, t)
            omega = residuals @ residuals.swapaxes(-1, -2) / t
        v = _exact_variance(xk, gram_inv, TimeDependenceSpec(), None,
                            _Structured(omega))
        return (*_repair_psd(v), None)
    _check_kernel(kernel)
    _check_periods(kind, t)
    c = (0 if method == "cs" else
         auto_truncation(t, declared) if trunc == "auto" else int(trunc))
    if c < 0:
        raise ValueError("truncation must be nonnegative")
    if c >= t:
        raise TruncTooLarge(f"truncation {c} must be < n_periods {t}")
    u = _scores(xk, residuals, gram_inv)
    ut = u.swapaxes(-1, -2)
    v = ut @ u
    for j in range(1, c + 1):  # every weight at lags 1..c is positive
        a = ut[:, :, j:] @ u[:, :-j]
        v = v + kernel_weight(kernel, j, c) * (a + a.swapaxes(-1, -2))
    return (*_repair_psd(v), None if method == "cs" else c)


def _robust_cov(result: FitResult, method: str, **options) -> RobustCov:
    # _robust_stack on a block of one fit, with the metadata of ``method``
    v, repaired, clipped, lag = _robust_stack(
        result.kind, result.demeaned_x.transpose(2, 0, 1)[np.newaxis],
        result.residuals[np.newaxis], result.gram_inv[np.newaxis],
        method, **options)
    kernel = options["kernel"] if method == "kernel" else None
    return RobustCov(matrix=v[0], method=CovMethod(method), kernel_name=kernel,
                     trunc_lag=lag, psd_repaired=bool(repaired[0]),
                     clipped_mass=float(clipped[0]))


def cov_cross_section(result: FitResult) -> RobustCov:
    """Zero-lag score sandwich, robust to within-period dependence.

    The same matrix as :func:`cov_kernel` at truncation 0, reported as the
    cross-section estimator (no kernel, no truncation lag). A fixed-effect
    panel with fewer than 3 periods raises SingularCov.

    Zero residuals give the zero matrix: singularity is not an error here,
    :func:`~panelcsd.inference.wald` refuses it when it inverts R V R'.
    """
    return _robust_cov(result, "cs")


def _check_kernel(name: str) -> None:
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")


def kernel_weight(name: str, lag: int, trunc: int) -> float:
    """Lag weight K(lag) for the given kernel and truncation."""
    _check_kernel(name)
    if lag == 0:
        return 1.0
    if trunc <= 0 or lag > trunc:
        return 0.0
    if name == "uniform":
        return 1.0
    x = lag / (trunc + 1.0)
    if name == "bartlett":
        return 1.0 - x
    # parzen
    if x <= 0.5:
        return 1.0 - 6.0 * x * x + 6.0 * x ** 3
    return 2.0 * (1.0 - x) ** 3


def cov_kernel(result: FitResult, kernel: str = "bartlett",
               trunc: int | str = "auto", declared: str = "unknown") -> RobustCov:
    """Lag-window score sandwich, robust to serial dependence.

    Parameters
    ----------
    kernel : {"bartlett", "uniform", "parzen"}
    trunc : int or "auto"
        Lag truncation; must be < n_periods. "auto" resolves from
        ``declared``: "pure-cs" gives 0, "ma:<q>" gives q, otherwise
        floor(4 (T/100)^(2/9)).
    declared : str
        The caller's statement about the errors' serial dependence, used
        only when trunc is "auto".

    With truncation 0 this coincides exactly with the zero-lag estimator.
    Negative eigenvalues (possible for the uniform kernel) are clipped and
    flagged on the result. A fixed-effect panel with fewer than 3 periods
    raises SingularCov: its scores are identically zero.
    """
    return _robust_cov(result, "kernel", kernel=kernel, trunc=trunc,
                       declared=declared)


def _sandwich(ak: np.ndarray, base: _Structured,
              bk: np.ndarray) -> np.ndarray:
    # sum_t a_t' (D + U S U') b_t for k-major (..., k, n, t) arrays, with
    # every product one per leading index and nothing bigger than the
    # design formed. With A and B the (k, n*t) flattenings (free reshapes
    # for contiguous designs), D = d I gives d A B'; a dense D ((n, n), or
    # one per leading index) gives k products D b^(l) and A (D B)'. The
    # rank-r part adds (U'A)' S (U'B), with U'A flattened to (k, r*t).
    *lead, k, n, t = ak.shape
    a = ak.reshape(*lead, k, n * t)
    d = base.d
    if np.ndim(d):
        if d.ndim > 2:
            d = d[..., np.newaxis, :, :]
        out = a @ (d @ bk).reshape(*lead, k, n * t).swapaxes(-1, -2)
    else:
        out = d * (a @ bk.reshape(*lead, k, n * t).swapaxes(-1, -2))
    if base.u is not None:
        r = base.u.shape[1]
        ut = base.u.T
        out += ((ut @ ak).reshape(*lead, k, r * t)
                @ (base.s @ (ut @ bk)).reshape(*lead, k, r * t)
                .swapaxes(-1, -2))
    return out


def _weighted_leads(xk: np.ndarray, spec: TimeDependenceSpec) -> np.ndarray:
    # z_t = sum_{j>=1} rho_j x_{t+j} for a k-major (..., k, n, t) design,
    # in the same layout. MA(q) adds q shifted copies; the summable form is
    # z_s = d w_{s+1} with w_s = x_s + d w_{s+1}, the first-order
    # recursion run backward in time, as one product per leading index.
    *lead, k, n, t = xk.shape
    z = np.zeros(xk.shape)
    if spec.form == "ma":
        for j in range(1, spec.max_lag(t) + 1):
            z[..., :t - j] += spec.autocorr(j) * xk[..., j:]
    elif spec.form == "summable":
        d = spec.decay
        rows = np.ascontiguousarray(xk[..., ::-1]).reshape(*lead, k * n, t)
        w = _ar1(rows, d).reshape(xk.shape)[..., ::-1]
        z[..., :-1] = d * w[..., 1:]
    return z


def _exact_variance(xk: np.ndarray, gram_inv: np.ndarray,
                    spec: TimeDependenceSpec, loadings: np.ndarray | None,
                    sigma: _Structured | None) -> np.ndarray:
    # G^{-1} (sum_t x_t' Omega_0 x_t + C + C') G^{-1} for a k-major
    # demeaned design (k, n, t) that gram_inverse has already checked and a
    # symmetric sigma in the structured form (a dense sigma is its ``d``).
    # Omega_0 = sigma + loadings loadings' enters as one form, the loadings
    # as its rank-m part. The lag-j error block is rho_j * B, so
    # C = sum_j rho_j sum_t x_t' B x_{t+j} = sum_t x_t' B z_t with z the
    # weighted leads, one sandwich for all lags. Also takes a stack:
    # xk (B, k, n, t), gram_inv (B, k, k), and a dense sigma (n, n) or one
    # per design.
    n, t = xk.shape[-2:]
    if loadings is not None:
        loadings = np.asarray(loadings, dtype=float)
        if loadings.ndim != 2 or loadings.shape[0] != n:
            raise ValueError(f"loadings must be (n, m) with n={n}")
    if (sigma is not None and np.ndim(sigma.d)
            and sigma.d.shape[-2:] != (n, n)):
        raise ValueError("sigma size does not match the panel cross-section")
    if spec.channel == "none" and loadings is None and sigma is None:
        raise SpecMismatch("need loadings and/or sigma to define the errors")
    if spec.channel == "idio" and sigma is None:
        raise SpecMismatch("idio-channel memory needs sigma")
    if spec.channel == "factor" and (loadings is None
                                     or loadings.shape[1] < 1):
        raise SpecMismatch("factor-channel memory needs loadings")
    common, base = None, sigma
    if loadings is not None:  # sigma then has no rank part of its own
        common = _Structured(0.0, loadings, np.eye(loadings.shape[1]))
        base = common if sigma is None else common._replace(d=sigma.d)
    meat = _sandwich(xk, base, xk)
    if spec.max_lag(t) > 0:
        lag_base = common if spec.channel == "factor" else sigma
        c = _sandwich(xk, lag_base, _weighted_leads(xk, spec))
        meat = meat + (c + c.swapaxes(-1, -2))
    return gram_inv @ meat @ gram_inv


def cov_plugin(result: FitResult, omega: CovMatrix | None = None) -> RobustCov:
    """The known-omega exact variance for an explicit (or residual-estimated)
    error covariance, PSD-repaired.

    Uses the residual outer-product average when ``omega`` is omitted. This
    is the naive plug-in; it is not consistent under fixed n asymptotics and
    exists for comparison. That average is exactly zero in the sandwich of
    a fixed-effect panel with fewer than 3 periods, which raises
    SingularCov.
    """
    if omega is not None and omega.n != result.n_units:
        raise ValueError(f"omega is {omega.n} x {omega.n}, but the panel "
                         f"has {result.n_units} units")
    return _robust_cov(result, "plugin",
                       omega=None if omega is None else omega.values)


def true_variance_cs(x_design: PanelData, kind: EstimatorKind,
                     omega: CovMatrix) -> np.ndarray:
    """Exact conditional variance of the slope estimator for a known design
    and a known within-period error covariance (errors independent across
    periods): :func:`true_variance_mixed` without serial dependence.

    Returns the finite-sample k x k matrix; multiply by
    n_units * n_periods / h_n for the normalized-limit scale.
    """
    return true_variance_mixed(x_design, kind, TimeDependenceSpec(),
                               sigma=omega)


def true_variance_mixed(
    x_design: PanelData,
    kind: EstimatorKind,
    spec: TimeDependenceSpec,
    loadings: np.ndarray | None = None,
    sigma: CovMatrix | None = None,
) -> np.ndarray:
    """Exact conditional k x k slope variance under serially dependent
    errors.

    Like :func:`fit`, raises SingularGram on a rank-deficient design and
    warns with ConditionWarning on an ill-conditioned one. The error lag
    structure is assembled blockwise from ``spec``: the lag-0 block enters
    one sandwich, and every lag-k block (autocorrelation times the memory
    channel's base matrix) enters a second one through the
    autocorrelation-weighted leads of the design, so nothing larger than
    the panel itself is ever allocated. Summable memory sums all T-1 lags.

    Parameters
    ----------
    spec : TimeDependenceSpec
        Which channel carries the memory and its form.
    loadings : ndarray (n, m), optional
        Factor loadings; required for the factor channel, optional
        otherwise (enters the lag-0 block as loadings @ loadings.T).
    sigma : CovMatrix, optional
        Idiosyncratic covariance; required for the idio channel and for a
        serially independent spec without loadings.

    Notes
    -----
    Only the channel's base matrix carries lags; ``loadings`` and ``sigma``
    both enter the lag-0 block. Under the factor channel, leaving ``sigma``
    out keeps only the common component, which asymptotically dominates.
    """
    if sigma is not None and not isinstance(sigma, CovMatrix):
        sigma = CovMatrix(sigma)
    _, xk, _, _, x_scale = _demean_stack(
        x_design.y[np.newaxis], x_design.x[np.newaxis], kind)
    _, gram_inv, _ = gram_inverse(xk, x_scale)
    return _exact_variance(
        xk[0], gram_inv, spec, loadings,
        None if sigma is None else _Structured(sigma.values))
