"""Covariance estimators for demeaned-panel slope estimators.

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

Exact finite-sample variance targets for simulated designs are computed
blockwise from the lag structure of the errors, never materializing the
(n*t) x (n*t) covariance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .config import PSD_REPAIR_REL, auto_truncation
from .errors import (
    NotPSD,
    SingularCov,
    SpecMismatch,
    TruncTooLarge,
)
from .dependence import CovMatrix
from .estimators import EstimatorKind, FitResult, demean, gram_inverse
from .panel import PanelData

__all__ = [
    "CovMethod",
    "RobustCov",
    "TimeDependenceSpec",
    "ma1_coefficient",
    "omega_hat",
    "cov_cross_section",
    "cov_kernel",
    "cov_plugin",
    "true_variance_cs",
    "true_variance_mixed",
]


class CovMethod(enum.Enum):
    PLUG_IN = "plugin"
    CROSS_SECTION = "cs"
    KERNEL = "kernel"


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


@dataclass(frozen=True)
class TimeDependenceSpec:
    """Serial dependence of simulated errors, by channel and form.

    channel: "none" (serially independent), "idio" (the idiosyncratic part
    carries the memory), or "factor" (the common factors carry it).
    form: "ma" with coefficients ``psi`` (psi_0, ..., psi_q), or "summable"
    with a geometric decay rate in (0, 1) realized as a first-order
    autoregression. Autocorrelations are scale-free in psi.

    Lag-k cross-covariances materialize as autocorr(k) times the channel's
    base matrix (idiosyncratic covariance, or loading outer product with
    identity factor variance). Matrix-valued factor autocovariances beyond
    multiples of the identity are not representable here.
    """

    channel: str = "none"
    form: str = "none"
    psi: tuple[float, ...] | None = None
    decay: float | None = None

    def __post_init__(self):
        if self.channel not in ("none", "idio", "factor"):
            raise SpecMismatch(f"unknown channel {self.channel!r}")
        if self.form not in ("none", "ma", "summable"):
            raise SpecMismatch(f"unknown form {self.form!r}")
        if (self.channel == "none") != (self.form == "none"):
            raise SpecMismatch("channel and form must both be 'none' or neither")
        if self.form == "ma":
            if not self.psi or len(self.psi) < 1:
                raise SpecMismatch("ma form needs at least psi_0")
            psi = tuple(float(p) for p in self.psi)
            if not all(np.isfinite(psi)) or sum(p * p for p in psi) <= 0:
                raise SpecMismatch("ma coefficients must be finite and not all zero")
            object.__setattr__(self, "psi", psi)
        if self.form == "summable":
            if self.decay is None or not (0.0 < float(self.decay) < 1.0):
                raise SpecMismatch("summable form needs decay in (0, 1)")
            object.__setattr__(self, "decay", float(self.decay))

    # -- constructors ------------------------------------------------------
    @classmethod
    def none(cls) -> "TimeDependenceSpec":
        return cls()

    @classmethod
    def idio_ma(cls, psi) -> "TimeDependenceSpec":
        return cls(channel="idio", form="ma", psi=tuple(psi))

    @classmethod
    def factor_ma(cls, psi) -> "TimeDependenceSpec":
        return cls(channel="factor", form="ma", psi=tuple(psi))

    @classmethod
    def idio_summable(cls, decay: float) -> "TimeDependenceSpec":
        return cls(channel="idio", form="summable", decay=decay)

    @classmethod
    def factor_summable(cls, decay: float) -> "TimeDependenceSpec":
        return cls(channel="factor", form="summable", decay=decay)

    # -- structure ---------------------------------------------------------
    @property
    def order(self) -> int | None:
        """MA order q, 0 when serially independent, None for summable."""
        if self.form == "none":
            return 0
        if self.form == "ma":
            return len(self.psi) - 1
        return None

    def autocorr(self, lag: int) -> float:
        """Autocorrelation at the given lag (1 at lag 0 by normalization)."""
        lag = abs(int(lag))
        if self.form == "none":
            return 1.0 if lag == 0 else 0.0
        if self.form == "ma":
            psi = np.asarray(self.psi)
            if lag >= len(psi):
                return 0.0
            return float(psi[lag:] @ psi[:len(psi) - lag] / (psi @ psi))
        return float(self.decay ** lag)

    def max_lag(self, n_periods: int, cutoff: float = 1e-16) -> int:
        """Largest lag with a non-negligible autocorrelation, capped at T-1."""
        cap = n_periods - 1
        if self.form == "none":
            return 0
        if self.form == "ma":
            return min(len(self.psi) - 1, cap)
        k = int(np.ceil(np.log(cutoff) / np.log(self.decay)))
        return min(max(k, 0), cap)


def ma1_coefficient(rho1: float) -> float:
    """Invert a lag-1 autocorrelation to a first-order MA coefficient.

    Returns psi with rho1 = psi / (1 + psi^2); requires |rho1| <= 0.5.
    """
    if abs(rho1) > 0.5:
        raise ValueError("a first-order MA cannot exceed |rho1| = 0.5")
    if rho1 == 0.0:
        return 0.0
    return float((1.0 - np.sqrt(1.0 - 4.0 * rho1 * rho1)) / (2.0 * rho1))


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


def _scores(result: FitResult) -> np.ndarray:
    # u_t = G^{-1} x_t' e_t stacked as (T, k).
    return (np.einsum("ntk,nt->tk", result.demeaned_x, result.residuals)
            @ result.gram_inv.T)


def _repair_psd(v: np.ndarray) -> tuple[np.ndarray, bool, float]:
    v = 0.5 * (v + v.T)
    evals, evecs = np.linalg.eigh(v)
    top = float(evals[-1]) if evals.size else 0.0
    floor = -PSD_REPAIR_REL * max(top, 0.0)
    if evals[0] >= floor:
        return v, False, 0.0
    clipped = float(-evals[evals < 0.0].sum())
    evals = np.clip(evals, 0.0, None)
    repaired = (evecs * evals[np.newaxis, :]) @ evecs.T
    return 0.5 * (repaired + repaired.T), True, clipped


def _check_invertible(v: np.ndarray) -> None:
    evals = np.linalg.eigvalsh(v)
    if evals[-1] <= 0.0 or evals[0] <= 1e-12 * evals[-1]:
        raise SingularCov(
            f"covariance is numerically singular (eig range [{evals[0]:.3e}, "
            f"{evals[-1]:.3e}])")


def cov_cross_section(result: FitResult,
                      check_invertible: bool = False) -> RobustCov:
    """Zero-lag score sandwich, robust to within-period dependence.

    This is :func:`cov_kernel` at truncation 0, reported as the
    cross-section estimator (no kernel, no truncation lag).

    With zero residuals the result is the zero matrix; by default singularity
    is not an error here (pass ``check_invertible=True`` to raise
    SingularCov), it surfaces when the matrix is inverted downstream.
    """
    rc = cov_kernel(result, trunc=0, check_invertible=check_invertible)
    return replace(rc, method=CovMethod.CROSS_SECTION, kernel_name=None,
                   trunc_lag=None)


_KERNELS = ("bartlett", "uniform", "parzen")


def kernel_weight(name: str, lag: int, trunc: int) -> float:
    """Lag weight K(lag) for the given kernel and truncation."""
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {_KERNELS}")
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
               trunc: int | str = "auto", declared: str = "unknown",
               check_invertible: bool = False) -> RobustCov:
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
    flagged on the result.
    """
    t = result.n_periods
    if trunc == "auto":
        c = auto_truncation(t, declared)
    else:
        c = int(trunc)
    if c < 0:
        raise ValueError("truncation must be nonnegative")
    if c >= t:
        raise TruncTooLarge(f"truncation {c} must be < n_periods {t}")

    u = _scores(result)
    v = u.T @ u
    for j in range(1, c + 1):
        w = kernel_weight(kernel, j, c)
        if w == 0.0:
            continue
        a = u[j:].T @ u[:-j]
        v = v + w * (a + a.T)
    v, repaired, clipped = _repair_psd(v)
    if check_invertible:
        _check_invertible(v)
    return RobustCov(matrix=v, method=CovMethod.KERNEL, kernel_name=kernel,
                     trunc_lag=c, psd_repaired=repaired, clipped_mass=clipped)


def _sandwich_lagged(x_dm: np.ndarray, base: np.ndarray, lag: int) -> np.ndarray:
    # sum_t x_t' B x_{t+lag}, t = 0..T-1-lag, without forming anything
    # bigger than (n, t, k).
    bx = np.einsum("ij,jtk->itk", base, x_dm[:, lag:, :])
    return np.einsum("itk,itl->kl", x_dm[:, :x_dm.shape[1] - lag, :], bx)


def _exact_variance(x_design: PanelData, kind: EstimatorKind,
                    omega0: np.ndarray,
                    spec: TimeDependenceSpec = TimeDependenceSpec(),
                    lag_base: np.ndarray | None = None) -> np.ndarray:
    # G^{-1} (sum_t x_t' Omega_0 x_t + sum_j rho_j (C_j + C_j')) G^{-1},
    # C_j = sum_t x_t' B x_{t+j}: the lag-j error block is rho_j * B.
    x_dm = demean(x_design, kind)[1]
    _, ginv = gram_inverse(x_dm)
    meat = _sandwich_lagged(x_dm, omega0, 0)
    for j in range(1, spec.max_lag(x_dm.shape[1]) + 1):
        rho = spec.autocorr(j)
        if rho == 0.0:
            continue
        c = _sandwich_lagged(x_dm, lag_base, j)
        meat = meat + rho * (c + c.T)
    return ginv @ meat @ ginv


def cov_plugin(result: FitResult, omega: CovMatrix | None = None) -> RobustCov:
    """Sandwich with an explicit (or residual-estimated) error covariance.

    Uses the residual outer-product average when ``omega`` is omitted. This
    is the naive plug-in; it is not consistent under fixed n asymptotics and
    exists for comparison.
    """
    if omega is None:
        omega = omega_hat(result.residuals)
    meat = _sandwich_lagged(result.demeaned_x, omega.values, 0)
    v = result.gram_inv @ meat @ result.gram_inv
    v, repaired, clipped = _repair_psd(v)
    return RobustCov(matrix=v, method=CovMethod.PLUG_IN,
                     psd_repaired=repaired, clipped_mass=clipped)


def true_variance_cs(x_design: PanelData, kind: EstimatorKind,
                     omega: CovMatrix) -> np.ndarray:
    """Exact conditional variance of the slope estimator for a known design
    and a known within-period error covariance (errors independent across
    periods).

    Returns the finite-sample k x k matrix; multiply by
    n_units * n_periods / h_n for the normalized-limit scale.
    """
    if not isinstance(omega, CovMatrix):
        omega = CovMatrix(omega)
    if omega.n != x_design.n_units:
        raise ValueError("omega size does not match the panel cross-section")
    return _exact_variance(x_design, kind, omega.values)


def true_variance_mixed(
    x_design: PanelData,
    kind: EstimatorKind,
    spec: TimeDependenceSpec,
    loadings: np.ndarray | None = None,
    sigma: CovMatrix | None = None,
) -> tuple[np.ndarray, str]:
    """Exact conditional slope variance under serially dependent errors.

    The error lag structure is assembled blockwise from ``spec``: the lag-0
    block and each lag-k block (autocorrelation times the memory channel's
    base matrix) enter the sandwich directly, so nothing larger than the
    panel itself is ever allocated.

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

    Returns
    -------
    (variance, structure) : (ndarray (k, k), str)
        ``structure`` names the implied stacked-covariance layout:
        "cross_section_only", "banded_full_cov", "toeplitz_full_cov",
        "banded_factor_cov", or "toeplitz_factor_cov".

    Notes
    -----
    The factor channel's covariance target keeps only the common component
    (its idiosyncratic part is serially independent and asymptotically
    dominated); pass the idio channel to keep both.
    """
    n = x_design.n_units
    if loadings is not None:
        loadings = np.asarray(loadings, dtype=float)
        if loadings.ndim != 2 or loadings.shape[0] != n:
            raise ValueError(f"loadings must be (n, m) with n={n}")
    if sigma is not None and not isinstance(sigma, CovMatrix):
        sigma = CovMatrix(sigma)
    if sigma is not None and sigma.n != n:
        raise ValueError("sigma size does not match the panel cross-section")

    if spec.channel == "none":
        if loadings is None and sigma is None:
            raise SpecMismatch("need loadings and/or sigma to define the errors")
        omega0 = np.zeros((n, n))
        if loadings is not None:
            omega0 += loadings @ loadings.T
        if sigma is not None:
            omega0 += sigma.values
        return _exact_variance(x_design, kind, omega0), "cross_section_only"

    if spec.channel == "idio":
        if sigma is None:
            raise SpecMismatch("idio-channel memory needs sigma")
        lag_base = sigma.values
        omega0 = sigma.values.copy()
        if loadings is not None:
            omega0 = omega0 + loadings @ loadings.T
        structure = ("banded_full_cov" if spec.form == "ma"
                     else "toeplitz_full_cov")
    else:  # factor channel
        if loadings is None or loadings.shape[1] < 1:
            raise SpecMismatch("factor-channel memory needs loadings")
        lag_base = loadings @ loadings.T
        omega0 = lag_base
        structure = ("banded_factor_cov" if spec.form == "ma"
                     else "toeplitz_factor_cov")

    return _exact_variance(x_design, kind, omega0, spec, lag_base), structure
