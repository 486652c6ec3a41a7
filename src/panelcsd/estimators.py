"""Within and pooled panel estimators with per-period weight blocks.

Both estimators are least squares on demeaned data. The within (fixed-effect)
estimator removes each unit's time average; the pooled estimator removes the
grand mean. Neither ever materializes the (n_units * n_periods)^2 projection
matrix: demeaning is done by subtracting averages, which is algebraically the
same projection. :func:`demean` and :func:`gram_inverse` are the one place
both steps live; the fit and the exact variance targets share them.

The per-period weight blocks expose the estimator as a linear map of the
errors: beta_hat - beta = sum_t blocks[t] @ eps[:, t]. They are the reference
the tests check the covariance estimators against; the covariance code itself
forms the per-period scores directly from the demeaned design and residuals.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .config import COND_FAIL, COND_WARN
from .errors import ConditionWarning, SingularGram
from .panel import PanelData

__all__ = [
    "EstimatorKind",
    "FitResult",
    "WeightBlocks",
    "within_demean",
    "grand_demean",
    "demean",
    "gram_inverse",
    "fit",
    "weight_blocks",
]


class EstimatorKind(enum.Enum):
    FIXED_EFFECT = "fe"
    POOLED = "pooled"


def within_demean(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Remove unit-specific time averages from y and x.

    Returns
    -------
    y_dm : ndarray, shape (n_units, n_periods)
    x_dm : ndarray, shape (n_units, n_periods, n_regressors)
    """
    y_dm = panel.y - panel.y.mean(axis=1, keepdims=True)
    x_dm = panel.x - panel.x.mean(axis=1, keepdims=True)
    return y_dm, x_dm


def grand_demean(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Remove the overall mean from y and each regressor."""
    y_dm = panel.y - panel.y.mean()
    x_dm = panel.x - panel.x.mean(axis=(0, 1), keepdims=True)
    return y_dm, x_dm


def demean(panel: PanelData, kind: EstimatorKind) -> tuple[np.ndarray, np.ndarray]:
    """Demean y and x as the estimator ``kind`` does: within units for the
    fixed-effect estimator, by the grand mean for the pooled one."""
    if kind is EstimatorKind.FIXED_EFFECT:
        return within_demean(panel)
    if kind is EstimatorKind.POOLED:
        return grand_demean(panel)
    raise ValueError(f"unknown estimator kind {kind!r}")


def gram_inverse(x_dm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of a demeaned design (n, t, k) and its inverse.

    The inverse takes one Newton step past the direct inverse, which
    tightens gram @ gram_inv toward the identity.
    """
    n, t, k = x_dm.shape
    xf = x_dm.reshape(n * t, k)
    gram = xf.T @ xf
    gram_inv = np.linalg.inv(gram)
    gram_inv = gram_inv @ (2.0 * np.eye(k) - gram @ gram_inv)
    return gram, gram_inv


@dataclass(frozen=True)
class FitResult:
    """Output of :func:`fit`.

    Attributes
    ----------
    kind : EstimatorKind
    beta_hat : ndarray, shape (k,)
    gram : ndarray, shape (k, k)
        Cross-product of the demeaned regressors.
    gram_inv : ndarray, shape (k, k)
        Its inverse (one refinement step past the direct inverse).
    residuals : ndarray, shape (n, t)
        Demeaned-data residuals; row sums vanish under the within estimator
        and the overall sum vanishes under the pooled estimator.
    demeaned_y : ndarray, shape (n, t)
    demeaned_x : ndarray, shape (n, t, k)
    intercepts : ndarray, shape (n,)
        Recovered unit effects (constant across units for pooled).
    condition_number : float
        Squared singular-value ratio of the demeaned design.
    condition_warning : bool
        True when condition_number exceeded the warning threshold.
    """

    kind: EstimatorKind
    beta_hat: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray
    residuals: np.ndarray
    demeaned_y: np.ndarray
    demeaned_x: np.ndarray
    intercepts: np.ndarray
    condition_number: float
    condition_warning: bool

    @property
    def n_units(self) -> int:
        return self.residuals.shape[0]

    @property
    def n_periods(self) -> int:
        return self.residuals.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.beta_hat.shape[0]


def fit(panel: PanelData, kind: EstimatorKind = EstimatorKind.FIXED_EFFECT) -> FitResult:
    """Estimate slope coefficients by least squares on demeaned data.

    The solve goes through the SVD of the demeaned design (no normal
    equations), and the gram inverse needed by covariance estimators is
    computed afterwards with one Newton refinement step.

    Raises
    ------
    SingularGram
        Rank-deficient demeaned design or condition number >= 1e12. A
        regressor that is constant within every unit (under the within
        estimator) lands here.
    """
    y_dm, x_dm = demean(panel, kind)
    n, t, k = x_dm.shape
    xf = x_dm.reshape(n * t, k)
    yf = y_dm.reshape(n * t)

    beta, _, rank, svals = np.linalg.lstsq(xf, yf, rcond=None)
    # Demeaning is a projection, so any real singular value of the demeaned
    # design is bounded by the raw design's Frobenius norm; values below the
    # roundoff floor of that scale mean a column was annihilated.
    floor = np.finfo(float).eps * max(n * t, k) * np.linalg.norm(panel.x)
    if rank < k or svals[-1] <= floor:
        raise SingularGram(
            "demeaned design is rank deficient "
            f"(rank {rank} < {k}); a regressor may be constant after demeaning")
    cond = float((svals[0] / svals[-1]) ** 2)
    if not np.isfinite(cond) or cond >= COND_FAIL:
        raise SingularGram(f"demeaned design condition number {cond:.3e} >= {COND_FAIL:.0e}")
    cond_warn = cond > COND_WARN
    if cond_warn:
        warnings.warn(
            f"demeaned design condition number {cond:.3e} exceeds {COND_WARN:.0e}",
            ConditionWarning, stacklevel=2)

    gram, gram_inv = gram_inverse(x_dm)
    residuals = (yf - xf @ beta).reshape(n, t)
    if kind is EstimatorKind.FIXED_EFFECT:
        intercepts = panel.y.mean(axis=1) - panel.x.mean(axis=1) @ beta
    else:
        grand = float(panel.y.mean()) - float(panel.x.mean(axis=(0, 1)) @ beta)
        intercepts = np.full(n, grand)

    return FitResult(
        kind=kind,
        beta_hat=beta,
        gram=gram,
        gram_inv=gram_inv,
        residuals=residuals,
        demeaned_y=y_dm,
        demeaned_x=x_dm,
        intercepts=intercepts,
        condition_number=cond,
        condition_warning=bool(cond_warn),
    )


@dataclass(frozen=True)
class WeightBlocks:
    """Per-period weight matrices of the fitted estimator.

    ``blocks[t]`` is the (k, n) matrix mapping period-t errors into the
    estimation error: beta_hat - beta = sum_t blocks[t] @ eps[:, t]. The
    blocks resolve the unit: sum_t blocks[t] @ x_dm[:, t, :] is the k x k
    identity, and applying them to the demeaned outcome returns beta_hat.
    """

    blocks: list[np.ndarray]

    def stacked(self) -> np.ndarray:
        """All blocks as one (n_periods, k, n_units) array."""
        return np.stack(self.blocks, axis=0)


def weight_blocks(result: FitResult) -> WeightBlocks:
    """Compute the per-period weight blocks of a fitted estimator."""
    ginv = result.gram_inv
    x_dm = result.demeaned_x
    blocks = [ginv @ x_dm[:, t, :].T for t in range(result.n_periods)]
    return WeightBlocks(blocks=blocks)
