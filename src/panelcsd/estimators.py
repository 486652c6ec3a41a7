"""Within and pooled panel estimators with per-period weight blocks.

Both estimators are least squares on demeaned data. The within (fixed-effect)
estimator removes each unit's time average; the pooled estimator removes the
grand mean. Neither ever materializes the (n_units * n_periods)^2 projection
matrix: demeaning is done by subtracting averages, which is algebraically the
same projection. :func:`demean` and :func:`gram_inverse` are the one place
both steps live; the fit and the exact variance targets share them, rank and
condition check included. The demeaned design is kept k-major, as a
contiguous (k, n, t) array, which is the layout unit means, the Gram and the
covariance sandwiches all read fastest; ``demeaned_x`` shows it as (n, t, k).

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


def _demean(panel: PanelData, kind: EstimatorKind):
    """The one demean: ``(y_dm, xk, y_bar, x_bar)``.

    ``xk`` is the demeaned design as a contiguous k-major (k, n, t) copy, so
    each unit mean runs over contiguous memory and the design flattens to
    (k, n*t) for free. ``y_bar`` and ``x_bar`` are the means removed (per
    unit under the within estimator, overall under the pooled one), kept
    for the intercepts.
    """
    xk = panel.x.transpose(2, 0, 1).copy()  # always a copy, even at k = 1
    if kind is EstimatorKind.FIXED_EFFECT:
        x_bar = xk.mean(axis=2, keepdims=True)
        y_bar = panel.y.mean(axis=1, keepdims=True)
    elif kind is EstimatorKind.POOLED:
        x_bar = xk.mean(axis=(1, 2), keepdims=True)
        y_bar = panel.y.mean()
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    xk -= x_bar
    return panel.y - y_bar, xk, y_bar, x_bar


def demean(panel: PanelData, kind: EstimatorKind) -> tuple[np.ndarray, np.ndarray]:
    """Demean y and x as the estimator ``kind`` does: within units for the
    fixed-effect estimator, by the grand mean for the pooled one.

    Returns
    -------
    y_dm : ndarray, shape (n_units, n_periods)
    x_dm : ndarray, shape (n_units, n_periods, n_regressors)
        A transposed view of a k-major array.
    """
    y_dm, xk, _, _ = _demean(panel, kind)
    return y_dm, xk.transpose(1, 2, 0)


def within_demean(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Remove unit-specific time averages from y and x."""
    return demean(panel, EstimatorKind.FIXED_EFFECT)


def grand_demean(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Remove the overall mean from y and each regressor."""
    return demean(panel, EstimatorKind.POOLED)


def gram_inverse(x_dm: np.ndarray,
                 x_scale: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Check a demeaned design (n, t, k); return (gram, gram_inv, cond).

    ``x_scale``, the design's Frobenius norm before demeaning (a projection),
    bounds every singular value of the demeaned design: a Gram eigenvalue at
    or below the squared roundoff floor of that scale is an annihilated
    column, even at k = 1, and one within eigensolver roundoff of zero
    (k * eps * lambda_max) is a collinear one. That, or a condition number
    >= COND_FAIL, raises SingularGram; above COND_WARN it warns with
    ConditionWarning. The inverse takes one Newton step past the direct
    inverse. The Gram is formed from the k-major (k, n*t) layout, which is
    free for the designs :func:`demean` and :func:`fit` return.
    """
    n, t, k = x_dm.shape
    xf = x_dm.transpose(2, 0, 1).reshape(k, n * t)
    gram = np.einsum("in,jn->ij", xf, xf)  # 2-3x a BLAS product at k << n*t
    evals = np.linalg.eigvalsh(gram)
    eps = np.finfo(float).eps
    floor = max((eps * max(n * t, k) * x_scale) ** 2, eps * k * evals[-1])
    if evals[0] <= floor:
        raise SingularGram(
            "demeaned design is rank deficient; "
            "a regressor may be constant after demeaning")
    cond = float(evals[-1] / evals[0])
    if not np.isfinite(cond) or cond >= COND_FAIL:
        raise SingularGram(f"demeaned design condition number {cond:.3e} >= {COND_FAIL:.0e}")
    if cond > COND_WARN:
        warnings.warn(
            f"demeaned design condition number {cond:.3e} exceeds {COND_WARN:.0e}",
            ConditionWarning, stacklevel=3)
    gram_inv = np.linalg.inv(gram)
    gram_inv = gram_inv @ (2.0 * np.eye(k) - gram @ gram_inv)
    return gram, gram_inv, cond


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
        A transposed view of a contiguous k-major (k, n, t) array; the
        covariance code reads it in that layout.
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

    :func:`gram_inverse` checks the demeaned design and returns the gram
    inverse needed by covariance estimators. Up to the warning threshold
    COND_WARN the solve uses that checked inverse: the normal-equation
    solution, then two corrections on its residual, each
    ``beta += gram_inv @ X'r``. On a well-conditioned design that agrees
    with an SVD least-squares solve to 1e-12 relative; nearer the
    threshold both stay within about eps * cond(G) of the exact solution.
    Beyond it the solve goes through the SVD of the demeaned design
    (``lstsq``).

    Raises
    ------
    SingularGram
        Rank-deficient demeaned design or condition number >= 1e12. A
        regressor that is constant within every unit (under the within
        estimator) lands here.
    """
    y_dm, xk, y_bar, x_bar = _demean(panel, kind)
    x_dm = xk.transpose(1, 2, 0)
    gram, gram_inv, cond = gram_inverse(x_dm, np.linalg.norm(panel.x))
    k, n, t = xk.shape
    xf = xk.reshape(k, n * t)
    yf = y_dm.reshape(n * t)
    if cond <= COND_WARN:
        beta = gram_inv @ (xf @ yf)
        for _ in range(2):
            beta = beta + gram_inv @ (xf @ (yf - beta @ xf))
    else:
        beta = np.linalg.lstsq(xf.T, yf, rcond=None)[0]
    residuals = (yf - beta @ xf).reshape(n, t)
    if kind is EstimatorKind.FIXED_EFFECT:
        intercepts = y_bar[:, 0] - beta @ x_bar[:, :, 0]
    else:
        intercepts = np.full(n, float(y_bar - beta @ x_bar.ravel()))

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
        condition_warning=cond > COND_WARN,
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
