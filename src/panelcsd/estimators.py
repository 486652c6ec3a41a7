"""Within and pooled panel estimators with per-period weight blocks.

Both estimators are least squares on demeaned data. The within (fixed-effect)
estimator removes each unit's time average; the pooled estimator removes the
grand mean. Neither ever materializes the (n_units * n_periods)^2 projection
matrix: demeaning is done by subtracting averages, which is algebraically the
same projection. :func:`demean` and :func:`gram_inverse` are the one place
both steps live; the fit and the exact variance targets share them, rank and
condition check included. The demeaned design is kept k-major, as a
contiguous (k, n, t) array, which is the layout unit means, the Gram and the
covariance sandwiches all read fastest. Every stacked stage, here and in
:mod:`panelcsd.covariance`, takes it in that layout; only the public
``FitResult.demeaned_x`` and :func:`demean` show it as an (n, t, k) view.

The demean, the Gram check and the solve work on stacks of panels (a
leading axis of B): the Monte Carlo workers run them on blocks of
replications, and :func:`fit` is the same kernel on a stack of one. Every
stacked step is a per-panel product or solve, so a panel gets the same bits
alone or in a stack of any size.

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
from .panel import PanelData, _fields_equal

__all__ = [
    "EstimatorKind",
    "FitResult",
    "WeightBlocks",
    "demean",
    "fit",
    "weight_blocks",
]


class EstimatorKind(enum.Enum):
    FIXED_EFFECT = "fe"
    POOLED = "pooled"


def _demean_stack(y: np.ndarray, x: np.ndarray, kind: EstimatorKind):
    """The one demean, for a stack of panels y (B, n, t) and x (B, n, t, k):
    ``(y_dm, xk, y_bar, x_bar, x_scale)``.

    ``xk`` is the demeaned design as a contiguous k-major (B, k, n, t) copy,
    so each unit mean runs over contiguous memory and each design flattens
    to (k, n*t) for free. ``y_bar`` and ``x_bar`` are the means removed (per
    unit under the within estimator, overall under the pooled one), kept
    for the intercepts. ``x_scale`` (B,) is the one design scale of
    :func:`gram_inverse`: ``np.linalg.norm`` of each C- or F-ordered design.
    """
    xr = x.reshape(len(x), 1, -1, order="A")  # memory order, as norm reads
    x_scale = np.sqrt(xr @ xr.swapaxes(-1, -2))[:, 0, 0]
    xk = x.transpose(0, 3, 1, 2).copy()  # always a copy, even at k = 1
    if kind is EstimatorKind.FIXED_EFFECT:
        x_bar = xk.mean(axis=3, keepdims=True)
        y_bar = y.mean(axis=2, keepdims=True)
    elif kind is EstimatorKind.POOLED:
        x_bar = xk.mean(axis=(2, 3), keepdims=True)
        y_bar = y.mean(axis=(1, 2), keepdims=True)
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    xk -= x_bar
    return y - y_bar, xk, y_bar, x_bar, x_scale


def demean(panel: PanelData, kind: EstimatorKind) -> tuple[np.ndarray, np.ndarray]:
    """Demean y and x as the estimator ``kind`` does: within units for the
    fixed-effect estimator, by the grand mean for the pooled one.

    Returns
    -------
    y_dm : ndarray, shape (n_units, n_periods)
    x_dm : ndarray, shape (n_units, n_periods, n_regressors)
        A transposed view of a k-major array.
    """
    y_dm, xk, *_ = _demean_stack(panel.y[np.newaxis], panel.x[np.newaxis],
                                 kind)
    return y_dm[0], xk[0].transpose(1, 2, 0)


# Verdicts of :func:`_gram_stack` on each design of a stack.
_GRAM_OK, _GRAM_RANK, _GRAM_COND = 0, 1, 2


def _gram_stack(xk: np.ndarray, x_scale: np.ndarray):
    """Gram matrices (B, k, k) of a stack of k-major demeaned designs
    (B, k, n, t), their condition numbers (B,), and a verdict per design:
    _GRAM_OK, _GRAM_RANK (rank deficient) or _GRAM_COND (condition number
    >= COND_FAIL or not finite). :func:`gram_inverse` states the rule.

    Each Gram is its own einsum (2-3x a BLAS product at k << n*t; one
    einsum over the stack would split long sums by stack size) and the
    eigenvalues are one stacked solve, so a design gets the same bits alone
    or in a stack.
    """
    b, k, n, t = xk.shape
    gram = np.empty((b, k, k))
    for i, xf in enumerate(xk.reshape(b, k, n * t)):
        gram[i] = np.einsum("in,jn->ij", xf, xf)
    evals = np.linalg.eigvalsh(gram)
    eps = np.finfo(float).eps
    floor = np.maximum((eps * max(n * t, k) * x_scale) ** 2,
                       eps * k * evals[:, -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = evals[:, -1] / evals[:, 0]
    # past the rank check both eigenvalues are positive, so a cond that is
    # not below COND_FAIL is too large, infinite or NaN
    verdict = np.where(evals[:, 0] <= floor, _GRAM_RANK,
                       np.where(cond < COND_FAIL, _GRAM_OK, _GRAM_COND))
    return gram, cond, verdict


def _refined_inverse(gram: np.ndarray) -> np.ndarray:
    """Inverses of a stack of checked Grams, one Newton step past the
    direct inverse."""
    gram_inv = np.linalg.inv(gram)
    return gram_inv @ (2.0 * np.eye(gram.shape[-1]) - gram @ gram_inv)


def gram_inverse(xk: np.ndarray,
                 x_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Check one demeaned design, a stack of one as :func:`_demean_stack`
    returns it: ``xk`` (1, k, n, t) and ``x_scale`` (1,). Returns (gram,
    gram_inv, cond) of that design.

    ``x_scale``, the design's Frobenius norm before demeaning (a projection),
    bounds every singular value of the demeaned design: a Gram eigenvalue at
    or below the squared roundoff floor of that scale is an annihilated
    column, even at k = 1, and one within eigensolver roundoff of zero
    (k * eps * lambda_max) is a collinear one. That, or a condition number
    >= COND_FAIL, raises SingularGram; above COND_WARN it warns with
    ConditionWarning. The inverse takes one Newton step past the direct
    inverse. This is the stacked check the Monte Carlo workers run, on a
    stack of one.
    """
    gram, cond, verdict = _gram_stack(xk, x_scale)
    cond = float(cond[0])
    if verdict[0] == _GRAM_RANK:
        raise SingularGram(
            "demeaned design is rank deficient; "
            "a regressor may be constant after demeaning")
    if verdict[0] == _GRAM_COND:
        raise SingularGram(f"demeaned design condition number {cond:.3e} >= {COND_FAIL:.0e}")
    if cond > COND_WARN:
        warnings.warn(
            f"demeaned design condition number {cond:.3e} exceeds {COND_WARN:.0e}",
            ConditionWarning, stacklevel=3)
    return gram[0], _refined_inverse(gram)[0], cond


def _solve_stack(xk: np.ndarray, y_dm: np.ndarray, gram_inv: np.ndarray):
    """Slopes (B, k) and residuals (B, n, t) of a stack of demeaned panels
    from their checked Gram inverses: the normal-equation solution, then
    two corrections on its residual, each ``beta += gram_inv @ X'r``."""
    b, k, n, t = xk.shape
    xf = xk.reshape(b, k, n * t)
    yf = y_dm.reshape(b, n * t)

    def step(r):  # gram_inv @ X'r for residual rows r (B, n*t)
        return (gram_inv @ (xf @ r[..., np.newaxis]))[..., 0]

    def residuals(beta):  # y - X beta: a BLAS product per panel, but at
        # k = 1, where matmul would not call BLAS, the product itself
        if k == 1:
            return yf - xf[:, 0] * beta
        return yf - (beta[:, np.newaxis, :] @ xf)[:, 0]

    beta = step(yf)
    for _ in range(2):
        beta = beta + step(residuals(beta))
    return beta, residuals(beta).reshape(b, n, t)


def _fit_stack(y: np.ndarray, x: np.ndarray, kind: EstimatorKind):
    """Fit a stack of panels y (B, n, t), x (B, n, t, k) as :func:`fit` fits
    each one, keeping the panels that are finite (PanelData rejects the
    others) and whose design passes the check with a condition number up to
    COND_WARN (the others need fit's exception, warning or ``lstsq``).
    Returns the kept indices and their demeaned designs (contiguous k-major
    (b, k, n, t) arrays), residuals, Gram inverses and slopes."""
    kept = np.flatnonzero(np.isfinite(y).all(axis=(1, 2))
                          & np.isfinite(x).all(axis=(1, 2, 3)))
    if len(kept) < len(x):
        y, x = y[kept], x[kept]
    y_dm, xk, _, _, x_scale = _demean_stack(y, x, kind)
    gram, cond, verdict = _gram_stack(xk, x_scale)
    usable = (verdict == _GRAM_OK) & (cond <= COND_WARN)
    if not usable.all():
        kept, xk, y_dm = kept[usable], xk[usable], y_dm[usable]
        gram = gram[usable]
    gram_inv = _refined_inverse(gram)
    beta, residuals = _solve_stack(xk, y_dm, gram_inv)
    return kept, xk, residuals, gram_inv, beta


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

    __eq__ = _fields_equal

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
    y_dm, xk, y_bar, x_bar, x_scale = _demean_stack(
        panel.y[np.newaxis], panel.x[np.newaxis], kind)
    gram, gram_inv, cond = gram_inverse(xk, x_scale)
    k, n, t = xk.shape[1:]
    if cond <= COND_WARN:
        beta, residuals = _solve_stack(xk, y_dm, gram_inv[np.newaxis])
        beta, residuals = beta[0], residuals[0]
    else:
        xf = xk[0].reshape(k, n * t)
        yf = y_dm[0].reshape(n * t)
        beta = np.linalg.lstsq(xf.T, yf, rcond=None)[0]
        residuals = (yf - beta @ xf).reshape(n, t)
    if kind is EstimatorKind.FIXED_EFFECT:
        intercepts = y_bar[0, :, 0] - beta @ x_bar[0, :, :, 0]
    else:
        intercepts = np.full(n, float(y_bar[0, 0, 0]
                                      - beta @ x_bar[0, :, 0, 0]))

    return FitResult(
        kind=kind,
        beta_hat=beta,
        gram=gram,
        gram_inv=gram_inv,
        residuals=residuals,
        demeaned_y=y_dm[0],
        demeaned_x=xk[0].transpose(1, 2, 0),
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
