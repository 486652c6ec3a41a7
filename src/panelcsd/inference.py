"""Wald tests of linear restrictions and the chi-square reference.

The statistic for restrictions R beta = r is

    (R b - r)' [R V R']^(-1) (R b - r)

with b the estimated slopes and V their covariance estimate; its reference
distribution is chi-square with q = rank(R) degrees of freedom. p-values are
asymptotic only; no finite-sample degrees-of-freedom correction is applied.

The chi-square tail is a finite sum at integer degrees of freedom, computed
with the standard library's ``math`` alone, so the package needs numpy and
nothing else; every Monte Carlo worker imports only that.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .covariance import RobustCov
from .errors import DomainError, SingularRestrictedCov, UsageError

__all__ = [
    "LinearRestriction",
    "TestResult",
    "parse_restrictions",
    "wald",
    "chi2_sf",
]


@dataclass(frozen=True)
class LinearRestriction:
    """q linear restrictions R beta = r with R full row rank.

    ``matrix`` is (q, k) and ``value`` is (q,). Rank deficiency (redundant
    or contradictory-but-dependent rows) is rejected at construction.
    """

    matrix: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        v = np.atleast_1d(np.asarray(self.value, dtype=float))
        if r.ndim != 2 or v.ndim != 1 or r.shape[0] != v.shape[0]:
            raise UsageError("restriction shapes must be (q, k) and (q,)")
        if r.shape[0] < 1 or r.shape[0] > r.shape[1]:
            raise UsageError(
                f"need 1 <= q <= k restrictions, got q={r.shape[0]}, k={r.shape[1]}")
        if not (np.isfinite(r).all() and np.isfinite(v).all()):
            raise UsageError("restrictions contain non-finite values")
        svals = np.linalg.svd(r, compute_uv=False)
        if svals[-1] <= 1e-12 * max(svals[0], 1.0):
            raise UsageError("restriction matrix is rank deficient")
        object.__setattr__(self, "matrix", r)
        object.__setattr__(self, "value", v)

    @property
    def q(self) -> int:
        return self.matrix.shape[0]


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*\*?\s*)?"
    r"(?:b(?P<idx>\d+))?")


def _parse_side(side: str, k: int, where: str) -> tuple[np.ndarray, float]:
    """Parse one side of an equation into (coefficient row, constant)."""
    row = np.zeros(k)
    const = 0.0
    pos = 0
    side = side.strip()
    if not side:
        raise UsageError(f"empty {where} side in restriction")
    saw_term = False
    while pos < len(side):
        m = _TERM_RE.match(side, pos)
        if m is None or m.end() == pos:
            raise UsageError(f"cannot parse restriction near {side[pos:]!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        coef = m.group("coef")
        idx = m.group("idx")
        if coef is None and idx is None:
            raise UsageError(f"cannot parse restriction near {side[pos:]!r}")
        if idx is not None:
            j = int(idx)
            if not (1 <= j <= k):
                raise UsageError(f"coefficient b{j} out of range 1..{k}")
            row[j - 1] += sign * (float(coef) if coef else 1.0)
        else:
            const += sign * float(coef)
        saw_term = True
        pos = m.end()
        while pos < len(side) and side[pos] == " ":
            pos += 1
    if not saw_term:
        raise UsageError(f"no terms on {where} side")
    return row, const


def parse_restrictions(text: str, k: int) -> LinearRestriction:
    """Parse restriction strings like "b1=0, b2=b3, 2*b1+3*b2=1".

    Coefficients are named b1..bk. Each comma-separated equation may have
    linear combinations on both sides; everything is moved to the canonical
    form R beta = r. Redundant equations raise (rank-deficient R).
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    eqs = [e for e in (piece.strip() for piece in text.split(",")) if e]
    if not eqs:
        raise UsageError("no restrictions given")
    rows, vals = [], []
    for eq in eqs:
        if eq.count("=") != 1:
            raise UsageError(f"restriction {eq!r} needs exactly one '='")
        left, right = eq.split("=")
        lrow, lconst = _parse_side(left, k, "left")
        rrow, rconst = _parse_side(right, k, "right")
        rows.append(lrow - rrow)
        vals.append(rconst - lconst)
    return LinearRestriction(matrix=np.vstack(rows), value=np.array(vals))


# Stirling series coefficients B_2k / (2k (2k - 1)) of log Gamma, k = 1..8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _log1pmx(u: float) -> float:
    """log(1 + u) - u for |u| < 1/2, without the cancellation of the direct
    difference: with w = u / (2 + u), it is -u w + 2 (w^3/3 + w^5/5 + ...)."""
    w = u / (2.0 + u)
    w2 = w * w
    total, power, k = -u * w, w * w2, 3
    while abs(power) > 1e-17 * abs(total):
        total += 2.0 * power / k
        power *= w2
        k += 2
    return total


def _log_poisson_term(a: float, h: float) -> float:
    """log(h^a e^-h / Gamma(a + 1)) for a >= 0 and h > 0.

    The direct form errs by a few ulps of its largest part. Above a = 10,
    a log h and log Gamma(a + 1) are both near a log a and mostly cancel,
    so Stirling's series rewrites their difference as a (log(1 + u) - u)
    with u = (h - a) / a, whose error stays near one ulp of the result.
    """
    if a < 10.0:
        return a * math.log(h) - h - math.lgamma(a + 1.0)
    u = (h - a) / a
    core = (a * _log1pmx(u) if abs(u) < 0.5
            else a * math.log(h / a) - (h - a))
    inv2 = 1.0 / (a * a)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return core - 0.5 * math.log(2.0 * math.pi * a) - series / a


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X > x) for dof degrees of freedom.

    With h = x/2, an even dof gives e^-h sum_{j < dof/2} h^j / j! and an odd
    dof gives erfc(sqrt h) + e^-h sum_{j=1}^{(dof-1)/2} h^(j-1/2) /
    Gamma(j + 1/2). Each term is exponentiated from its logarithm, so the sum
    does not underflow where e^-h alone does (x = dof = 3000). Relative
    error is within 1e-12 wherever the value is above 1e-300.
    Raises DomainError for x < 0 or a non-positive integer dof.
    """
    if not float(x) >= 0.0 or not np.isfinite(x):
        raise DomainError(f"chi2_sf needs x >= 0 and finite, got {x!r}")
    dof_int = int(dof)
    if dof_int != dof or dof_int < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    h = float(x) / 2.0
    if h == 0.0:
        return 1.0
    odd = dof_int % 2
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    return math.fsum([head, *(math.exp(_log_poisson_term(j + 0.5 * odd, h))
                              for j in range(dof_int // 2))])


def wald(beta_hat: np.ndarray, cov, restriction: LinearRestriction) -> TestResult:
    """Wald test of R beta = r.

    Parameters
    ----------
    beta_hat : ndarray (k,)
    cov : RobustCov or ndarray (k, k)
        Covariance of beta_hat.
    restriction : LinearRestriction

    Raises
    ------
    SingularRestrictedCov
        When R V R' is numerically singular.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    if isinstance(cov, RobustCov):
        v = cov.matrix
        method = cov.metadata()
    else:
        v = np.asarray(cov, dtype=float)
        method = {"method": "external"}
    k = beta_hat.shape[0]
    if v.shape != (k, k):
        raise ValueError(f"covariance shape {v.shape} does not match k={k}")
    if restriction.matrix.shape[1] != k:
        raise UsageError(
            f"restriction has {restriction.matrix.shape[1]} columns, need {k}")

    stat, singular, evals = _wald_stack(beta_hat[np.newaxis], v[np.newaxis],
                                        restriction)
    if singular[0]:
        raise SingularRestrictedCov(
            f"restricted covariance is numerically singular "
            f"(eig range [{evals[0, 0]:.3e}, {evals[0, -1]:.3e}])")
    stat = max(float(stat[0]), 0.0)
    q = restriction.q
    return TestResult(statistic=stat, dof=q, p_value=chi2_sf(stat, q),
                      method=method)


def _wald_stack(beta: np.ndarray, v: np.ndarray,
                restriction: LinearRestriction):
    """Wald statistics for a stack of estimates beta (B, k) and covariances
    v (B, k, k), unclamped; which R V R' are numerically singular (their
    statistics are meaningless); and the eigenvalues (B, q) that decide it.
    Every product and solve is per estimate, so an estimate gets the same
    bits alone or in a stack."""
    r_mat, r_val = restriction.matrix, restriction.value
    gap = (r_mat @ beta[..., np.newaxis])[..., 0] - r_val
    s = r_mat @ v @ r_mat.T
    s = 0.5 * (s + s.swapaxes(-1, -2))
    evals = np.linalg.eigvalsh(s)
    singular = (evals[:, -1] <= 0.0) | (evals[:, 0] <= 1e-12 * evals[:, -1])
    if singular.any():
        s[singular] = np.eye(restriction.q)  # an invertible stand-in
    sol = np.linalg.solve(s, gap[..., np.newaxis])
    return (gap[:, np.newaxis, :] @ sol)[:, 0, 0], singular, evals


@dataclass(frozen=True)
class TestResult:
    """Wald statistic, degrees of freedom, asymptotic p-value, and the
    covariance metadata that produced it."""

    statistic: float
    dof: int
    p_value: float
    method: dict
