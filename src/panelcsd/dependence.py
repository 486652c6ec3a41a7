"""Cross-sectional dependence diagnostics.

The strength of dependence in an n x n error covariance is summarized by how
matrix norms grow with n: the largest eigenvalue, the maximum absolute row
sum, the Euclidean entry norm scaled by 1/sqrt(n), and the absolute entry sum
scaled by 1/n. For positive semidefinite matrices they are ordered,

    euclid_scaled <= max_eig <= max_row_sum,

so the eigenvalue norm is bracketed by two norms that never need an
eigensolve. A family of matrices indexed by n is classified by the fitted
log-log growth exponent of the eigenvalue norm: bounded norms mean weak
dependence, linear growth means strong (factor-like) dependence, anything in
between is moderate.

A :class:`CovMatrix` is either a dense symmetric matrix or a form of small
rank (:class:`_Structured`), whose exact spectrum and blocks of rows it
reads without forming an n x n array.

A strong family can be split into an explicit factor part and a weakly
dependent remainder: with eigenvalues l_1 <= ... <= l_n and eigenvectors p_i,
the top m directions carry loadings scaled by delta_i = l_{n-m+i} - c_i * l_1
and the remainder keeps the low spectrum plus c_i * l_1 in the factor
directions. The two parts add back to the original matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import NamedTuple

import numpy as np

from .config import (
    EIG_CLIP_REL,
    EIGEN_RATIO_M_MAX,
    EIGEN_RATIO_MIN,
    NORM_BLOCK_ELEMENTS,
    PSD_RTOL,
    STRONG_ALPHA_MIN,
    SYMMETRY_RTOL,
    WEAK_ALPHA_MAX,
)
from .errors import (
    DegenerateFamily,
    EigenFailure,
    NegativeDelta,
    NotPSD,
    RankDeficient,
)

__all__ = [
    "CovMatrix",
    "Regime",
    "DependenceProfile",
    "FactorSplit",
    "FourthMomentBounds",
    "norm_max_eig",
    "norm_max_row_sum",
    "norm_euclid_scaled",
    "norm_taxicab_scaled",
    "norm_euclid",
    "all_norms",
    "classify",
    "select_n_factors",
    "factor_decompose",
    "fourth_moment_lower_bound",
]

import enum


class Regime(enum.Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


class _Structured(NamedTuple):
    """A symmetric n x n matrix as D + U S U', and the one code that does
    arithmetic with that form. ``d`` is a number (D = d I) or a dense
    (n, n) array (D = d, or one per leading index of a stack); ``u`` is
    (n, r) and ``s`` a symmetric (r, r) core, both None when r = 0.

    The covariance families whose dependence comes from common components
    (diagonal, equicorrelated, block-diagonal, a hub, a factor model) are
    c I + U S U' with a number c and a small r. U has orthonormal columns
    (one per block for the block family, so ceil(n / size) of them for
    blocks of a fixed size), except a factor model's, whose U is the
    loadings and whose S is the identity. A dense covariance or root is the
    form with r = 0. The methods read U only through U'z, U w, rows of U,
    its R factor and its width r, at O(n r) per column of z or w.
    """

    d: float | np.ndarray
    u: np.ndarray | None = None
    s: np.ndarray | None = None

    @classmethod
    def equicorrelation(cls, diag: float, off: float, n: int) -> "_Structured":
        """``diag`` on the diagonal and ``off`` elsewhere: (diag - off) I +
        off n e e' with the unit vector e = 1 / sqrt(n)."""
        return cls(diag - off, np.full((n, 1), 1.0 / np.sqrt(n)),
                   np.array([[off * n]]))

    def rows(self, n: int, rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of c I + U S U' (a number c): (U S) U' over those
        rows, or zeros when r = 0, with c added on the diagonal."""
        lo, hi, _ = rows.indices(n)
        out = (np.zeros((hi - lo, n)) if self.u is None
               else (self.u[rows] @ self.s) @ self.u.T)
        out.flat[lo::n + 1] += self.d
        return out

    def spectrum(self, n: int) -> np.ndarray:
        """The eigenvalues of c I + U S U' (a number c) in ascending order:
        with U = Q R (R k x r, k = min(n, r)), the matrix is
        c I + Q (R S R') Q', so they are c plus those of the k x k R S R',
        and c n - k times more."""
        spectrum = np.full(n, float(self.d))
        if self.u is not None:
            r = np.linalg.qr(self.u, mode="r")
            core = r @ self.s @ r.T
            spectrum[:len(core)] += np.linalg.eigvalsh(0.5 * (core + core.T))
        return np.sort(spectrum)

    def root(self) -> "_Structured":
        """The symmetric root of c I + U S U' with orthonormal U, in the
        same form: sqrt(c) I + U (sqrt(c I + S) - sqrt(c) I) U', from an
        eigensolve of S. Like :meth:`CovMatrix.sqrt`, it clamps to zero the
        eigenvalues within ``EIG_CLIP_REL`` of the largest and clips negative
        ones, so a rank-deficient matrix gets a root of the same rank."""
        if self.u is None:
            return _Structured(np.sqrt(self.d))
        lam, q = np.linalg.eigh(self.s)
        vals = np.clip(np.append(self.d + lam, self.d), 0.0, None)  # core, c
        vals[vals <= EIG_CLIP_REL * vals.max()] = 0.0
        root_c = np.sqrt(vals[-1])
        return _Structured(root_c, self.u,
                           (q * (np.sqrt(vals[:-1]) - root_c)) @ q.T)

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """The form times z shaped (n, m) or a stack (..., n, m): d z +
        U (S (U' z)), or the dense product d @ z. Every product is per
        stacked slice, so a slice gets the same bits alone or stacked."""
        out = self.d @ z if np.ndim(self.d) else self.d * z
        if self.u is not None:
            out += self.u @ (self.s @ (self.u.T @ z))
        return out

    def sandwich(self, ak: np.ndarray, bk: np.ndarray) -> np.ndarray:
        """sum_t a_t' (D + U S U') b_t for k-major (..., k, n, t) arrays,
        one product per leading index. With A and B the (k, n*t)
        flattenings, D = d I gives d A B'; a dense D ((n, n), or one per
        leading index) gives k products D b^(l) and A (D B)'. The rank-r
        part adds (U'A)' S (U'B), with U'A flattened to (k, r*t)."""
        *lead, k, n, t = ak.shape
        a = ak.reshape(*lead, k, n * t)
        d = self.d
        if np.ndim(d):
            if d.ndim > 2:
                d = d[..., np.newaxis, :, :]
            out = a @ (d @ bk).reshape(*lead, k, n * t).swapaxes(-1, -2)
        else:
            out = d * (a @ bk.reshape(*lead, k, n * t).swapaxes(-1, -2))
        if self.u is not None:
            r = self.u.shape[1]
            ut = self.u.T
            out += ((ut @ ak).reshape(*lead, k, r * t)
                    @ (self.s @ (ut @ bk)).reshape(*lead, k, r * t)
                    .swapaxes(-1, -2))
        return out


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(A + A') / 2 as a new read-only array, after checking that A is
    symmetric to ``SYMMETRY_RTOL``; one n x n buffer besides ``a``."""
    scale = float(np.abs(a).max())
    values = a - a.T
    gap = float(np.abs(values, out=values).max())
    if scale > 0 and gap > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max|A - A'| = {gap:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|A|")
    values = np.add(a, a.T, out=values)
    values *= 0.5
    values.setflags(write=False)
    return values


class CovMatrix:
    """Symmetric covariance matrix with cached spectral data.

    Construction from an array validates symmetry to relative tolerance and
    stores the exactly symmetrized matrix. A covariance family with a form
    c I + U S U' of small rank (``dgp.build_omega``) is held as that form
    instead, and :attr:`values` forms its dense matrix, symmetrized the same
    way, only on first use. Either way :attr:`values` is read-only, since
    the caches describe it.

    The matrix keeps one checked spectrum, :attr:`eigenvalues`: a form's
    exact spectrum from its r x r core, whatever else has run; else that of
    the first dense solve it gets, a full eigensolve (``eigh``) or an
    eigenvalues-only one (``eigvalsh``). :attr:`lambda_max` is its top.
    Eigenvectors are kept only for the callers that read them,
    :attr:`eigenvectors` and :func:`factor_decompose`, paired with the
    eigenvalues of their own solve; :meth:`sqrt` keeps none. Every
    spectrum passes the same check: eigenvalues within
    ``EIG_CLIP_REL * lambda_max`` of zero are clamped to zero, and anything
    below ``-PSD_RTOL * max(lambda_max, 0)`` raises :class:`NotPSD`, so a
    matrix with no positive eigenvalue is PSD only when it is zero.
    """

    def __init__(self, values: np.ndarray, meta: dict | None = None):
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix contains non-finite values")
        self._start(a.shape[0], meta, None)
        self._values = _symmetrized(a)

    @classmethod
    def _of_form(cls, form: _Structured, n: int,
                 meta: dict | None = None) -> "CovMatrix":
        """The n x n matrix c I + U S U' (a number c) held as its form,
        whose arrays become read-only."""
        cov = cls.__new__(cls)
        cov._start(n, meta, form)
        for a in form:
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return cov

    def _start(self, n: int, meta: dict | None, form: _Structured | None):
        self._n = n
        self.meta = dict(meta or {})
        self._form = form
        self._values: np.ndarray | None = None
        self._evals: np.ndarray | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def values(self) -> np.ndarray:
        """The symmetric matrix, read-only (formed on first use when the
        matrix is held as its form)."""
        if self._values is None:
            self._values = _symmetrized(self._form.rows(self._n))
        return self._values

    def _row_blocks(self):
        """The matrix by blocks of rows: a dense matrix whole, once; one
        held as its form in blocks of about ``NORM_BLOCK_ELEMENTS`` entries,
        each computed from the form, so no n x n array is formed."""
        if self._form is None:
            yield self.values
            return
        n = self._n
        step = max(1, NORM_BLOCK_ELEMENTS // n)
        for lo in range(0, n, step):
            yield self._form.rows(n, slice(lo, lo + step))

    def _solve(self, vectors: bool):
        """Checked eigenvalues of the dense matrix, with eigenvectors from
        ``eigh`` if ``vectors``, else None from ``eigvalsh``; the first solve
        fills the spectrum of a matrix with no form."""
        try:
            evals, evecs = (np.linalg.eigh(self.values) if vectors
                            else (np.linalg.eigvalsh(self.values), None))
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"symmetric eigensolve failed: {exc}") from exc
        evals = self._checked(evals)
        if self._evals is None and self._form is None:
            self._evals = evals
        return evals, evecs

    @staticmethod
    def _checked(evals: np.ndarray) -> np.ndarray:
        top = float(evals[-1])
        if evals[0] < -PSD_RTOL * max(top, 0.0):
            raise NotPSD(
                f"minimum eigenvalue {evals[0]:.3e} below "
                f"-{PSD_RTOL:.0e} * lambda_max")
        if top > 0:
            evals = np.where(np.abs(evals) <= EIG_CLIP_REL * top, 0.0, evals)
        return evals

    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Checked eigenvalues and their eigenvectors from one ``eigh``,
        kept for the callers that read the vectors."""
        if self._eig is None:
            self._eig = self._solve(vectors=True)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        """The checked spectrum in ascending order (small eigenvalues
        clamped to zero): exact from a form's r x r core
        (:meth:`_Structured.spectrum`), else from the first dense solve,
        an ``eigh`` already run or ``eigvalsh``."""
        if self._evals is None:
            if self._form is not None:
                self._evals = self._checked(self._form.spectrum(self._n))
            else:
                self._solve(vectors=False)
        return self._evals

    @property
    def lambda_max(self) -> float:
        """Largest eigenvalue, after the PSD check: the top of
        :attr:`eigenvalues`."""
        return float(self.eigenvalues[-1])

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, column i pairing with eigenvalue i."""
        return self._eigensystem()[1]

    def sqrt(self) -> np.ndarray:
        """Symmetric square root P diag(sqrt(l)) P' from one ``eigh``,
        eigenvalues clipped at zero: a rank-deficient matrix, whose small
        eigenvalues the check clamps to zero, gets a root of the same rank.
        It keeps no eigenvectors."""
        evals, evecs = self._solve(vectors=True)
        return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def _entry_norms(omega) -> dict[str, float]:
    """The norms of the entries of ``omega`` (an array or a
    :class:`CovMatrix`), from one pass over its row blocks. A dense matrix
    is one block, so each sum is the one numpy reduction over the whole
    matrix."""
    blocks = (omega._row_blocks() if isinstance(omega, CovMatrix)
              else (np.asarray(omega, dtype=float),))
    row_max = sum_sq = sum_abs = 0.0
    for block in blocks:
        sum_sq += float((block * block).sum())
        mag = np.abs(block)
        row_max = max(row_max, float(mag.sum(axis=1).max()))
        sum_abs += float(mag.sum())
    n = block.shape[1]
    return {"max_row_sum": row_max, "euclid_scaled": math.sqrt(sum_sq / n),
            "taxicab_scaled": sum_abs / n, "euclid": math.sqrt(sum_sq)}


def norm_max_eig(omega) -> float:
    """Largest eigenvalue, from :attr:`CovMatrix.lambda_max`: the top of
    its checked spectrum, exact from a form's r x r core."""
    if not isinstance(omega, CovMatrix):
        omega = CovMatrix(omega)
    return omega.lambda_max


def norm_max_row_sum(omega) -> float:
    """Maximum absolute row sum."""
    return _entry_norms(omega)["max_row_sum"]


def norm_euclid_scaled(omega) -> float:
    """Entrywise Euclidean norm scaled by 1/sqrt(n)."""
    return _entry_norms(omega)["euclid_scaled"]


def norm_taxicab_scaled(omega) -> float:
    """Absolute entry sum scaled by 1/n."""
    return _entry_norms(omega)["taxicab_scaled"]


def norm_euclid(omega) -> float:
    """Unscaled entrywise Euclidean norm, sqrt(sum of squared entries)."""
    return _entry_norms(omega)["euclid"]


def all_norms(omega) -> dict[str, float]:
    """The four scaled norms as a dict keyed by short name, the three entry
    norms from one pass over the matrix."""
    entry = _entry_norms(omega)
    return {"max_eig": norm_max_eig(omega),
            **{name: entry[name] for name in
               ("max_row_sum", "euclid_scaled", "taxicab_scaled")}}


def _loglog_slope(ns: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    # Least squares of log(val) on log(n); returns (slope, standard error).
    lx = np.log(ns.astype(float))
    ly = np.log(vals)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    fitted = a @ coef
    resid = ly - fitted
    dof = len(ns) - 2
    sxx = np.sum((lx - lx.mean()) ** 2)
    se = float(np.sqrt(resid @ resid / dof / sxx)) if dof > 0 else float("nan")
    return float(coef[0]), se


def _regime_of(alpha: float) -> Regime:
    if alpha <= WEAK_ALPHA_MAX:
        return Regime.WEAK
    if alpha >= STRONG_ALPHA_MIN:
        return Regime.STRONG
    return Regime.MODERATE


@dataclass(frozen=True)
class DependenceProfile:
    """Norm values over a size grid plus fitted growth exponents.

    ``norms_by_n`` maps each grid size to its four norms. ``regime`` is the
    headline label from the eigenvalue norm; ``regime_per_norm`` labels each
    norm separately by its own fitted exponent.
    """

    n_grid: tuple[int, ...]
    norms_by_n: dict[int, dict[str, float]]
    exponent_max_eig: float
    exponent_se: float
    regime: Regime
    regime_per_norm: dict[str, Regime]
    exponents_per_norm: dict[str, tuple[float, float]] = field(default_factory=dict)


def classify(family, n_grid) -> DependenceProfile:
    """Classify the dependence regime of a matrix family over a size grid.

    Parameters
    ----------
    family : callable
        Maps a size n to an n x n covariance (array or CovMatrix).
    n_grid : sequence of int
        At least 4 strictly increasing sizes with max >= 4 * min.
    """
    ns = np.asarray(list(n_grid), dtype=int)
    if len(ns) < 4:
        raise ValueError("n_grid needs at least 4 points")
    if not np.all(np.diff(ns) > 0):
        raise ValueError("n_grid must be strictly increasing")
    if ns[-1] < 4 * ns[0]:
        raise ValueError("n_grid must span at least a factor of 4")

    norms_by_n: dict[int, dict[str, float]] = {}
    for n in ns:
        vals = all_norms(family(int(n)))
        for name, v in vals.items():
            if v <= 0.0:
                raise DegenerateFamily(f"norm {name} is zero at n={n}")
        norms_by_n[int(n)] = vals

    exponents: dict[str, tuple[float, float]] = {}
    regimes: dict[str, Regime] = {}
    for name in ("max_eig", "max_row_sum", "euclid_scaled", "taxicab_scaled"):
        series = np.array([norms_by_n[int(n)][name] for n in ns])
        alpha, se = _loglog_slope(ns, series)
        exponents[name] = (alpha, se)
        regimes[name] = _regime_of(alpha)

    alpha, se = exponents["max_eig"]
    return DependenceProfile(
        n_grid=tuple(int(n) for n in ns),
        norms_by_n=norms_by_n,
        exponent_max_eig=alpha,
        exponent_se=se,
        regime=regimes["max_eig"],
        regime_per_norm=regimes,
        exponents_per_norm=exponents,
    )


def select_n_factors(omega: CovMatrix, m_max: int = EIGEN_RATIO_M_MAX) -> int:
    """Pick the factor count by the largest adjacent eigenvalue ratio.

    Scans ratios of consecutive eigenvalues from the top; returns 0 when no
    ratio reaches ``EIGEN_RATIO_MIN`` (no factor structure), otherwise the
    position of the largest ratio (ties resolve to the larger count).
    """
    evals = omega._eigensystem()[0]  # the eigenvalues factor_decompose uses
    n = len(evals)
    m_max = min(m_max, n - 1)
    if m_max < 1:
        return 0
    top = float(evals[-1])
    if top <= 0.0:
        return 0
    floor = 1e-300
    best_m, best_ratio = 0, -np.inf
    for j in range(1, m_max + 1):
        num = float(evals[n - j])
        den = max(float(evals[n - j - 1]), floor)
        ratio = num / den if num > 0 else 0.0
        if ratio >= best_ratio:
            best_ratio = ratio
            best_m = j
    if best_ratio < EIGEN_RATIO_MIN:
        return 0
    return best_m


@dataclass(frozen=True)
class FactorSplit:
    """Factor/remainder split of a covariance matrix.

    ``loadings`` is (n, m) and ``idio_cov`` the weakly dependent remainder;
    loadings @ loadings.T + idio_cov.values reproduces the input exactly.
    """

    n_factors: int
    loadings: np.ndarray
    idio_cov: CovMatrix
    c_coeffs: np.ndarray


def factor_decompose(omega: CovMatrix, n_factors: int | str = "auto",
                     c_coeffs=None) -> FactorSplit:
    """Split a covariance into m factor directions plus a remainder.

    Parameters
    ----------
    omega : CovMatrix
        Positive semidefinite input.
    n_factors : int or "auto"
        Number of factor directions; "auto" uses :func:`select_n_factors`.
    c_coeffs : sequence of float, optional
        Per-factor share of the bottom eigenvalue kept in the remainder,
        in (0, 1]. Defaults to all ones.

    Raises
    ------
    RankDeficient
        Input has an eigenvalue below the PSD tolerance.
    NegativeDelta
        A factor strength l_{n-m+i} - c_i * l_1 is negative beyond tolerance.
    """
    if not isinstance(omega, CovMatrix):
        omega = CovMatrix(omega)
    try:
        evals, evecs = omega._eigensystem()
    except NotPSD as exc:
        raise RankDeficient(str(exc)) from exc
    n = omega.n
    top = float(evals[-1])

    if n_factors == "auto":
        m = select_n_factors(omega)
    else:
        m = int(n_factors)
    if m < 0 or m >= n:
        raise ValueError(f"n_factors must be in [0, n), got {m}")

    if c_coeffs is None:
        c = np.ones(m)
    else:
        c = np.asarray(c_coeffs, dtype=float)
        if c.shape != (m,):
            raise ValueError(f"c_coeffs must have length {m}")
        if np.any(c <= 0.0) or np.any(c > 1.0):
            raise ValueError("c_coeffs must lie in (0, 1]")

    if m == 0:
        return FactorSplit(n_factors=0, loadings=np.zeros((n, 0)),
                           idio_cov=omega, c_coeffs=np.zeros(0))

    bottom = float(evals[0])
    deltas = evals[n - m:] - c * bottom
    tol = PSD_RTOL * max(top, 1.0)
    if np.any(deltas < -tol):
        raise NegativeDelta(
            f"factor strength {deltas.min():.3e} negative beyond tolerance")
    deltas = np.clip(deltas, 0.0, None)

    top_vecs = evecs[:, n - m:]
    loadings = top_vecs * np.sqrt(deltas)[np.newaxis, :]

    idio_evals = evals.copy()
    idio_evals[n - m:] = c * bottom
    idio = (evecs * idio_evals[np.newaxis, :]) @ evecs.T
    return FactorSplit(n_factors=m, loadings=loadings,
                       idio_cov=CovMatrix(idio), c_coeffs=c)


@dataclass(frozen=True)
class FourthMomentBounds:
    """Sample fourth-moment chain linking error kurtosis to dependence.

    For errors e_1, ..., e_T (each length n), with sample second-moment
    matrix S = (1/T) sum_t e_t e_t':

        trace_vf  = (1/T) sum_t ||e_t||^4
        sum_sq    = sum of squared entries of S
        lambda_sq = (largest eigenvalue of S)^2

    and trace_vf >= sum_sq >= lambda_sq holds exactly for every sample.
    ``trace_vf`` equals the trace of the second-moment matrix of the outer
    products e_t e_t', computed without forming any n^2 x n^2 array.
    """

    n: int
    n_periods: int
    trace_vf: float
    sum_sq: float
    lambda_sq: float


def fourth_moment_lower_bound(errors) -> FourthMomentBounds:
    """Compute the fourth-moment chain for a sample of error vectors.

    Parameters
    ----------
    errors : array-like, shape (T, n)
        One error vector per row. The cost is O(T n^2): no n^2 x n^2
        fourth-moment object is formed, so n is not capped.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 2:
        raise ValueError("errors must be 2-d (T, n)")
    t, n = e.shape
    if t < 1:
        raise ValueError("need at least one error vector")
    sq = (e * e).sum(axis=1)
    trace_vf = float((sq * sq).mean())
    s = (e.T @ e) / t
    sum_sq = float((s * s).sum())
    lam = float(np.linalg.eigvalsh(0.5 * (s + s.T))[-1])
    return FourthMomentBounds(n=n, n_periods=t, trace_vf=trace_vf,
                              sum_sq=sum_sq, lambda_sq=lam * lam)
