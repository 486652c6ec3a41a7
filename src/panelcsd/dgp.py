"""Simulation designs: cross-sectional covariance families and panel draws.

Each family maps a cross-section size n to an n x n positive semidefinite
covariance, together with its dependence scale h(n) (how the largest
eigenvalue grows). Panels are drawn with exact second-moment structure: the
cross-section applies a symmetric square root of the covariance (a factor
model draws its factors and idiosyncratic parts), moving-average memory
draws its pre-sample innovations (stationary from the first period), and
geometric memory uses a first-order recursion initialized from its
stationary law. Draw order (x, unit effects, error innovations) is fixed so
equal seeds give byte-identical panels. Every panel comes from one draw,
:func:`_draw_block`, on a block of seeds: the Monte Carlo workers call it on
blocks of replications and :func:`gen_panel` on a single seed.

The families whose dependence comes from common components (diagonal,
equicorrelated, block-diagonal, a hub, a factor model) define their
covariance as a form of small rank, :class:`~panelcsd.dependence._Structured`,
which owns all arithmetic on it. :func:`build_omega` holds them as that
form, so the classification and the draws read one definition and neither
forms an n x n matrix: the draws apply its root, and the exact variance
sandwiches it, at O(n r) per column instead of O(n^2). The other families
use the dense matrix and the square root from its eigensolve. The
covariance, its form and its root are built once per (family, n) per
process and shared, read-only, by every draw of that size; families must
be hashable (all here are frozen dataclasses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import numbers
from typing import NamedTuple

import numpy as np

from .config import (check_int, check_real, check_reals, field_dict,
                     from_fields)
from .dependence import CovMatrix, _Structured
from .errors import NotPSD, SpecMismatch, UsageError
from .panel import PanelData

__all__ = [
    "Diagonal",
    "Band",
    "Block",
    "DecayCorrelation",
    "SpatialAR",
    "Equicorr",
    "Arrowhead",
    "ScaledEquicorr",
    "Factor",
    "EXAMPLE_PRESETS",
    "family_from_string",
    "build_omega",
    "TimeDependenceSpec",
    "DgpSpec",
    "gen_panel",
]


def _check_width(width, what: str) -> None:
    if width != "sqrt" and check_int(width, what) < 1:
        raise UsageError(f"{what} must be >= 1 or 'sqrt', got {width!r}")


def _resolve_width(width, n: int) -> int:
    return int(np.ceil(np.sqrt(n))) if width == "sqrt" else width


class _Family:
    """Base of the covariance families: each checks its parameters (floats
    finite, then its own ``_check``) when it is constructed; ``build(n)``
    keeps only the checks that need n. ``params()`` lists the constructor
    fields in declaration order (``name`` is not one of them).

    ``_low_rank(n)`` is the covariance as a form of small rank
    (:class:`~panelcsd.dependence._Structured`, where the form is
    described), and ``build(n)`` that form made dense, so ``diagnose`` and
    the draws read one definition; a family with no such form returns None
    and writes its own ``build``. The form also gives the exact spectrum,
    and so the largest eigenvalue, from its r x r core; a dense ``build``
    pays for ``eigvalsh``."""

    def __post_init__(self):
        for key, value in self.params().items():
            if isinstance(value, float):
                check_real(value, f"{self.name} parameter {key!r}")
        self._check()

    def params(self) -> dict:
        return field_dict(self)

    def _low_rank(self, n: int) -> _Structured | None:
        return None

    def build(self, n: int) -> np.ndarray:
        return self._low_rank(n).rows(n)


@dataclass(frozen=True)
class Diagonal(_Family):
    """Independent errors with common variance ``scale``."""

    scale: float = 1.0
    name: str = field(default="diagonal", init=False)

    def _check(self):
        if not self.scale > 0:
            raise UsageError("scale must be positive")

    def _low_rank(self, n: int) -> _Structured:
        return _Structured(self.scale)

    def h_n(self, n: int) -> float:
        return 1.0


@dataclass(frozen=True)
class Band(_Family):
    """Banded covariance: unit diagonal, off-diagonal b within ``width``.

    ``width`` may be an int (fixed band) or "sqrt" (grows like sqrt(n)).
    ``taper`` "flat" keeps b constant across the band; "bartlett" decays it
    linearly to zero at the band edge, which keeps the matrix positive
    semidefinite for any b < 1 regardless of width. Wide flat bands are not
    positive semidefinite and are rejected at build time.
    """

    width: int | str = 2
    b: float = 0.3
    taper: str = "flat"
    name: str = field(default="band", init=False)

    def _check(self):
        _check_width(self.width, "band width")
        if not (0.0 <= self.b < 1.0):
            raise UsageError("band b must be in [0, 1)")
        if self.taper not in ("flat", "bartlett"):
            raise UsageError("taper must be 'flat' or 'bartlett'")

    def build(self, n: int) -> np.ndarray:
        w = _resolve_width(self.width, n)
        a = np.eye(n)
        for d in range(1, min(w, n - 1) + 1):
            v = self.b if self.taper == "flat" else self.b * (1.0 - d / (w + 1.0))
            idx = np.arange(n - d)
            a[idx, idx + d] = v
            a[idx + d, idx] = v
        return a

    def h_n(self, n: int) -> float:
        return float(np.sqrt(n)) if self.width == "sqrt" else 1.0


@dataclass(frozen=True)
class Block(_Family):
    """Block-diagonal equicorrelation: within-block off-diagonal b.

    Give exactly one of ``size`` (int, or "sqrt" for blocks of size about
    sqrt(n)) or ``n_blocks`` (a fixed number of blocks whose size grows
    with n). Either way the covariance is the form (1 - b) I + U S U' with
    one orthonormal column of U per block, so blocks of a fixed size give
    ceil(n / size) columns.
    """

    size: int | str | None = None
    n_blocks: int | None = None
    b: float = 0.5
    name: str = field(default="block", init=False)

    def _check(self):
        if (self.size is None) == (self.n_blocks is None):
            raise UsageError("give exactly one of size or n_blocks")
        if self.size is not None:
            _check_width(self.size, "block size")
        elif check_int(self.n_blocks, "n_blocks") < 1:
            raise UsageError("n_blocks must be >= 1")
        if not (0.0 <= self.b <= 1.0):
            raise UsageError("block b must be in [0, 1]")

    def _sizes(self, n: int) -> list[int]:
        if self.n_blocks is None:
            s = _resolve_width(self.size, n)
            return [s] * (n // s) + ([n % s] if n % s else [])
        if self.n_blocks > n:
            raise UsageError("n_blocks must be in [1, n]")
        base, extra = divmod(n, self.n_blocks)
        return [base + (i < extra) for i in range(self.n_blocks)]

    def _low_rank(self, n: int) -> _Structured:
        # (1 - b) I + sum_j b s_j e_j e_j', e_j block j's indicator over
        # sqrt(s_j)
        sizes = np.array(self._sizes(n))
        u = np.zeros((n, len(sizes)))
        u[np.arange(n), np.repeat(np.arange(len(sizes)), sizes)] = np.repeat(
            1.0 / np.sqrt(sizes), sizes)
        return _Structured(1.0 - self.b, u,
                           np.diag(self.b * sizes.astype(float)))

    def h_n(self, n: int) -> float:
        return float(max(self._sizes(n)))


@dataclass(frozen=True)
class DecayCorrelation(_Family):
    """Distance-decay covariance: entry b * (1 + |i - j|)^(-p), unit diagonal.

    p > 1 gives summable rows (weak), 0 < p < 1 gives norms growing like
    n^(1-p) (moderate), p = 0 gives constant off-diagonals (strong). The
    sequence is convex and decreasing, hence positive semidefinite for
    b <= 1 by the Polya criterion. At p = 0 the covariance is the
    equicorrelation (1 - b) I + b e e' and is held as that form, exact
    largest eigenvalue included; any other p is a dense matrix.
    """

    p: float = 1.5
    b: float = 0.5
    name: str = field(default="decay", init=False)

    def _check(self):
        if not (0.0 <= self.b <= 1.0):
            raise UsageError("decay b must be in [0, 1]")
        if not self.p >= 0:
            raise UsageError("decay exponent p must be >= 0")

    def _low_rank(self, n: int) -> _Structured | None:
        return _Structured.equicorrelation(1.0, self.b, n) if self.p == 0 else None

    def build(self, n: int) -> np.ndarray:
        if self.p == 0:
            return super().build(n)
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        a = self.b * (1.0 + d.astype(float)) ** (-self.p)
        np.fill_diagonal(a, 1.0)
        return a

    def h_n(self, n: int) -> float:
        if self.p > 1.0:
            return 1.0
        if self.p == 1.0:
            return float(np.log(n))
        return float(n ** (1.0 - self.p))


@dataclass(frozen=True)
class SpatialAR(_Family):
    """Spatial autoregression on a ring: errors (I - rho W)^(-1) u.

    W is the row-normalized adjacency of a cycle (each unit's two ring
    neighbours at weight 1/2), so the covariance is
    (I - rho W)^(-1) (I - rho W')^(-1). Bounded norms for |rho| < 1. At
    n <= 2 both neighbours are one unit (at n = 1 the unit itself), which
    gets both weights, 1 in all, so every row of W still sums to 1.
    Entries of the covariance below the smallest normal double are set to
    zero: subnormals add nothing a report can show and slow every product.
    """

    rho: float = 0.4
    name: str = field(default="spatial_ar", init=False)

    def _check(self):
        if not (-1.0 < self.rho < 1.0):
            raise UsageError("spatial rho must be in (-1, 1)")

    def build(self, n: int) -> np.ndarray:
        w = np.zeros((n, n))
        idx = np.arange(n)
        w[idx, (idx + 1) % n] += 0.5
        w[idx, (idx - 1) % n] += 0.5
        m = np.linalg.inv(np.eye(n) - self.rho * w)
        omega = m @ m.T
        omega[np.abs(omega) < np.finfo(float).tiny] = 0.0
        return omega

    def h_n(self, n: int) -> float:
        return 1.0


@dataclass(frozen=True)
class Equicorr(_Family):
    """Constant covariance: diagonal a, every off-diagonal b (0 <= b <= a)."""

    a: float = 1.0
    b: float = 0.5
    name: str = field(default="equicorr", init=False)

    def _check(self):
        if not (0.0 <= self.b <= self.a and self.a > 0):
            raise UsageError("equicorr needs a > 0 and 0 <= b <= a")

    def _low_rank(self, n: int) -> _Structured:
        return _Structured.equicorrelation(self.a, self.b, n)

    def h_n(self, n: int) -> float:
        return float(n) if self.b > 0 else 1.0


@dataclass(frozen=True)
class Arrowhead(_Family):
    """One hub unit tied to all others: first row/column off-diagonals
    1/(c sqrt(n)), unit diagonal. Largest eigenvalue stays below 1 + 1/c
    while the hub's row sum grows like sqrt(n)/c."""

    c: float = 2.0
    name: str = field(default="arrowhead", init=False)

    def _check(self):
        if not self.c > 1.0:
            raise UsageError("arrowhead c must be > 1 for positive definiteness")

    def _low_rank(self, n: int) -> _Structured:
        # I + v (e_1 w' + w e_1') with w the indicator of units 2..n, whose
        # core [[0, v |w|], [v |w|, 0]] on (e_1, w / |w|) is indefinite
        if n == 1:
            return _Structured(1.0)
        u = np.zeros((n, 2))
        u[0, 0] = 1.0
        u[1:, 1] = 1.0 / np.sqrt(n - 1)
        off = np.sqrt(n - 1) / (self.c * np.sqrt(n))
        return _Structured(1.0, u, np.array([[0.0, off], [off, 0.0]]))

    def h_n(self, n: int) -> float:
        return 1.0


@dataclass(frozen=True)
class ScaledEquicorr(_Family):
    """Equicorrelation with off-diagonals shrinking as a / sqrt(n):
    the largest eigenvalue grows like sqrt(n) while the entry norms stay
    bounded."""

    a: float = 1.0
    name: str = field(default="scaled_equicorr", init=False)

    def _check(self):
        if not self.a > 0:
            raise UsageError("scaled_equicorr a must be positive")

    def _low_rank(self, n: int) -> _Structured:
        b = self.a / np.sqrt(n)
        if b > 1.0:
            raise UsageError("a / sqrt(n) must be <= 1")
        return _Structured.equicorrelation(1.0, b, n)

    def h_n(self, n: int) -> float:
        return float(np.sqrt(n))


@dataclass(frozen=True)
class Factor(_Family):
    """Common-factor covariance: loadings @ loadings.T + idio_var * I.

    Loadings are drawn once per (loading_seed, n) from ``loading_law``
    ("rademacher" or "gaussian") and scaled so the common part's largest
    eigenvalue grows like n^strength.
    """

    n_factors: int = 1
    strength: float = 1.0
    loading_law: str = "rademacher"
    idio_var: float = 1.0
    loading_seed: int = 0
    name: str = field(default="factor", init=False)

    def _check(self):
        if check_int(self.n_factors, "n_factors") < 1:
            raise UsageError("n_factors must be >= 1")
        if not (0.0 < self.strength <= 1.0):
            raise UsageError("factor strength exponent must be in (0, 1]")
        if self.loading_law not in ("rademacher", "gaussian"):
            raise UsageError("loading_law must be 'rademacher' or 'gaussian'")
        if not self.idio_var >= 0:
            raise UsageError("idio_var must be nonnegative")
        if check_int(self.loading_seed, "loading_seed") < 0:
            raise UsageError("loading_seed must be >= 0")

    def loadings(self, n: int) -> np.ndarray:
        if self.n_factors >= n:
            raise UsageError("factor count must be in [1, n)")
        rng = np.random.default_rng(np.random.SeedSequence([self.loading_seed, n]))
        if self.loading_law == "rademacher":
            raw = rng.integers(0, 2, size=(n, self.n_factors)) * 2.0 - 1.0
        else:
            raw = rng.standard_normal((n, self.n_factors))
        return raw * n ** ((self.strength - 1.0) / 2.0)

    def _low_rank(self, n: int) -> _Structured:
        return _Structured(self.idio_var, self.loadings(n),
                           np.eye(self.n_factors))

    def h_n(self, n: int) -> float:
        return float(n ** self.strength)


EXAMPLE_PRESETS: dict[str, object] = {
    "example1": Diagonal(),
    "example2": Band(width=2, b=0.3),
    "example3": Block(size=5, b=0.5),
    "example4": DecayCorrelation(p=1.5),
    "example5": SpatialAR(rho=0.4),
    "example6": DecayCorrelation(p=0.5),
    "example7": Band(width="sqrt", b=0.5, taper="bartlett"),
    "example8": Block(size="sqrt", b=0.5),
    "example9": DecayCorrelation(p=0.0),
    "example10": Block(n_blocks=2, b=0.5),
    "example11": Factor(n_factors=2, strength=1.0),
    "example12": Arrowhead(c=2.0),
    "example13": Equicorr(a=1.0, b=0.5),
    "example14": ScaledEquicorr(a=1.0),
}

_FAMILY_CLASSES: dict[str, type] = {
    cls.name: cls for cls in (Diagonal, Band, Block, DecayCorrelation,
                              SpatialAR, Equicorr, Arrowhead, ScaledEquicorr,
                              Factor)
}

# Presets that also take parameters, as their class.
_FAMILY_ALIASES = ("example12", "example13", "example14")

# The value types a family field may declare, with a string's parser.
_FIELD_TYPES = {"int": (numbers.Integral, int), "float": (numbers.Real, float),
                "str": (str, str), "None": (type(None), None)}


def _typed(cls, key: str, value):
    """``value`` as the first type that field ``key`` of ``cls`` declares
    and accepts: a string is parsed ("sqrt" stays a string), any other value
    must already have a declared type (a bool is not a number)."""
    declared = cls.__dataclass_fields__.get(key)
    if declared is None:
        return value  # the constructor names the unknown key
    for kind in declared.type.split(" | "):
        typ, parse = _FIELD_TYPES[kind]
        if isinstance(value, str) and parse is not None:
            try:
                return parse(value)
            except ValueError:
                continue
        if isinstance(value, typ) and not isinstance(value, bool):
            return value
    raise UsageError(f"bad value for {cls.name} parameter {key!r}: {value!r}")


def _family(name: str, params: dict):
    """The family ``name`` (a class name, a preset, or a preset alias that
    takes parameters) built from ``params``."""
    cls = _FAMILY_CLASSES.get(name)
    if cls is None and name in EXAMPLE_PRESETS:
        if not params:
            return EXAMPLE_PRESETS[name]
        if name not in _FAMILY_ALIASES:
            raise UsageError(
                f"{name} preset takes no parameters; use example12/13/14 "
                "or a class name to parametrize")
        cls = type(EXAMPLE_PRESETS[name])
    if cls is None:
        raise UsageError(f"unknown family {name!r}")
    try:
        return cls(**{key: _typed(cls, key, v) for key, v in params.items()})
    except TypeError as exc:
        raise UsageError(f"bad parameters for family {name!r}: {exc}") from None


def family_from_string(text: str):
    """Parse "name" or "name:key=value,key=value" into a family instance.

    Accepts the class names (diagonal, band, block, decay, spatial_ar,
    equicorr, arrowhead, scaled_equicorr, factor), the canonical presets
    example1..example14, and parametrized forms of example12/13/14.
    """
    name, _, rest = text.strip().partition(":")
    params: dict = {}
    for piece in rest.split(",") if rest.strip() else ():
        key, eq, val = (part.strip() for part in piece.partition("="))
        if not eq or not key or not val:
            raise UsageError(f"bad family parameter {piece!r}")
        params[key] = val
    return _family(name.strip().lower(), params)


def build_omega(family, n: int) -> CovMatrix:
    """Materialize a family at size n, verifying positive semidefiniteness.

    A family with a form of small rank (``family._low_rank(n)``, a
    :class:`~panelcsd.dependence._Structured`) is held as that form: its
    largest eigenvalue is exact, from the form's spectrum, its norms read
    blocks of rows computed from the form, and its dense ``values`` are
    formed only when read. Any other family's dense ``family.build(n)`` is
    checked by ``eigvalsh``, whose top is its largest eigenvalue; only its
    symmetrized copy outlives the constructor. Either way
    :attr:`CovMatrix.lambda_max` is exact and cached for the norms. Raises
    NotPSD naming the family when the matrix has an eigenvalue below -1e-8
    times the largest (wide flat bands are the canonical offender), and
    prefixes a UsageError of a size the family does not take (too few units
    for its blocks or factors) with the family and n.
    """
    meta = {"family": family.name, "n": n, **family.params()}
    try:
        form = family._low_rank(n)
        cov = (CovMatrix(family.build(n), meta) if form is None
               else CovMatrix._of_form(form, n, meta))
    except UsageError as exc:
        raise UsageError(f"family {family.name!r} at n={n}: {exc}") from None
    try:
        cov.lambda_max
    except NotPSD as exc:
        raise NotPSD(f"family {family.name!r} at n={n} is not positive "
                     f"semidefinite: {exc}") from None
    return cov


# ---------------------------------------------------------------------------
# Panel generation


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
        for name, form in (("psi", "ma"), ("decay", "summable")):
            if getattr(self, name) is not None and self.form != form:
                raise SpecMismatch(f"{name} is read only by the {form!r} "
                                   f"form, not {self.form!r}")
        if self.psi is not None:
            object.__setattr__(self, "psi", check_reals(self.psi, "psi"))
        if self.decay is not None:
            object.__setattr__(self, "decay", check_real(self.decay, "decay"))
        if self.form == "ma":
            if not self.psi:
                raise SpecMismatch("ma form needs at least psi_0")
            if sum(p * p for p in self.psi) <= 0:
                raise SpecMismatch("ma coefficients must not all be zero")
        if self.form == "summable" and (self.decay is None
                                        or not 0.0 < self.decay < 1.0):
            raise SpecMismatch("summable form needs decay in (0, 1)")

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

    def max_lag(self, n_periods: int) -> int:
        """Largest lag the exact variance sums over ``n_periods`` periods.

        0 when serially independent, min(q, T-1) for an MA(q), and T-1 for
        the summable form, whose geometric tail never reaches zero.
        """
        if self.form == "none":
            return 0
        if self.form == "ma":
            return min(len(self.psi) - 1, n_periods - 1)
        return n_periods - 1


@dataclass(frozen=True)
class DgpSpec:
    """Full simulation design for one panel draw.

    Attributes
    ----------
    cross_section : family
        One of the covariance families above.
    beta_true : tuple of float
        Slope vector; its length sets the number of regressors.
    time_memory : TimeDependenceSpec
        Serial dependence of the errors. The factor channel requires the
        factor cross-section family.
    x_law : {"iid_normal", "cs_centered", "factor_aligned"}
        Regressor draw: iid standard normal; the same with the per-period
        cross-sectional mean removed; or loading-aligned (common component
        along the cross-section family's loadings, factor family only).
    mu_law : {"uniform", "zero"}
        Unit effects: iid uniform on [-1, 1] or exactly zero.
    error_dist : {"gaussian", "student_t"}
        Innovation law; student_t is scaled to unit variance and requires
        t_df > 4 so fourth moments exist.
    """

    cross_section: object
    beta_true: tuple[float, ...]
    time_memory: TimeDependenceSpec = TimeDependenceSpec.none()
    x_law: str = "iid_normal"
    mu_law: str = "uniform"
    error_dist: str = "gaussian"
    t_df: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "beta_true",
                           check_reals(self.beta_true, "beta_true"))
        check_real(self.t_df, "t_df")
        if len(self.beta_true) < 1:
            raise SpecMismatch("beta_true must have at least one entry")
        if self.x_law not in ("iid_normal", "cs_centered", "factor_aligned"):
            raise SpecMismatch(f"unknown x_law {self.x_law!r}")
        if self.mu_law not in ("uniform", "zero"):
            raise SpecMismatch(f"unknown mu_law {self.mu_law!r}")
        if self.error_dist not in ("gaussian", "student_t"):
            raise SpecMismatch(f"unknown error_dist {self.error_dist!r}")
        if self.error_dist == "student_t" and not self.t_df > 4.0:
            raise SpecMismatch("student_t needs t_df > 4")
        is_factor = isinstance(self.cross_section, Factor)
        if self.time_memory.channel == "factor" and not is_factor:
            raise SpecMismatch(
                "factor-channel time memory needs the factor cross-section family")
        if self.x_law == "factor_aligned" and not is_factor:
            raise SpecMismatch(
                "factor_aligned x_law needs the factor cross-section family")

    def to_dict(self) -> dict:
        tm = self.time_memory
        return field_dict(
            self,
            cross_section={"family": self.cross_section.name,
                           **self.cross_section.params()},
            beta_true=list(self.beta_true),
            time_memory=field_dict(tm, psi=list(tm.psi) if tm.psi else None))

    @classmethod
    def from_dict(cls, d: dict) -> "DgpSpec":
        return from_fields(cls, d, "dgp", cross_section=_cross_section_from,
                           time_memory=lambda tm: from_fields(
                               TimeDependenceSpec, tm, "time_memory"))


def _cross_section_from(raw):
    """A family from its string form or its dict form {"family": name,
    **params}."""
    if isinstance(raw, str):
        return family_from_string(raw)
    if not isinstance(raw, dict):
        raise UsageError(f"cross_section must be a family string or object, "
                         f"got {raw!r}")
    params = dict(raw)
    return _family(params.pop("family", None), params)


class _CrossSection(NamedTuple):
    """What every draw of one (family, n) shares, read-only: the checked
    covariance ``omega`` and ``sigma``, its idiosyncratic part (``omega``
    itself unless the family is a factor model), as :class:`CovMatrix`
    whose dense values only :func:`gen_panel` reads; ``loadings`` (None
    unless the family is a factor model); ``idio``, sigma in the structured
    form; and ``root``, the errors' symmetric square root in that form (None
    for a factor family, whose errors go through the loadings)."""

    omega: CovMatrix
    loadings: np.ndarray | None
    sigma: CovMatrix
    idio: _Structured
    root: _Structured | None


# A worker takes run_mc's chunks first in, first out, and a cell's chunks
# are queued together, so it never returns to an earlier cell: one entry
# serves each cell; more would only keep more covariances and roots alive.
@functools.lru_cache(maxsize=1)
def _cross_section(family, n: int) -> _CrossSection:
    """The :class:`_CrossSection` of ``family`` at size n, from the one
    :func:`build_omega`. A family with a form of small rank keeps that form
    and takes its root from it, with no n x n array; any other takes the
    root from an eigensolve of the dense covariance and keeps two n x n
    arrays, the covariance and its root, but not the eigenvectors."""
    cov = build_omega(family, n)
    form = cov._form
    if isinstance(family, Factor):
        idio = _Structured(form.d)
        out = _CrossSection(cov, form.u, CovMatrix._of_form(idio, n), idio,
                            None)
    elif form is None:
        out = _CrossSection(cov, None, cov, _Structured(cov.values),
                            _Structured(cov.sqrt()))
    else:
        out = _CrossSection(cov, None, cov, form, form.root())
    for a in out.root or ():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return out


def _filter_series(z: np.ndarray, tm: TimeDependenceSpec, t: int) -> np.ndarray:
    """Turn iid innovation columns into a serially dependent series of
    length t with unit marginal variance and the autocorrelations that
    ``tm``, an MA or summable form, asks for.

    ``z`` must already hold the required number of columns: t + q for the
    MA form (pre-sample draws give a stationary start), t for the other.
    """
    if tm.form == "ma":
        psi = np.asarray(tm.psi, dtype=float)
        psi = psi / np.linalg.norm(psi)
        q = len(psi) - 1
        out = np.zeros(z.shape[:-1] + (t,))
        for j, p in enumerate(psi):
            if p != 0.0:
                out += p * z[..., q - j:q - j + t]
        return out
    # summable: stationary first-order recursion out_s = phi out_{s-1} +
    # sqrt(1 - phi^2) z_s, started at out_0 = z_0
    phi = tm.decay
    c = np.sqrt(1.0 - phi * phi) * z
    c[..., 0] = z[..., 0]
    return _ar1(c, phi)


# Periods per block of :func:`_ar1`: one (rows, L) x (L, L) product per block,
# so O(L) multiplies per element against one Python step per block. Timed on
# a 2-vCPU x86_64 host (one BLAS thread) over rows 50..400 and t 100..400,
# L = 16 and 32 were fastest (at (50, 100): 0.05 ms, against 0.09 ms at 64).
_AR_BLOCK = 32


def _ar1(c: np.ndarray, phi: float) -> np.ndarray:
    """out[..., s] = phi * out[..., s - 1] + c[..., s] along the last axis,
    from out[..., -1] = 0, for ``c`` shaped (rows, t) or a stack (..., rows,
    t).

    Blocked: within a block of _AR_BLOCK periods, out is c times the
    lower-triangular matrix of powers phi^(i - j), plus the last value of
    the block before times phi^(i + 1); no loop over periods. Each (rows, t)
    slice of a stack is its own product, so a slice filters to the same bits
    alone or stacked.
    """
    t = c.shape[-1]
    size = min(_AR_BLOCK, t)
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    power_t = np.where(lag >= 0, phi ** np.maximum(lag, 0), 0.0).T
    carry = phi ** np.arange(1, size + 1)
    out = np.empty(c.shape)
    for lo in range(0, t, size):
        m = min(size, t - lo)
        block = c[..., lo:lo + m] @ power_t[:m, :m]
        if lo:
            block += out[..., lo - 1:lo] * carry[:m]
        out[..., lo:lo + m] = block
    return out


def _draw_block(spec: DgpSpec, n: int, t: int, seeds,
                design: tuple[np.ndarray, np.ndarray] | None = None):
    """The one panel draw, for a block of replications: ``(y, x, mu)``
    shaped (B, n, t), (B, n, t, k) and (B, n), one per seed.

    Each seed draws from its own ``default_rng(seed)``, straight into its
    slice of the block's arrays, in the order the determinism contract
    fixes: x, then mu, then the innovations, a factor family's common
    factor rows before its idiosyncratic ones. Rows that carry MA(q) memory
    hold t + q innovation columns, all others t. A fixed ``design`` (x, mu)
    is broadcast to the block read-only, not copied, and the seeds then
    drive only the innovations.

    The block then filters the rows that carry memory, forms the errors as
    the covariance's symmetric root times z (``cs.root @ z``) or as
    ``loadings @ f`` plus the scaled idiosyncratic rows, and adds
    ``mu + x @ beta``. Every product is per replication (a broadcast
    matmul), so a replication gets the same bits in a block of any size.
    """
    b, k = len(seeds), len(spec.beta_true)
    family, tm = spec.cross_section, spec.time_memory
    cs = _cross_section(family, n)
    if design is not None:
        x, mu = (np.asarray(a, dtype=float) for a in design)
        if x.shape != (n, t, k) or mu.shape != (n,):
            raise ValueError("design shapes do not match (n, t, k)")
        x, mu = np.broadcast_to(x, (b, n, t, k)), np.broadcast_to(mu, (b, n))
    else:
        x, mu = np.empty((b, n, t, k)), np.zeros((b, n))

    # (rows, whether they carry memory) per channel, factor rows first
    if isinstance(family, Factor):
        m = cs.loadings.shape[1]
        channels = ((m, tm.channel == "factor"), (n, tm.channel == "idio"))
    else:
        channels = ((n, tm.channel != "none"),)
    q = len(tm.psi) - 1 if tm.form == "ma" else 0  # MA(q) pre-sample columns
    z = [np.empty((b, rows, t + q * memory)) for rows, memory in channels]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if design is None:
            if spec.x_law == "factor_aligned":
                g = rng.standard_normal((k, m, t))
                x[i] = np.einsum("im,kmt->itk", cs.loadings, g) / np.sqrt(
                    m) + rng.standard_normal((n, t, k))
            else:
                rng.standard_normal(out=x[i])
                if spec.x_law == "cs_centered":
                    x[i] -= x[i].mean(axis=0, keepdims=True)
            if spec.mu_law == "uniform":
                mu[i] = rng.uniform(-1.0, 1.0, size=n)
        for zc in z:
            if spec.error_dist == "gaussian":
                rng.standard_normal(out=zc[i])
            else:
                zc[i] = rng.standard_t(spec.t_df, size=zc.shape[1:]) * np.sqrt(
                    (spec.t_df - 2.0) / spec.t_df)
    z = [_filter_series(zc, tm, t) if memory else zc
         for zc, (_, memory) in zip(z, channels)]
    if isinstance(family, Factor):
        eps = cs.loadings @ z[0] + np.sqrt(family.idio_var) * z[1]
    else:
        eps = cs.root @ z[0]
    beta = np.asarray(spec.beta_true)
    # at k = 1 a product, not matmul's non-BLAS loop: the same bits
    y = mu[..., np.newaxis] + (x[..., 0] * beta[0] if k == 1 else x @ beta)
    y += eps
    return y, x, mu


def gen_panel(
    spec: DgpSpec,
    n: int,
    t: int,
    seed,
    design: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[PanelData, dict]:
    """Draw one panel from the design; equal seeds give identical panels.

    Parameters
    ----------
    seed : int or numpy SeedSequence
    design : (x, mu), optional
        Reuse a fixed design instead of drawing one (x shaped (n, t, k),
        mu shaped (n,)); the seed then only drives the errors, and the
        panel's x is a read-only view of the design's x.

    Returns
    -------
    (panel, truth)
        ``truth`` holds what the exact variance and the checks of a draw
        need: the unit effects ``mu``, the covariance pieces ``omega``,
        ``loadings`` (None unless the family is a factor model) and
        ``sigma``, all dense, and the spec's ``time_memory``. The
        covariance pieces and the errors' square root are computed once per
        (family, n) per process and shared by every draw, so ``omega``,
        ``loadings`` and ``sigma`` are read-only.

    This is the one panel draw, :func:`_draw_block`, on a single seed.
    """
    y, x, mu = _draw_block(spec, n, t, [seed], design)
    cs = _cross_section(spec.cross_section, n)
    return PanelData(y=y[0], x=x[0]), {
        "mu": mu[0], "omega": cs.omega.values, "loadings": cs.loadings,
        "sigma": cs.sigma.values, "time_memory": spec.time_memory}
