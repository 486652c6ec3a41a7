"""Simulation designs: cross-sectional covariance families and panel draws.

Each family maps a cross-section size n to an n x n positive semidefinite
covariance, together with its dependence scale h(n) (how the largest
eigenvalue grows). Panels are drawn with exact second-moment structure: the
cross-section uses a symmetric eigenvalue square root, moving-average memory
draws its pre-sample innovations (stationary from the first period), and
geometric memory uses a first-order recursion initialized from its stationary
law. Draw order (x, unit effects, error innovations) is fixed so equal seeds
give byte-identical panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PSD_RTOL
from .covariance import TimeDependenceSpec
from .dependence import CovMatrix
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
    "DgpSpec",
    "gen_panel",
]


def _resolve_width(width, n: int) -> int:
    if width == "sqrt":
        return int(np.ceil(np.sqrt(n)))
    w = int(width)
    if w < 1:
        raise UsageError("band width must be >= 1 or 'sqrt'")
    return w


@dataclass(frozen=True)
class Diagonal:
    """Independent errors with common variance ``scale``."""

    scale: float = 1.0
    name: str = field(default="diagonal", init=False)

    def build(self, n: int) -> np.ndarray:
        if self.scale <= 0:
            raise UsageError("scale must be positive")
        return self.scale * np.eye(n)

    def h_n(self, n: int) -> float:
        return 1.0

    def params(self) -> dict:
        return {"scale": self.scale}


@dataclass(frozen=True)
class Band:
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

    def build(self, n: int) -> np.ndarray:
        if not (0.0 <= self.b < 1.0):
            raise UsageError("band b must be in [0, 1)")
        if self.taper not in ("flat", "bartlett"):
            raise UsageError("taper must be 'flat' or 'bartlett'")
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

    def params(self) -> dict:
        return {"width": self.width, "b": self.b, "taper": self.taper}


@dataclass(frozen=True)
class Block:
    """Block-diagonal equicorrelation: within-block off-diagonal b.

    Give exactly one of ``size`` (int, or "sqrt" for blocks of size about
    sqrt(n)) or ``n_blocks`` (a fixed number of blocks whose size grows
    with n).
    """

    size: int | str | None = None
    n_blocks: int | None = None
    b: float = 0.5
    name: str = field(default="block", init=False)

    def __post_init__(self):
        if (self.size is None) == (self.n_blocks is None):
            raise UsageError("give exactly one of size or n_blocks")
        if not (0.0 <= self.b <= 1.0):
            raise UsageError("block b must be in [0, 1]")

    def _sizes(self, n: int) -> list[int]:
        if self.n_blocks is not None:
            nb = int(self.n_blocks)
            if nb < 1 or nb > n:
                raise UsageError("n_blocks must be in [1, n]")
            base, extra = divmod(n, nb)
            return [base + (1 if i < extra else 0) for i in range(nb)]
        s = _resolve_width(self.size, n)
        sizes = [s] * (n // s)
        if n % s:
            sizes.append(n % s)
        return sizes

    def build(self, n: int) -> np.ndarray:
        a = np.zeros((n, n))
        start = 0
        for s in self._sizes(n):
            blk = np.full((s, s), self.b)
            np.fill_diagonal(blk, 1.0)
            a[start:start + s, start:start + s] = blk
            start += s
        return a

    def h_n(self, n: int) -> float:
        return float(max(self._sizes(n)))

    def params(self) -> dict:
        return {"size": self.size, "n_blocks": self.n_blocks, "b": self.b}


@dataclass(frozen=True)
class DecayCorrelation:
    """Distance-decay covariance: entry b * (1 + |i - j|)^(-p), unit diagonal.

    p > 1 gives summable rows (weak), 0 < p < 1 gives norms growing like
    n^(1-p) (moderate), p = 0 gives constant off-diagonals (strong). The
    sequence is convex and decreasing, hence positive semidefinite for
    b <= 1 by the Polya criterion.
    """

    p: float = 1.5
    b: float = 0.5
    name: str = field(default="decay", init=False)

    def build(self, n: int) -> np.ndarray:
        if not (0.0 <= self.b <= 1.0):
            raise UsageError("decay b must be in [0, 1]")
        if self.p < 0:
            raise UsageError("decay exponent p must be >= 0")
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

    def params(self) -> dict:
        return {"p": self.p, "b": self.b}


@dataclass(frozen=True)
class SpatialAR:
    """Spatial autoregression on a ring: errors (I - rho W)^(-1) u.

    W is the row-normalized adjacency of a cycle (each unit's two ring
    neighbours at weight 1/2), so the covariance is
    (I - rho W)^(-1) (I - rho W')^(-1). Bounded norms for |rho| < 1.
    """

    rho: float = 0.4
    name: str = field(default="spatial_ar", init=False)

    def build(self, n: int) -> np.ndarray:
        if not (-1.0 < self.rho < 1.0):
            raise UsageError("spatial rho must be in (-1, 1)")
        w = np.zeros((n, n))
        idx = np.arange(n)
        w[idx, (idx + 1) % n] = 0.5
        w[idx, (idx - 1) % n] = 0.5
        m = np.linalg.inv(np.eye(n) - self.rho * w)
        return m @ m.T

    def h_n(self, n: int) -> float:
        return 1.0

    def params(self) -> dict:
        return {"rho": self.rho}


@dataclass(frozen=True)
class Equicorr:
    """Constant covariance: diagonal a, every off-diagonal b (0 <= b <= a)."""

    a: float = 1.0
    b: float = 0.5
    name: str = field(default="equicorr", init=False)

    def build(self, n: int) -> np.ndarray:
        if not (0.0 <= self.b <= self.a) or self.a <= 0:
            raise UsageError("equicorr needs a > 0 and 0 <= b <= a")
        m = np.full((n, n), self.b)
        np.fill_diagonal(m, self.a)
        return m

    def h_n(self, n: int) -> float:
        return float(n) if self.b > 0 else 1.0

    def params(self) -> dict:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class Arrowhead:
    """One hub unit tied to all others: first row/column off-diagonals
    1/(c sqrt(n)), unit diagonal. Largest eigenvalue stays below 1 + 1/c
    while the hub's row sum grows like sqrt(n)/c."""

    c: float = 2.0
    name: str = field(default="arrowhead", init=False)

    def build(self, n: int) -> np.ndarray:
        if self.c <= 1.0:
            raise UsageError("arrowhead c must be > 1 for positive definiteness")
        a = np.eye(n)
        v = 1.0 / (self.c * np.sqrt(n))
        a[0, 1:] = v
        a[1:, 0] = v
        return a

    def h_n(self, n: int) -> float:
        return 1.0

    def params(self) -> dict:
        return {"c": self.c}


@dataclass(frozen=True)
class ScaledEquicorr:
    """Equicorrelation with off-diagonals shrinking as a / sqrt(n):
    the largest eigenvalue grows like sqrt(n) while the entry norms stay
    bounded."""

    a: float = 1.0
    name: str = field(default="scaled_equicorr", init=False)

    def build(self, n: int) -> np.ndarray:
        if self.a <= 0:
            raise UsageError("scaled_equicorr a must be positive")
        b = self.a / np.sqrt(n)
        if b > 1.0:
            raise UsageError("a / sqrt(n) must be <= 1")
        m = np.full((n, n), b)
        np.fill_diagonal(m, 1.0)
        return m

    def h_n(self, n: int) -> float:
        return float(np.sqrt(n))

    def params(self) -> dict:
        return {"a": self.a}


@dataclass(frozen=True)
class Factor:
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

    def loadings(self, n: int) -> np.ndarray:
        if self.n_factors < 1 or self.n_factors >= n:
            raise UsageError("factor count must be in [1, n)")
        if not (0.0 < self.strength <= 1.0):
            raise UsageError("factor strength exponent must be in (0, 1]")
        rng = np.random.default_rng(np.random.SeedSequence([self.loading_seed, n]))
        if self.loading_law == "rademacher":
            raw = rng.integers(0, 2, size=(n, self.n_factors)) * 2.0 - 1.0
        elif self.loading_law == "gaussian":
            raw = rng.standard_normal((n, self.n_factors))
        else:
            raise UsageError("loading_law must be 'rademacher' or 'gaussian'")
        return raw * n ** ((self.strength - 1.0) / 2.0)

    def build(self, n: int) -> np.ndarray:
        if self.idio_var < 0:
            raise UsageError("idio_var must be nonnegative")
        lam = self.loadings(n)
        return lam @ lam.T + self.idio_var * np.eye(n)

    def h_n(self, n: int) -> float:
        return float(n ** self.strength)

    def params(self) -> dict:
        return {"n_factors": self.n_factors, "strength": self.strength,
                "loading_law": self.loading_law, "idio_var": self.idio_var,
                "loading_seed": self.loading_seed}


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
    "diagonal": Diagonal,
    "band": Band,
    "block": Block,
    "decay": DecayCorrelation,
    "spatial_ar": SpatialAR,
    "equicorr": Equicorr,
    "arrowhead": Arrowhead,
    "scaled_equicorr": ScaledEquicorr,
    "factor": Factor,
}

# Parametrizable aliases used by the command line.
_FAMILY_ALIASES: dict[str, type] = {
    "example12": Arrowhead,
    "example13": Equicorr,
    "example14": ScaledEquicorr,
}

_INT_PARAMS = {"width", "size", "n_blocks", "n_factors", "loading_seed"}
_STR_PARAMS = {"taper", "loading_law"}


def family_from_string(text: str):
    """Parse "name" or "name:key=value,key=value" into a family instance.

    Accepts the class names (diagonal, band, block, decay, spatial_ar,
    equicorr, arrowhead, scaled_equicorr, factor), the canonical presets
    example1..example14, and parametrized forms of example12/13/14.
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    kwargs: dict = {}
    if rest.strip():
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            key, val = key.strip(), val.strip()
            if not eq or not key or not val:
                raise UsageError(f"bad family parameter {piece!r}")
            if key in _INT_PARAMS and val != "sqrt":
                kwargs[key] = int(val)
            elif key in _STR_PARAMS or val == "sqrt":
                kwargs[key] = val
            else:
                try:
                    kwargs[key] = float(val)
                except ValueError:
                    raise UsageError(f"bad numeric value for {key!r}: {val!r}") from None
    cls = _FAMILY_CLASSES.get(name)
    if cls is None and name in _FAMILY_ALIASES and kwargs:
        cls = _FAMILY_ALIASES[name]
    if cls is None:
        preset = EXAMPLE_PRESETS.get(name)
        if preset is not None:
            if kwargs:
                raise UsageError(
                    f"{name} preset takes no parameters; use example12/13/14 "
                    "or a class name to parametrize")
            return preset
        raise UsageError(f"unknown family {name!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise UsageError(f"bad parameters for family {name!r}: {exc}") from None


def build_omega(family, n: int) -> CovMatrix:
    """Materialize a family at size n, verifying positive semidefiniteness.

    Raises NotPSD naming the family when the matrix has an eigenvalue below
    -1e-8 times the largest (wide flat bands are the canonical offender).
    """
    values = family.build(n)
    cov = CovMatrix(values, meta={"family": family.name, "n": n,
                                  **family.params()})
    try:
        cov.eigenvalues
    except NotPSD as exc:
        raise NotPSD(f"family {family.name!r} at n={n} is not positive "
                     f"semidefinite: {exc}") from None
    return cov


# ---------------------------------------------------------------------------
# Panel generation


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
                           tuple(float(b) for b in self.beta_true))
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
        return {
            "cross_section": {"family": self.cross_section.name,
                              **self.cross_section.params()},
            "beta_true": list(self.beta_true),
            "time_memory": {"channel": tm.channel, "form": tm.form,
                            "psi": list(tm.psi) if tm.psi else None,
                            "decay": tm.decay},
            "x_law": self.x_law,
            "mu_law": self.mu_law,
            "error_dist": self.error_dist,
            "t_df": self.t_df,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DgpSpec":
        raw = d["cross_section"]
        if isinstance(raw, str):
            family = family_from_string(raw)
        else:
            cs = dict(raw)
            fam_name = cs.pop("family")
            fam_cls = _FAMILY_CLASSES.get(fam_name)
            if fam_cls is None:
                raise UsageError(f"unknown cross-section family {fam_name!r}")
            cs = {k: v for k, v in cs.items() if v is not None}
            family = fam_cls(**cs)
        tm = d.get("time_memory") or {"channel": "none", "form": "none"}
        spec = TimeDependenceSpec(
            channel=tm.get("channel", "none"), form=tm.get("form", "none"),
            psi=tuple(tm["psi"]) if tm.get("psi") else None,
            decay=tm.get("decay"))
        return cls(
            cross_section=family,
            beta_true=tuple(d["beta_true"]),
            time_memory=spec,
            x_law=d.get("x_law", "iid_normal"),
            mu_law=d.get("mu_law", "uniform"),
            error_dist=d.get("error_dist", "gaussian"),
            t_df=d.get("t_df", 8.0),
        )


def _sym_sqrt(values: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(values)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)[np.newaxis, :]) @ evecs.T


def _innovations(rng: np.random.Generator, shape, spec: DgpSpec) -> np.ndarray:
    if spec.error_dist == "gaussian":
        return rng.standard_normal(shape)
    z = rng.standard_t(spec.t_df, size=shape)
    return z * np.sqrt((spec.t_df - 2.0) / spec.t_df)


def _filter_series(z: np.ndarray, tm: TimeDependenceSpec, t: int) -> np.ndarray:
    """Turn iid innovation columns into a serially dependent series of
    length t with unit marginal variance and the autocorrelations ``tm``
    asks for.

    ``z`` must already hold the required number of columns: t + q for the
    MA form (pre-sample draws give a stationary start), t for the others.
    """
    if tm.form == "none":
        return z
    if tm.form == "ma":
        psi = np.asarray(tm.psi, dtype=float)
        psi = psi / np.linalg.norm(psi)
        q = len(psi) - 1
        out = np.zeros(z.shape[:-1] + (t,))
        for j, p in enumerate(psi):
            if p != 0.0:
                out += p * z[..., q - j:q - j + t]
        return out
    # summable: stationary first-order recursion
    phi = tm.decay
    out = np.empty_like(z)
    out[..., 0] = z[..., 0]
    scale = np.sqrt(1.0 - phi * phi)
    for s in range(1, z.shape[-1]):
        out[..., s] = phi * out[..., s - 1] + scale * z[..., s]
    return out


def _memory_cols(tm: TimeDependenceSpec, t: int) -> int:
    if tm.form == "ma":
        return t + len(tm.psi) - 1
    return t


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
        mu shaped (n,)); the seed then only drives the errors.

    Returns
    -------
    (panel, truth)
        ``truth`` records everything the draw used: beta, mu, the realized
        covariance pieces (omega, loadings, sigma values), h_n, the family
        and its parameters, and the law names.
    """
    k = len(spec.beta_true)
    family = spec.cross_section
    is_factor = isinstance(family, Factor)
    rng = np.random.default_rng(seed)

    loadings = family.loadings(n) if is_factor else None
    if is_factor:
        omega_values = loadings @ loadings.T + family.idio_var * np.eye(n)
        sigma_values = family.idio_var * np.eye(n)
        sqrt_omega = None
    else:
        omega_values = family.build(n)
        sigma_values = omega_values
        cov = CovMatrix(omega_values)
        evals = cov.eigenvalues  # raises NotPSD for invalid parametrizations
        if evals[0] < -PSD_RTOL * max(evals[-1], 0.0):
            raise NotPSD(f"family {family.name!r} is not positive semidefinite")
        sqrt_omega = _sym_sqrt(cov.values)

    # Draw order is part of the determinism contract: x, then mu, then errors.
    if design is not None:
        x, mu = design
        x = np.asarray(x, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if x.shape != (n, t, k) or mu.shape != (n,):
            raise ValueError("design shapes do not match (n, t, k)")
    else:
        if spec.x_law == "factor_aligned":
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

    tm = spec.time_memory
    if is_factor:
        m = loadings.shape[1]
        f_cols = _memory_cols(tm, t) if tm.channel == "factor" else t
        u_cols = _memory_cols(tm, t) if tm.channel == "idio" else t
        f = _innovations(rng, (m, f_cols), spec)
        u = _innovations(rng, (n, u_cols), spec)
        if tm.channel == "factor":
            f = _filter_series(f, tm, t)
        elif tm.channel == "idio":
            u = _filter_series(u, tm, t)
        eps = loadings @ f + np.sqrt(family.idio_var) * u
    else:
        z = _innovations(rng, (n, _memory_cols(tm, t)), spec)
        if tm.channel != "none":
            z = _filter_series(z, tm, t)
        eps = sqrt_omega @ z

    y = mu[:, np.newaxis] + np.einsum("itk,k->it", x, np.asarray(spec.beta_true)) + eps
    panel = PanelData(y=y, x=x)
    truth = {
        "beta": np.asarray(spec.beta_true),
        "mu": mu,
        "omega": omega_values,
        "loadings": loadings,
        "sigma": sigma_values,
        "h_n": family.h_n(n),
        "family": family.name,
        "family_params": family.params(),
        "time_memory": tm,
        "x_law": spec.x_law,
        "error_dist": spec.error_dist,
    }
    return panel, truth
