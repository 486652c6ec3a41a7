"""Package-wide numerical thresholds, defaults and config parsing.

Every tolerance that shapes behaviour lives here so it is documented in one
place and tests can reference the same constants the code uses.
"""

from __future__ import annotations

from collections.abc import Iterable
import dataclasses
import math
import numbers
import os

from .errors import UsageError

# Regime classification: fitted growth exponent alpha of the largest-eigenvalue
# norm against the cross-section size. alpha <= WEAK_ALPHA_MAX is weak,
# alpha >= STRONG_ALPHA_MIN is strong, anything between is moderate.
WEAK_ALPHA_MAX = 0.1
STRONG_ALPHA_MIN = 0.9

# Factor count selection: scan the top EIGEN_RATIO_M_MAX adjacent eigenvalue
# ratios (descending order); if the largest ratio is below EIGEN_RATIO_MIN the
# matrix is treated as factorless (m = 0), otherwise m is the gap position.
EIGEN_RATIO_MIN = 3.0
EIGEN_RATIO_M_MAX = 8

# Symmetric-matrix hygiene. Symmetry is checked relative to the largest entry;
# eigenvalues within EIG_CLIP_REL of zero (relative to the top eigenvalue) are
# clamped to exactly zero; eigenvalues below -PSD_RTOL * lambda_max mean the
# matrix is not positive semidefinite. A covariance keeps one checked
# spectrum and lambda_max is its exact top: the spectrum of the r x r core
# of a covariance held as its form c I + U S U', else that of its first
# dense solve, an eigh already run or eigvalsh.
SYMMETRY_RTOL = 1e-10
EIG_CLIP_REL = 1e-10
PSD_RTOL = 1e-8

# A covariance held as its form c I + U S U' gives its entry norms from
# blocks of rows of about NORM_BLOCK_ELEMENTS entries (512 KiB), computed
# from the form, so that no n x n array is formed.
NORM_BLOCK_ELEMENTS = 1 << 16

# Design conditioning: warn above COND_WARN, refuse above COND_FAIL. The
# condition number is for the demeaned regressor cross-product (squared
# singular-value ratio of the demeaned design).
COND_WARN = 1e8
COND_FAIL = 1e12

# Robust covariance PSD repair: eigenvalues below -PSD_REPAIR_REL * lambda_max
# are clipped to zero and the clipped mass is recorded on the result.
PSD_REPAIR_REL = 1e-10


def declared_lag(declared: str) -> int | None:
    """Parse a statement about the errors' serial dependence.

    The grammar is "pure-cs" (no serial dependence, lag 0), "ma:<q>" with an
    integer q >= 0 (lag q), "summable" or "unknown" (no finite lag, None).
    Anything else is a UsageError.
    """
    if declared == "pure-cs":
        return 0
    if declared in ("summable", "unknown"):
        return None
    if (isinstance(declared, str) and declared.startswith("ma:")
            and declared[3:].isascii() and declared[3:].isdigit()):
        return int(declared[3:])
    raise UsageError(f"declared dependence must be pure-cs, ma:<q> with "
                     f"q >= 0, summable or unknown; got {declared!r}")


# Default automatic lag truncation for the kernel covariance when the time
# dependence is of unknown order: floor(4 * (T/100)^(2/9)).
def auto_truncation(t: int, declared: str = "unknown") -> int:
    """Resolve the automatic lag truncation for ``t`` periods.

    ``declared`` (see :func:`declared_lag`) gives its own lag when it has
    one: 0 for "pure-cs", q for "ma:<q>"; "summable" and "unknown" give the
    plug-in rate above.
    """
    q = declared_lag(declared)
    return int(4.0 * (t / 100.0) ** (2.0 / 9.0)) if q is None else q


def from_fields(cls, d: dict, what: str, **convert):
    """Build the dataclass ``cls`` from the dict ``d``: name every unknown
    key, pass each key named in ``convert`` through its converter, and
    leave every default and check to the constructor."""
    if not isinstance(d, dict):
        raise UsageError(f"{what} must be an object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise UsageError(f"unknown {what} key(s): {', '.join(unknown)}")
    try:
        return cls(**{key: convert[key](value) if key in convert else value
                      for key, value in d.items()})
    except TypeError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def field_dict(obj, **overrides) -> dict:
    """The constructor fields of the dataclass ``obj`` in declaration
    order, with ``overrides`` replacing the nested ones."""
    return {f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj) if f.init} | overrides


def check_int(value, what: str) -> int:
    """``value`` as an int; UsageError naming ``what`` when it is a bool or
    not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a float; UsageError naming ``what`` when it is a bool,
    not a real number (a string is never parsed), infinite or NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"{what} must be finite, got {value!r}")
    return float(value)


def check_reals(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each checked by :func:`check_real`."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise UsageError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(check_real(v, f"{what} entry") for v in values)


# Worker count for the simulation engine: --threads flag beats this env var,
# which beats os.cpu_count().
THREADS_ENV_VAR = "PANELCSD_THREADS"


def resolve_workers(workers=None, what: str = "workers") -> int:
    """The Monte Carlo worker count: ``workers`` when given, else
    PANELCSD_THREADS when it is set and not empty, else the CPU count.
    A value that is not an integer >= 1 is a UsageError naming ``what``
    (or the environment variable it came from)."""
    if workers is None:
        env = os.environ.get(THREADS_ENV_VAR, "")
        if not env:
            return max(1, os.cpu_count() or 1)
        workers, what = env, THREADS_ENV_VAR
        try:
            workers = int(env)
        except ValueError:
            pass
    if (isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
            or workers < 1):
        raise UsageError(f"{what} must be an integer >= 1, got {workers!r}")
    return int(workers)
