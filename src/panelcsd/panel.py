"""Balanced panel container, CSV ingestion, and stacking order conversions.

A panel holds an outcome ``y`` of shape (n_units, n_periods) and regressors
``x`` of shape (n_units, n_periods, n_regressors). Long-format vectors come in
two orderings: unit-major (all periods of unit 1, then unit 2, ...) and
time-major (all units at period 1, then period 2, ...). Both are exposed as
views with explicit index maps so downstream code never guesses.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateCell, ParseError, UnbalancedPanel

__all__ = ["Ordering", "PanelData", "StackedView", "load_csv", "stack"]


class Ordering(enum.Enum):
    """Long-format row order for stacked panels."""

    BY_UNIT = "by_unit"  # row = unit * n_periods + period
    BY_TIME = "by_time"  # row = period * n_units + unit


def _check_ids(labels: tuple[str, ...], what: str) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} labels are not unique")


@dataclass(frozen=True)
class PanelData:
    """Balanced panel with at least 2 units, 2 periods, and 1 regressor.

    Parameters
    ----------
    y : ndarray, shape (n_units, n_periods)
        Outcome. Must be finite everywhere (no missing values).
    x : ndarray, shape (n_units, n_periods, n_regressors)
        Regressors, finite everywhere.
    unit_ids, time_ids : tuple of str
        Row/column labels. Generated as ``u0001, ...`` / ``t0001, ...``
        when omitted.
    x_names : tuple of str
        Regressor labels. Generated as ``x1, ..., xk`` when omitted.
    """

    y: np.ndarray
    x: np.ndarray
    unit_ids: tuple[str, ...] = field(default=())
    time_ids: tuple[str, ...] = field(default=())
    x_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 2:
            raise ValueError("y must be 2-d (units x periods)")
        if x.ndim != 3:
            raise ValueError("x must be 3-d (units x periods x regressors)")
        n, t = y.shape
        if x.shape[:2] != (n, t):
            raise ValueError(f"x leading shape {x.shape[:2]} != y shape {(n, t)}")
        if n < 2 or t < 2 or x.shape[2] < 1:
            raise ValueError("need n_units >= 2, n_periods >= 2, n_regressors >= 1")
        if not np.isfinite(y).all() or not np.isfinite(x).all():
            raise ValueError("panel contains non-finite values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        unit_ids = self.unit_ids or tuple(f"u{i + 1:04d}" for i in range(n))
        time_ids = self.time_ids or tuple(f"t{s + 1:04d}" for s in range(t))
        if len(unit_ids) != n or len(time_ids) != t:
            raise ValueError("id label counts do not match panel shape")
        _check_ids(unit_ids, "unit")
        _check_ids(time_ids, "time")
        object.__setattr__(self, "unit_ids", tuple(unit_ids))
        object.__setattr__(self, "time_ids", tuple(time_ids))
        x_names = self.x_names or tuple(f"x{j + 1}" for j in range(x.shape[2]))
        if len(x_names) != x.shape[2]:
            raise ValueError("regressor name count does not match panel shape")
        object.__setattr__(self, "x_names", tuple(x_names))

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class StackedView:
    """Long-format view of a panel under a fixed ordering.

    ``y`` has length n_units * n_periods and ``x`` is (n_units * n_periods,
    n_regressors). ``index_of`` and ``cell_of`` are mutually inverse maps
    between cells (unit, period) and long rows.
    """

    y: np.ndarray
    x: np.ndarray
    ordering: Ordering
    n_units: int
    n_periods: int

    def index_of(self, unit: int, period: int) -> int:
        if not (0 <= unit < self.n_units and 0 <= period < self.n_periods):
            raise IndexError("cell out of range")
        if self.ordering is Ordering.BY_UNIT:
            return unit * self.n_periods + period
        return period * self.n_units + unit

    def cell_of(self, row: int) -> tuple[int, int]:
        if not (0 <= row < self.n_units * self.n_periods):
            raise IndexError("row out of range")
        if self.ordering is Ordering.BY_UNIT:
            return divmod(row, self.n_periods)[0], row % self.n_periods
        period, unit = divmod(row, self.n_units)
        return unit, period


def stack(panel: PanelData, ordering: Ordering) -> StackedView:
    """Flatten a panel into long format under the requested ordering."""
    if ordering is Ordering.BY_UNIT:
        y = panel.y.reshape(-1).copy()
        x = panel.x.reshape(-1, panel.n_regressors).copy()
    elif ordering is Ordering.BY_TIME:
        y = panel.y.T.reshape(-1).copy()
        x = panel.x.transpose(1, 0, 2).reshape(-1, panel.n_regressors).copy()
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return StackedView(y=y, x=x, ordering=ordering,
                       n_units=panel.n_units, n_periods=panel.n_periods)


def _sort_labels(labels: set[str]) -> list[str]:
    # Numeric sort when every label parses as a number, lexicographic otherwise.
    try:
        return sorted(labels, key=lambda s: (float(s), s))
    except ValueError:
        return sorted(labels)


def load_csv(
    path: str,
    id_col: str = "id",
    time_col: str = "time",
    y_col: str = "y",
    x_cols: list[str] | None = None,
) -> PanelData:
    """Read a balanced panel from a long-format CSV file.

    The file must have a header naming ``id_col``, ``time_col``, ``y_col``,
    and the regressor columns. When ``x_cols`` is None every remaining column
    is treated as a regressor, in header order; the panel's ``x_names`` record
    the regressor columns used. Row order in the file is
    irrelevant: cells are placed by their labels, units sorted by label and
    periods sorted ascending (numerically when all period labels are numeric).

    Raises
    ------
    ParseError
        Missing columns or a value that does not parse, with the file line.
    DuplicateCell
        The same (unit, period) appears twice.
    UnbalancedPanel
        The (unit, period) grid has holes; the message lists up to five.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        for col in (id_col, time_col, y_col):
            if col not in header:
                raise ParseError(f"missing required column {col!r}", line=1)
        if x_cols is None:
            x_cols = [h for h in header if h not in (id_col, time_col, y_col)]
        if not x_cols:
            raise ParseError("no regressor columns found", line=1)
        for col in x_cols:
            if col not in header:
                raise ParseError(f"missing regressor column {col!r}", line=1)
        pos = {h: j for j, h in enumerate(header)}
        rows: dict[tuple[str, str], tuple[float, list[float]]] = {}
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(rec)}", line=lineno)
            unit = rec[pos[id_col]].strip()
            period = rec[pos[time_col]].strip()
            if not unit or not period:
                raise ParseError("empty id or time label", line=lineno)
            try:
                yv = float(rec[pos[y_col]])
                xv = [float(rec[pos[c]]) for c in x_cols]
            except ValueError as exc:
                raise ParseError(f"bad numeric value ({exc})", line=lineno) from None
            if not np.isfinite(yv) or not all(np.isfinite(v) for v in xv):
                raise ParseError("non-finite value", line=lineno)
            key = (unit, period)
            if key in rows:
                raise DuplicateCell(f"duplicate cell (id={unit!r}, time={period!r})")
            rows[key] = (yv, xv)

    units = _sort_labels({u for u, _ in rows})
    periods = _sort_labels({p for _, p in rows})
    missing = [(u, p) for u in units for p in periods if (u, p) not in rows]
    if missing:
        shown = ", ".join(f"({u!r}, {p!r})" for u, p in missing[:5])
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise UnbalancedPanel(f"missing cells: {shown}{more}")

    n, t, k = len(units), len(periods), len(x_cols)
    y = np.empty((n, t))
    x = np.empty((n, t, k))
    for i, u in enumerate(units):
        for s, p in enumerate(periods):
            yv, xv = rows[(u, p)]
            y[i, s] = yv
            x[i, s, :] = xv
    return PanelData(y=y, x=x, unit_ids=tuple(units), time_ids=tuple(periods),
                     x_names=tuple(x_cols))
