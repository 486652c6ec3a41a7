"""Balanced panel container and long-format CSV ingestion.

A panel holds an outcome ``y`` of shape (n_units, n_periods) and regressors
``x`` of shape (n_units, n_periods, n_regressors).
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DuplicateCell, ParseError, UnbalancedPanel

__all__ = ["PanelData", "load_csv"]


@functools.lru_cache(maxsize=32)
def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    """``<prefix>0001, <prefix>0002, ...``; cached, since Monte Carlo draws
    build panels of one size over and over."""
    return tuple(f"{prefix}{i + 1:04d}" for i in range(count))


def _fields_equal(a, b):
    """``==`` for a dataclass that holds arrays: same type, arrays equal in
    shape and values (``np.array_equal``), every other field equal. The
    generated ``__eq__`` compares arrays element-wise and raises instead of
    returning a bool."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        mine, theirs = getattr(a, f.name), getattr(b, f.name)
        if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
            if not np.array_equal(mine, theirs):
                return False
        elif mine != theirs:
            return False
    return True


def _labels(given, prefix: str, count: int, what: str) -> tuple[str, ...]:
    """Labels passed in, checked for count and uniqueness, or the default."""
    if not given:
        return _default_labels(prefix, count)
    labels = tuple(given)
    if len(labels) != count:
        raise ValueError("id label counts do not match panel shape")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} labels are not unique")
    return labels


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
        object.__setattr__(self, "unit_ids", _labels(self.unit_ids, "u", n, "unit"))
        object.__setattr__(self, "time_ids", _labels(self.time_ids, "t", t, "time"))
        x_names = self.x_names or tuple(f"x{j + 1}" for j in range(x.shape[2]))
        if len(x_names) != x.shape[2]:
            raise ValueError("regressor name count does not match panel shape")
        object.__setattr__(self, "x_names", tuple(x_names))

    __eq__ = _fields_equal

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]


def _sort_labels(labels) -> list[str]:
    # Numeric sort when every label parses as a finite number, lexicographic
    # otherwise. A NaN key compares false both ways, so one NaN label would
    # leave the order to set iteration, which follows the hash seed.
    try:
        keys = {s: float(s) for s in labels}
    except ValueError:
        return sorted(labels)
    if not all(map(math.isfinite, keys.values())):
        return sorted(labels)
    return sorted(labels, key=lambda s: (keys[s], s))


# Rows per block of the columnar parse. Large enough that the per-block numpy
# calls cost little; small because a block's lines and rows are what the
# parse holds at once besides the values. On a 200k-row, six-column file
# (18 MB, a 6.1 MiB panel) a process that loads it once peaked at 52 MB with
# this size (48 MB at 1,024 rows and 76 MB at 65,536), 107 MB parsing all
# rows at once, and 139 MB with the row parser.
_CHUNK_ROWS = 8192


# Characters that send a block to the row parser: the ASCII separators,
# which numpy's number parser skips as white space around a value and
# float() does not, and NUL, which the csv module of Python 3.10 refuses.
_NOT_NUMERIC_SPACE = "\x00\x1c\x1d\x1e\x1f"


def _quote_left_open(line: str) -> bool:
    """Whether the csv module may carry the record of ``line`` on into the
    next line: its strict mode refuses an unclosed quote (and a character
    after a closing quote)."""
    try:
        list(csv.reader([line], strict=True))
    except csv.Error:
        return True
    return False


@contextlib.contextmanager
def _csv_reader(path: str):
    """The open UTF-8 file and a csv.reader over it. A leading byte-order
    mark is dropped; a byte that does not decode, or a record the csv module
    refuses (such as a field over its size limit), is a ParseError on its
    line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield fh, reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"text is not UTF-8 ({exc.reason})",
                         line=_undecodable_line(path)) from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV record ({exc})",
                         line=reader.line_num) from None


def _undecodable_line(path: str) -> int | None:
    # The decoder's offset counts from its read buffer, not the file start.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


def _read_header(reader, id_col: str, time_col: str, y_col: str,
                 x_cols: list[str] | None) -> tuple[list[str], list[str]]:
    """The stripped header and the regressor columns, checked."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    header = [h.strip() for h in header]
    for j, col in enumerate(header):
        if col in header[:j]:
            raise ParseError(f"header names column {col!r} twice", line=1)
    for col in (id_col, time_col, y_col):
        if col not in header:
            raise ParseError(f"missing required column {col!r}", line=1)
    if x_cols is None:
        x_cols = [h for h in header if h not in (id_col, time_col, y_col)]
    if not x_cols:
        raise ParseError("no regressor columns found", line=1)
    for j, col in enumerate(x_cols):
        if col not in header:
            raise ParseError(f"missing regressor column {col!r}", line=1)
        if col in x_cols[:j]:
            raise ParseError(f"regressor column {col!r} listed twice", line=1)
        if col in (id_col, time_col, y_col):
            raise ParseError(
                f"regressor column {col!r} is the id, time or y column",
                line=1)
    return header, x_cols


def load_csv(
    path: str,
    id_col: str = "id",
    time_col: str = "time",
    y_col: str = "y",
    x_cols: list[str] | None = None,
) -> PanelData:
    """Read a balanced panel from a long-format CSV file.

    The file must be UTF-8 (a leading byte-order mark is allowed) and have a
    header naming ``id_col``, ``time_col``, ``y_col``, and the regressor
    columns. When ``x_cols`` is None every remaining column is treated as a
    regressor, in header order; the panel's ``x_names`` record the regressor
    columns used. Labels are stripped of surrounding whitespace. Each value
    gets the bits ``float()`` gives its text. Row order in the file is
    irrelevant: cells are placed by their labels, units and periods each
    sorted numerically when every label of the kind is a finite number, and
    lexicographically otherwise. Blank lines are skipped.

    The data lines are parsed in blocks of rows, one call to numpy's C text
    reader per block. It converts numbers with the routine ``float()``
    uses, so the bits are the same. Each block's values are kept until the
    labels are sorted and then moved into the panel, so the parse holds
    about 2.4 times the panel's bytes at its peak, plus one block of lines.
    The file is read again row by row, by the csv module and ``float()``,
    when a block has a ragged row, a value numpy does not read (``1_0``
    and non-ASCII digits, which ``float()`` reads, among them), a newline
    inside quotes, a line longer than ``csv.field_size_limit()``, or a NUL
    or an ASCII separator character (``\x1c`` to ``\x1f``, white space to
    numpy's number parser and not to ``float()``); and when the file has
    an empty label, a non-finite value, a repeated or missing cell, or no
    data rows. That pass raises the error below or, where there is none,
    returns the panel; so errors and their lines do not depend on the block
    boundaries.

    Raises
    ------
    ParseError
        A header naming a column twice, missing columns, a regressor listed
        twice or naming the id, time or y column (line 1), a value that
        does not parse, a record the csv module refuses, or a byte that is
        not UTF-8, with the file line. A bad record is numbered by the line
        it starts on, counting every line end, also those inside quotes.
    DuplicateCell
        The same (unit, period) appears twice.
    UnbalancedPanel
        The (unit, period) grid has holes; the message lists up to five.
    """
    with _csv_reader(path) as (fh, reader):
        header, x_cols = _read_header(reader, id_col, time_col, y_col, x_cols)
        pos = {h: j for j, h in enumerate(header)}
        panel = _load_columns(fh, len(header), pos[id_col],
                              pos[time_col], [pos[c] for c in (y_col, *x_cols)])
    if panel is None:
        return _load_csv_rows(path, id_col, time_col, y_col, x_cols)
    y, x, units, periods = panel
    return PanelData(y=y, x=x, unit_ids=tuple(units), time_ids=tuple(periods),
                     x_names=tuple(x_cols))


def _load_columns(lines, width: int, unit_col: int, period_col: int,
                  value_cols: list[int]):
    """(y, x, unit labels, period labels) of a file without irregular rows,
    else None. ``lines`` are the data lines, after the header."""
    formats = ["U1"] * width  # columns the panel does not use
    formats[unit_col] = formats[period_col] = "O"
    for j in value_cols:
        formats[j] = "f8"
    dtype = np.dtype(",".join(formats))
    limit = csv.field_size_limit()
    # raw label -> first-seen code, for units and periods: a missing label
    # gets the count of labels before it
    seen = (collections.defaultdict(), collections.defaultdict())
    for codes in seen:
        codes.default_factory = codes.__len__
    coded, values = [], []  # per block: its two code arrays, its values
    try:
        while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
            if max(map(len, chunk)) > limit:
                return None
            # Both readers skip a line of white space; numpy raises on one
            # that is not a bare line end, so it never sees them.
            kept = list(itertools.filterfalse(str.isspace, chunk))
            if not kept:
                continue
            if (any(c in "".join(kept) for c in _NOT_NUMERIC_SPACE)
                    or _quote_left_open(kept[-1])):
                return None
            rows = np.loadtxt(kept, dtype=dtype, delimiter=",",
                              quotechar='"', comments=None, ndmin=1)
            # Each row takes at least one kept line, and a newline inside
            # quotes joins its opening and closing lines, neither of them
            # white space, into one row: so it leaves fewer rows than lines.
            if len(rows) < len(kept):
                return None
            block = np.array([rows[f"f{j}"] for j in value_cols])
            if not np.isfinite(block).all():
                return None
            coded.append(tuple(
                np.fromiter(map(codes.__getitem__, rows[f"f{j}"].tolist()),
                            dtype=np.intp, count=len(rows))
                for j, codes in zip((unit_col, period_col), seen)))
            values.append(block)
    except ValueError:  # incl. a ragged row and a byte that is not UTF-8
        return None
    if not values:
        return None
    axes = []
    for codes in seen:
        stripped = [s.strip() for s in codes]  # indexed by code
        if not all(stripped):
            return None
        labels = _sort_labels(set(stripped))
        rank = {s: i for i, s in enumerate(labels)}
        axes.append((labels, np.array([rank[s] for s in stripped],
                                      dtype=np.intp)))
    (units, unit_rank), (periods, period_rank) = axes
    n, t, k = len(units), len(periods), len(value_cols) - 1
    cell = np.concatenate([unit_rank[u] * t + period_rank[p]
                           for u, p in coded])
    # the codes and the last block's lines and rows, freed before the
    # panel's arrays are allocated
    del coded, kept, rows
    # every cell exactly once: no duplicate and no hole
    if not (np.bincount(cell, minlength=n * t) == 1).all():
        return None
    y, x = np.empty(n * t), np.empty((n * t, k))
    start = 0
    for block in values:
        part = cell[start:start + block.shape[1]]
        y[part] = block[0]
        x[part] = block[1:].T
        start += block.shape[1]
    return y.reshape(n, t), x.reshape(n, t, k), units, periods


def _numbered(reader):
    """(line, record) for each record left in ``reader``, numbered by the
    file line it starts on: a quoted newline makes a record span lines."""
    while True:
        line = reader.line_num + 1
        try:
            rec = next(reader)
        except StopIteration:
            return
        yield line, rec


def _load_csv_rows(path: str, id_col: str, time_col: str, y_col: str,
                   x_cols: list[str] | None) -> PanelData:
    """Row-by-row parse of the same file: the one place that raises a data
    error, so its message and line come from the first bad row."""
    with _csv_reader(path) as (_, reader):
        header, x_cols = _read_header(reader, id_col, time_col, y_col, x_cols)
        pos = {h: j for j, h in enumerate(header)}
        rows: dict[tuple[str, str], tuple[float, list[float]]] = {}
        for lineno, rec in _numbered(reader):
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
