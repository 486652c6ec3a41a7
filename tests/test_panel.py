import dataclasses
import pickle
import subprocess
import sys
import warnings
from decimal import Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import child_env, traced_peak
from panelcsd import PanelData, load_csv
from panelcsd import panel as panel_module
from panelcsd.errors import (DuplicateCell, PanelError, ParseError,
                             UnbalancedPanel)


def small_panel():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.arange(8, dtype=float).reshape(2, 2, 2)
    return PanelData(y=y, x=x)


def test_panel_validation():
    with pytest.raises(ValueError):
        PanelData(y=np.zeros(4), x=np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        PanelData(y=np.zeros((2, 2)), x=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PanelData(y=np.zeros((1, 5)), x=np.zeros((1, 5, 1)))
    with pytest.raises(ValueError):
        PanelData(y=np.full((2, 2), np.nan), x=np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        PanelData(y=np.zeros((2, 2)), x=np.zeros((2, 2, 1)),
                  unit_ids=("a", "a"))
    with pytest.raises(ValueError):
        PanelData(y=np.zeros((2, 2)), x=np.zeros((2, 2, 1)),
                  unit_ids=("a", "b", "c"))
    with pytest.raises(ValueError):
        PanelData(y=np.zeros((2, 2)), x=np.zeros((2, 2, 1)),
                  x_names=("x1", "x2"))


def test_default_labels():
    panel = small_panel()
    assert panel.unit_ids == ("u0001", "u0002")
    assert panel.time_ids == ("t0001", "t0002")
    assert panel.x_names == ("x1", "x2")


def test_default_labels_are_shared_by_panels_of_one_size():
    y, x = np.zeros((3, 12)), np.ones((3, 12, 1))
    panel = PanelData(y=y, x=x)
    assert panel.unit_ids == ("u0001", "u0002", "u0003")
    assert panel.time_ids == tuple(f"t{s:04d}" for s in range(1, 13))
    other = PanelData(y=y + 1.0, x=x)
    assert other.unit_ids is panel.unit_ids  # formatted once per size
    assert other.time_ids is panel.time_ids
    # equal to, and printed like, the same labels passed in
    explicit = PanelData(y=y, x=x, unit_ids=list(panel.unit_ids),
                         time_ids=panel.time_ids)
    assert PanelData(y=y, x=x) == explicit
    assert repr(PanelData(y=y, x=x)) == repr(explicit)
    assert PanelData(y=y, x=x) != PanelData(y=y, x=x,
                                            unit_ids=("a", "b", "c"))
    assert pickle.loads(pickle.dumps(PanelData(y=y, x=x))).time_ids[-1] \
        == "t0012"
    with pytest.raises(dataclasses.FrozenInstanceError):
        panel.unit_ids = ("a", "b", "c")


def test_passed_labels_are_checked_at_construction():
    y, x = np.zeros((2, 3)), np.zeros((2, 3, 1))
    with pytest.raises(ValueError, match="time labels are not unique"):
        PanelData(y=y, x=x, time_ids=("1", "2", "1"))
    with pytest.raises(ValueError, match="unit labels are not unique"):
        PanelData(y=y, x=x, unit_ids=("a", "a"))
    with pytest.raises(ValueError, match="id label counts"):
        PanelData(y=y, x=x, time_ids=("1", "2"))
    assert PanelData(y=y, x=x, unit_ids=["a", "b"]).unit_ids == ("a", "b")


def _write(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in r) for r in rows) + "\n")


def test_load_csv_happy_path(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1", "x2"],
               ["b", "1", 1.0, 0.1, 0.2],
               ["a", "2", 2.0, 0.3, 0.4],
               ["a", "1", 3.0, 0.5, 0.6],
               ["b", "2", 4.0, 0.7, 0.8]])
    panel = load_csv(str(f))
    assert panel.unit_ids == ("a", "b")
    assert panel.time_ids == ("1", "2")
    assert_allclose(panel.y, [[3.0, 2.0], [1.0, 4.0]])
    assert_allclose(panel.x[0, 0], [0.5, 0.6])
    assert_allclose(panel.x[1, 1], [0.7, 0.8])
    assert panel.x_names == ("x1", "x2")
    picked = load_csv(str(f), x_cols=["x2", "x1"])
    assert picked.x_names == ("x2", "x1")
    assert_allclose(picked.x[0, 0], [0.6, 0.5])


def test_load_csv_row_order_irrelevant(tmp_path):
    rows = [["id", "time", "y", "x1"],
            ["1", "1", 1.0, 0.1], ["1", "2", 2.0, 0.2],
            ["2", "1", 3.0, 0.3], ["2", "2", 4.0, 0.4]]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write(f1, rows)
    _write(f2, [rows[0]] + rows[1:][::-1])
    p1, p2 = load_csv(str(f1)), load_csv(str(f2))
    assert_allclose(p1.y, p2.y)
    assert_allclose(p1.x, p2.x)
    assert p1.unit_ids == p2.unit_ids


def test_load_csv_numeric_label_sort(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["10", "1", 1.0, 0.0], ["10", "2", 1.0, 0.0],
               ["2", "1", 1.0, 0.0], ["2", "2", 1.0, 0.0]])
    panel = load_csv(str(f))
    # 2 before 10 numerically, not lexicographically
    assert panel.unit_ids == ("2", "10")


def test_load_csv_lexicographic_fallback(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["a10", "1", 1.0, 0.0], ["a10", "2", 1.0, 0.0],
               ["a2", "1", 1.0, 0.0], ["a2", "2", 1.0, 0.0]])
    assert load_csv(str(f)).unit_ids == ("a10", "a2")


def test_load_csv_explicit_x_cols(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1", "junk"],
               ["1", "1", 1.0, 0.1, 9], ["1", "2", 1.0, 0.1, 9],
               ["2", "1", 1.0, 0.1, 9], ["2", "2", 1.0, 0.1, 9]])
    panel = load_csv(str(f), x_cols=["x1"])
    assert panel.n_regressors == 1
    # default picks up every non-core column
    assert load_csv(str(f)).n_regressors == 2


def test_load_csv_parse_error_lines(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["1", "1", 1.0, 0.1],
               ["1", "2", "oops", 0.1],
               ["2", "1", 1.0, 0.1]])
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    g = tmp_path / "q.csv"
    _write(g, [["id", "period", "y", "x1"]])
    with pytest.raises(ParseError) as err:
        load_csv(str(g))
    assert err.value.line == 1

    # a repeated header name would leave the column read ambiguous
    h = tmp_path / "r.csv"
    _write(h, [["id", "time", "y", "y", "x1"], ["1", "1", 1.0, 2.0, 0.1]])
    with pytest.raises(ParseError) as err:
        load_csv(str(h))
    assert err.value.line == 1
    assert "'y' twice" in str(err.value)


def test_load_csv_numbers_a_record_by_the_line_it_starts_on(tmp_path):
    # the record of unit b spans lines 3-4, so the bad value is on line 5
    f = tmp_path / "p.csv"
    f.write_text('id,time,y,x1\na,1,1.0,0.1\nb,1,"2.0\n",0.2\n'
                 'c,1,oops,3\n')
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 5


def test_load_csv_field_count_mismatch(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("id,time,y,x1\n1,1,1.0,0.1\n1,2,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 3


def test_load_csv_duplicate_cell(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["1", "1", 1.0, 0.1], ["1", "1", 2.0, 0.2]])
    with pytest.raises(DuplicateCell):
        load_csv(str(f))


def test_load_csv_unbalanced(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["1", "1", 1.0, 0.1], ["1", "2", 1.0, 0.1],
               ["2", "1", 1.0, 0.1]])
    with pytest.raises(UnbalancedPanel) as err:
        load_csv(str(f))
    assert "'2'" in str(err.value)


def test_load_csv_non_finite(tmp_path):
    f = tmp_path / "p.csv"
    _write(f, [["id", "time", "y", "x1"],
               ["1", "1", "inf", 0.1], ["1", "2", 1.0, 0.1],
               ["2", "1", 1.0, 0.1], ["2", "2", 1.0, 0.1]])
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 2


def test_load_csv_label_order_does_not_follow_the_hash_seed(tmp_path):
    # 'nan' parses as a float but compares false with everything, so a
    # numeric sort of these labels would follow set iteration order.
    f = tmp_path / "p.csv"
    periods = ["2002", "nan", "1999", "2001", "2000"]
    _write(f, [["id", "time", "y", "x1"]]
           + [[u, p, 1.0, float(j)] for u in "ab"
              for j, p in enumerate(periods)])
    script = ("import sys; from panelcsd import load_csv; "
              "print(','.join(load_csv(sys.argv[1]).time_ids))")
    orders = set()
    for seed in ("3", "5"):
        env = {**child_env(), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script, str(f)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        orders.add(proc.stdout.strip())
    assert orders == {"1999,2000,2001,2002,nan"}


def test_load_csv_reads_utf8_with_byte_order_mark(tmp_path):
    f = tmp_path / "p.csv"
    f.write_bytes("\ufeffid,time,y,x1\ncafé,1,1.0,0.1\ncafé,2,2.0,0.2\n"
                  "bar,1,3.0,0.3\nbar,2,4.0,0.4\n".encode("utf-8"))
    panel = load_csv(str(f))
    assert panel.unit_ids == ("bar", "café")
    assert_allclose(panel.y, [[3.0, 4.0], [1.0, 2.0]])


def test_load_csv_undecodable_byte_is_a_parse_error_on_its_line(tmp_path):
    f = tmp_path / "p.csv"
    f.write_bytes("id,time,y,x1\nbar,1,1.0,0.1\ncafé,1,2.0,0.2\n"
                  "bar,2,3.0,0.3\ncafé,2,4.0,0.4\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: text is not UTF-8")


def test_load_csv_field_over_the_csv_limit_is_a_parse_error(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("id,time,y,x1\na,1,1.0,0.1\na,2," + "1" * 200_000
                 + ",0.2\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: malformed CSV record (field "
                                     "larger than field limit")


@pytest.mark.parametrize("label, value", [("b" * 200_000, "1.0"),
                                          ("b", "1.5" + " " * 200_000)])
def test_a_long_field_numpy_reads_is_still_a_parse_error(tmp_path, label,
                                                         value):
    # a balanced panel, but for one label or one padded value over the limit
    f = tmp_path / "p.csv"
    f.write_text(f"id,time,y,x1\na,1,1.0,0.1\n{label},1,{value},0.1\n"
                 f"a,2,1.0,0.2\n{label},2,1.0,0.2\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(f))
    assert str(err.value).startswith("line 3: malformed CSV record (field "
                                     "larger than field limit")


# --- the columnar parse against the row-by-row parse ----------------------

LABEL_CHARS = "abcxyz0123456789._-"
# labels that need quoting or are not ASCII
RICH_LABEL_CHARS = LABEL_CHARS + ',"\u00e9\u6771 '
SPECIAL_LABELS = ("nan", "inf", "-0", "1e3", "1_0", "01")
CORRUPTIONS = ("duplicate", "hole", "bad_number", "non_finite", "short_row",
               "empty_label", "empty_unit", "extra_field", "separator_space")
# What float() reads and numpy's parser does not: underscores between
# digits and non-ASCII digits.
FLOAT_ONLY_SPELLINGS = ("1_0", "-2_5.0", "\u0661", "\u0662.\u0665",
                        "\uff13")


def _outcome(load, path):
    """The panel's bytes and labels, or the error's class and message."""
    try:
        p = load(path)
    except PanelError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (p.y.tobytes(), p.x.tobytes(), p.x.shape, p.x.flags.c_contiguous,
            p.unit_ids, p.time_ids, p.x_names)


def _rows_load(path):
    return panel_module._load_csv_rows(path, "id", "time", "y", None)


@st.composite
def _labels(draw, size, chars=LABEL_CHARS):
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(-20, 3000), min_size=size,
                             max_size=size, unique=True))
        return [str(v) for v in ints]
    text = st.one_of(st.text(chars, min_size=1, max_size=4)
                     .filter(str.strip),
                     st.sampled_from(SPECIAL_LABELS))
    # unique once stripped, as the loaders compare them
    return draw(st.lists(text, min_size=size, max_size=size,
                         unique_by=str.strip))


def _quoted(field):
    return '"' + field.replace('"', '""') + '"'


@st.composite
def _panel_lines(draw, rich=False):
    """A valid long-format file as a header and rows of fields, each row
    once per cell in any order, with any column order and padding. A rich
    file also has labels with commas, quotes and non-ASCII letters, and
    fields in quotes; one in six has a unit label with a newline, and one
    in six a value spelled so that only float() reads it."""
    n, t, k = (draw(st.integers(2, 5)), draw(st.integers(2, 5)),
               draw(st.integers(1, 3)))
    chars = RICH_LABEL_CHARS if rich else LABEL_CHARS
    units, periods = draw(_labels(n, chars)), draw(_labels(t, chars))
    header = draw(st.permutations(["id", "time", "y"]
                                  + [f"x{j + 1}" for j in range(k)]))
    pad = st.sampled_from(["", " ", "  "])
    value = st.floats(allow_nan=False, allow_infinity=False)
    oddity = draw(st.sampled_from(["", "", "", "", "newline", "float_only"])
                  if rich else st.just(""))
    if oddity == "newline":
        units[0] += draw(st.sampled_from(["\n", "\r\n", "\r"])) + "z"

    def field(text):
        text = draw(pad) + text + draw(pad)
        if rich and (any(c in text for c in ',"\n\r')
                     or draw(st.booleans())):
            return _quoted(text)
        return text

    rows = []
    for u in units:
        for p in periods:
            cells = {"id": field(u), "time": field(p)}
            for col in header:
                if col not in cells:
                    cells[col] = field(repr(draw(value)))
            rows.append([cells[col] for col in header])
    if oddity == "float_only":
        value_col = header.index(draw(st.sampled_from(
            [col for col in header if col not in ("id", "time")])))
        row = draw(st.sampled_from(rows))
        row[value_col] = field(draw(st.sampled_from(FLOAT_ONLY_SPELLINGS)))
    return header, draw(st.permutations(rows))


def _write_lines(path, header, rows, blanks=(), end="\n"):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for at, blank in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), blank)
    path.write_bytes((end.join(lines) + end).encode("utf-8"))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_panel_lines(), st.integers(1, 8),
       st.lists(st.tuples(st.integers(1, 40), st.sampled_from(["", "  "])),
                max_size=3))
def test_columnar_load_equals_row_parse(tmp_path_factory, lines, chunk,
                                        blanks):
    header, rows = lines
    f = tmp_path_factory.mktemp("prop") / "p.csv"
    _write_lines(f, header, rows, blanks)
    reference = _outcome(_rows_load, str(f))
    assert not isinstance(reference[0], type)  # a valid file
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk), \
            mock.patch.object(panel_module, "_load_csv_rows",
                              wraps=panel_module._load_csv_rows) as replay:
        assert _outcome(load_csv, str(f)) == reference
    # both readers skip a blank line, so no block of a valid file of plain
    # fields must fall back
    assert not replay.called


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_panel_lines(), st.integers(1, 8), st.sampled_from(CORRUPTIONS),
       st.data())
def test_columnar_load_replays_errors_of_row_parse(tmp_path_factory, lines,
                                                   chunk, corruption, data):
    header, rows = lines
    rows = [list(r) for r in rows]
    at = data.draw(st.integers(0, len(rows) - 1))
    value_col = data.draw(st.sampled_from(range(len(header)))
                          .filter(lambda j: header[j] not in ("id", "time")))
    if corruption == "duplicate":  # lands in a later chunk than the original
        rows.append(rows[at][:])
    elif corruption == "hole":
        del rows[at]
    elif corruption == "bad_number":
        rows[at][value_col] = data.draw(st.sampled_from(["oops", "1.2.3", ""]))
    elif corruption == "non_finite":
        rows[at][value_col] = data.draw(st.sampled_from(["inf", "-inf", "nan"]))
    elif corruption == "short_row":
        rows[at].pop()
    elif corruption == "extra_field":
        rows[at].append(rows[at][value_col])
    elif corruption == "separator_space":  # white space to numpy only
        rows[at][value_col] += data.draw(st.sampled_from(
            ["\x1c", "\x1d", "\x1e", "\x1f"]))
    elif corruption == "empty_label":
        label_col = header.index(data.draw(st.sampled_from(["id", "time"])))
        rows[at][label_col] = data.draw(st.sampled_from(["", "  "]))
    else:  # a whole unit unlabelled: the grid itself stays balanced
        unit_col = header.index("id")
        unit = rows[at][unit_col].strip()
        for row in rows:
            if row[unit_col].strip() == unit:
                row[unit_col] = ""
    # values with a quoted newline, in rows before the corrupted one: the
    # error's line is the one its record starts on, counted from the text
    for i in data.draw(st.sets(st.integers(0, at - 1), max_size=3)
                       if at else st.just(set())):
        rows[i][value_col] = '"' + rows[i][value_col] + '\n"'
    starts, line = [], 1
    for r in rows:
        starts.append(line + 1)
        line += 1 + ",".join(r).count("\n")
    f = tmp_path_factory.mktemp("prop") / "p.csv"
    _write_lines(f, header, rows)
    reference = _outcome(_rows_load, str(f))
    assert isinstance(reference[0], type)  # every corruption is an error
    if corruption in ("duplicate", "hole"):
        assert reference[2] is None
    elif corruption == "empty_unit":
        assert reference[2] == starts[next(
            i for i, r in enumerate(rows) if not r[unit_col])]
    else:
        assert reference[2] == starts[at]
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        assert _outcome(load_csv, str(f)) == reference


def _needs_replay(header, rows):
    """Whether the columnar parse must hand a valid file to the row parser:
    a newline inside quotes, or a value numpy cannot read."""
    values = [j for j, col in enumerate(header) if col not in ("id", "time")]
    return any(
        "\n" in f or "\r" in f for r in rows for f in r) or any(
        r[j].strip(' "') in FLOAT_ONLY_SPELLINGS for r in rows for j in values)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_panel_lines(rich=True), st.integers(1, 8),
       st.one_of(st.just([]), st.just([]), st.lists(
           st.tuples(st.integers(1, 40), st.sampled_from(["", "  "])),
           min_size=1, max_size=1)),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_columnar_load_equals_row_parse_on_quoted_text(
        tmp_path_factory, lines, chunk, blanks, end):
    header, rows = lines
    f = tmp_path_factory.mktemp("prop") / "p.csv"
    _write_lines(f, header, rows, blanks, end)
    reference = _outcome(_rows_load, str(f))
    assert not isinstance(reference[0], type)  # a valid file
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk), \
            mock.patch.object(panel_module, "_load_csv_rows",
                              wraps=panel_module._load_csv_rows) as replay:
        assert _outcome(load_csv, str(f)) == reference
    assert replay.called == _needs_replay(header, rows)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_panel_lines(rich=True), st.integers(1, 8),
       st.sampled_from(["extra_field", "short_row", "separator_space"]),
       st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_columnar_load_replays_errors_on_quoted_text(
        tmp_path_factory, lines, chunk, corruption, end, data):
    header, rows = lines
    rows = [list(r) for r in rows]
    at = data.draw(st.integers(0, len(rows) - 1))
    if corruption == "extra_field":
        rows[at].append(rows[at][0])
    elif corruption == "short_row":
        rows[at].pop()
    else:
        value_col = header.index("y")
        rows[at][value_col] = "\x1f" + rows[at][value_col].strip('"')
    f = tmp_path_factory.mktemp("prop") / "p.csv"
    _write_lines(f, header, rows, (), end)
    reference = _outcome(_rows_load, str(f))
    assert isinstance(reference[0], type)  # every corruption is an error
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        assert _outcome(load_csv, str(f)) == reference


def test_quoted_newline_across_a_chunk_boundary_is_replayed(tmp_path):
    # Read line by line, the second line of each quoted note is a row of
    # its own, and the file a balanced 3 x 2 panel; the csv module reads a
    # 2 x 2 panel whose notes hold those lines. In blocks of one line,
    # every quoted newline crosses a block boundary.
    f = tmp_path / "p.csv"
    f.write_text('id,time,y,x1,note\n'
                 'a,1,1.0,0.1,"open\n'
                 'c,1,3.0,0.3,shut"\n'
                 'a,2,2.0,0.2,-\n'
                 'b,1,4.0,0.4,"open\n'
                 'c,2,6.0,0.6,shut"\n'
                 'b,2,5.0,0.5,-\n')
    reference = _outcome(lambda path: panel_module._load_csv_rows(
        path, "id", "time", "y", ["x1"]), str(f))
    assert reference[4:6] == (("a", "b"), ("1", "2"))
    with mock.patch.object(panel_module, "_CHUNK_ROWS", 1):
        assert _outcome(lambda path: load_csv(path, x_cols=["x1"]),
                        str(f)) == reference


def test_a_block_of_blank_lines_is_skipped_without_a_warning(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("id,time,y,x1\n\n\na,1,1.0,0.1\nb,1,2.0,0.2\na,2,3.0,0.3\n"
                 "b,2,4.0,0.4\n")
    reference = _outcome(_rows_load, str(f))
    with mock.patch.object(panel_module, "_CHUNK_ROWS", 2), \
            mock.patch.object(panel_module, "_load_csv_rows",
                              wraps=panel_module._load_csv_rows) as replay, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_csv, str(f)) == reference
    assert not replay.called


HARD_DECIMALS = (
    "-0", "-0.0", "+0", "0e0", "-0e-400", "1e-400", "-1e-400",
    "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623158e308",
    "9007199254740993", "9007199254740992.5",
    "0.1000000000000000055511151231257827",
    "123456789012345678901234567890123456789.5",
    "0.30000000000000001665334536937734810635447502136230468750",
    " 1.5", "1.5 ", "\t-2.25", " 7 ", "1.", ".5", "+.5e-3", "1E+2",
)


def _round_half_cases(rng, count):
    """Decimal strings exactly halfway between adjacent doubles, and a hair
    either side of halfway, at 17 to 40 significant digits or more."""
    exact = Context(prec=1000)  # every double's decimal expansion fits
    cases = []
    for d in rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300,
                                                              count):
        lo, hi = Decimal(float(d)), Decimal(float(np.nextafter(d, np.inf)))
        mid = exact.divide(exact.add(lo, hi), 2)
        for s in (mid, exact.next_minus(mid), exact.next_plus(mid)):
            cases.append(str(s))
        for digits in (17, 25, 40):
            cases.append(f"{lo:.{digits - 1}e}")
    return cases


def test_load_csv_reads_hard_decimals_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    subnormal = [repr(v) for v in rng.uniform(0, 2.3e-308, 40).tolist()]
    strings = [*HARD_DECIMALS, *subnormal, *_round_half_cases(rng, 200)]
    t = 2
    n = -(-len(strings) // (2 * t))
    strings += ["0"] * (2 * n * t - len(strings))
    f = tmp_path / "p.csv"
    f.write_text("id,time,y,x1\n" + "".join(
        f"u{i},{s},{strings[2 * (i * t + s)]},{strings[2 * (i * t + s) + 1]}\n"
        for i in range(n) for s in range(t)))
    with mock.patch.object(panel_module, "_load_csv_rows",
                           wraps=panel_module._load_csv_rows) as replay:
        panel = load_csv(str(f))
    assert not replay.called
    units = sorted(f"u{i}" for i in range(n))
    got = np.stack([panel.y, panel.x[:, :, 0]], axis=-1)
    want = np.array([float(s) for s in strings]).reshape(n, t, 2)
    assert got.tobytes() == want[[int(u[1:]) for u in units]].tobytes()


@pytest.mark.parametrize("end, blanks", [
    ("\n", ()),
    # blank lines in the middle and at the end, which both readers skip
    ("\r\n", ((1, ""), (4000, "  "), (8192, ""), (8193, "\t"), (9001, ""))),
], ids=["lf", "crlf_blank_lines"])
def test_columnar_load_across_chunks_at_the_real_block_size(tmp_path, end,
                                                            blanks):
    n, t = 90, 100  # 9,000 rows: more than one block
    assert n * t > panel_module._CHUNK_ROWS
    rng = np.random.default_rng(5)
    y, x = rng.standard_normal((n, t)), rng.standard_normal((n, t, 2))
    yl, xl = y.tolist(), x.tolist()
    rows = [[f"u{i}", str(1900 + s), *map(repr, [yl[i][s], *xl[i][s]])]
            for i in range(n) for s in range(t)]
    order = rng.permutation(len(rows))
    f = tmp_path / "p.csv"
    _write_lines(f, ["id", "time", "y", "x1", "x2"], [rows[j] for j in order],
                 blanks, end)
    with mock.patch.object(panel_module, "_load_csv_rows",
                           wraps=panel_module._load_csv_rows) as replay:
        panel = load_csv(str(f))
    assert not replay.called
    assert _outcome(lambda _: panel, None) == _outcome(_rows_load, str(f))
    units = sorted(f"u{i}" for i in range(n))
    rank = [int(u[1:]) for u in units]
    assert panel.y.tobytes() == y[rank].tobytes()
    assert panel.x.tobytes() == x[rank].tobytes()

    # a duplicate of a first-block row, in the last block
    _write_lines(f, ["id", "time", "y", "x1", "x2"],
                 [rows[j] for j in order] + [rows[order[0]]], blanks, end)
    with pytest.raises(DuplicateCell) as err:
        load_csv(str(f))
    u, p = rows[order[0]][:2]
    assert str(err.value) == f"duplicate cell (id={u!r}, time={p!r})"


def test_columnar_load_holds_about_two_panels_and_returns_bare_arrays(
        tmp_path):
    # the blocks' values, then the panel's own y and x: the panel's bytes
    # about 2.4 times at the peak, and the panel pins no wider array
    n, t, k = 200, 200, 3
    rng = np.random.default_rng(8)
    values = rng.standard_normal((n * t, k + 1)).tolist()
    rows = [[f"u{i}", str(s), *map(repr, values[i * t + s])]
            for i in range(n) for s in range(t)]
    f = tmp_path / "p.csv"
    _write_lines(f, ["id", "time", "y", "x1", "x2", "x3"],
                 [rows[j] for j in rng.permutation(len(rows))])
    loaded = []
    with mock.patch.object(panel_module, "_CHUNK_ROWS", 1024), \
            mock.patch.object(panel_module, "_load_csv_rows",
                              wraps=panel_module._load_csv_rows) as replay:
        peak = traced_peak(lambda: loaded.append(load_csv(str(f))))
    assert not replay.called
    panel_bytes = 8 * n * t * (k + 1)
    assert peak < 3 * panel_bytes
    (panel,) = loaded
    for a in (panel.y, panel.x):
        assert a.base is None or a.base.nbytes <= a.nbytes


def test_panels_compare_by_value_and_return_a_bool():
    y, x = np.arange(6.0).reshape(2, 3), np.ones((2, 3, 1))
    panel = PanelData(y=y, x=x)
    assert (panel == PanelData(y=y.copy(), x=x.copy())) is True
    assert (panel != PanelData(y=y.copy(), x=x)) is False
    assert (panel == PanelData(y=y + 1.0, x=x)) is False
    assert (panel == PanelData(y=y, x=x, x_names=("z",))) is False
    # unequal shapes compare unequal, they do not raise
    wider = PanelData(y=np.zeros((2, 4)), x=np.ones((2, 4, 1)))
    assert (panel == wider) is False
    assert (panel == PanelData(y=y, x=np.ones((2, 3, 2)))) is False
    assert panel != "panel"
