import numpy as np
import pytest
from numpy.testing import assert_allclose

from panelcsd import Ordering, PanelData, load_csv, stack
from panelcsd.errors import DuplicateCell, ParseError, UnbalancedPanel


def small_panel():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.arange(8, dtype=float).reshape(2, 2, 2)
    return PanelData(y=y, x=x)


def test_stack_by_unit_order():
    view = stack(small_panel(), Ordering.BY_UNIT)
    assert_allclose(view.y, [1.0, 2.0, 3.0, 4.0])
    # x rows follow the same permutation as y
    assert_allclose(view.x[0], [0.0, 1.0])
    assert_allclose(view.x[3], [6.0, 7.0])


def test_stack_by_time_order():
    view = stack(small_panel(), Ordering.BY_TIME)
    assert_allclose(view.y, [1.0, 3.0, 2.0, 4.0])
    assert_allclose(view.x[1], [4.0, 5.0])


def test_index_maps_are_inverse():
    panel = small_panel()
    for ordering in Ordering:
        view = stack(panel, ordering)
        for i in range(panel.n_units):
            for s in range(panel.n_periods):
                row = view.index_of(i, s)
                assert view.cell_of(row) == (i, s)
                assert view.y[row] == panel.y[i, s]
                assert_allclose(view.x[row], panel.x[i, s])
        with pytest.raises(IndexError):
            view.index_of(panel.n_units, 0)
        with pytest.raises(IndexError):
            view.cell_of(panel.n_units * panel.n_periods)


def test_orderings_are_permutations_of_each_other():
    rng = np.random.default_rng(3)
    panel = PanelData(y=rng.standard_normal((4, 3)),
                      x=rng.standard_normal((4, 3, 2)))
    by_unit = stack(panel, Ordering.BY_UNIT)
    by_time = stack(panel, Ordering.BY_TIME)
    assert_allclose(np.sort(by_unit.y), np.sort(by_time.y))
    for i in range(4):
        for s in range(3):
            assert by_unit.y[by_unit.index_of(i, s)] == \
                by_time.y[by_time.index_of(i, s)]


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
