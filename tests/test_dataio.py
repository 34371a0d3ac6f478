"""CSV ingestion and deterministic emission."""

import csv
import io
import json

import pytest

from boxprobe import CATEGORICAL, CONTINUOUS, load_csv
from boxprobe.cli import main
from boxprobe.dataio import emit_json, emit_points_csv, emit_score_csv, format_value
from boxprobe.errors import DataFormatError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_basic(tmp_path):
    data = load_csv(write(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n"), target="y")
    assert data.n_rows == 2 and data.n_features == 2
    assert data.matrix().tolist() == [[1.0, 2.0], [4.0, 5.0]]
    assert list(data.target) == [3.0, 6.0]


def test_load_infers_categorical(tmp_path):
    data = load_csv(write(tmp_path, "c\na\nb\na\n"))
    assert data.meta[0].kind == CATEGORICAL
    assert data.meta[0].levels == ("a", "b")


def test_load_ragged_row_names_line(tmp_path):
    with pytest.raises(DataFormatError, match="line 3"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))


def test_load_missing_cell_names_line_and_column(tmp_path):
    with pytest.raises(DataFormatError, match="line 2.*'b'"):
        load_csv(write(tmp_path, "a,b\n1,\n"))


def test_load_reports_the_first_fault_in_reading_order(tmp_path):
    text = "a,b,c\n1,2,3\n4, ,\t\n7,8,9\n1,2\n"
    with pytest.raises(DataFormatError, match=r"^missing value at line 3, column 'b'$"):
        load_csv(write(tmp_path, text))
    ragged_first = "a,b,c\n1,2,3\n4,5\n7,,9\n"
    with pytest.raises(DataFormatError, match="ragged row: line 3 has 2 cells, expected 3"):
        load_csv(write(tmp_path, ragged_first, name="ragged.csv"))


def test_load_empty_and_header_only(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(write(tmp_path, ""))
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(write(tmp_path, "a,b\n"))


def test_load_duplicate_headers(tmp_path):
    with pytest.raises(DataFormatError, match="duplicate"):
        load_csv(write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(DataFormatError, match=r"^header row contains an empty column name \(line 1\)$"):
        load_csv(write(tmp_path, "a,,y\n1,2,3\n"))


def test_load_unknown_target(tmp_path):
    with pytest.raises(DataFormatError, match="unknown target"):
        load_csv(write(tmp_path, "a\n1\n"), target="y")
    with pytest.raises(DataFormatError, match=r"^no feature columns remain after splitting the target$"):
        load_csv(write(tmp_path, "y\n1\n"), target="y")


def test_load_unreadable_path(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_csv(str(tmp_path / "nope.csv"))


def test_load_rejects_non_finite_numerics(tmp_path):
    data = load_csv(write(tmp_path, "a\nnan\n1\n"))
    # unparseable-as-finite values fall back to categorical on inference
    assert data.meta[0].kind == CATEGORICAL
    with pytest.raises(DataFormatError, match="declared continuous"):
        load_csv(
            write(tmp_path, "a\nnan\n1\n", name="forced.csv"),
            kinds={"a": CONTINUOUS},
        )


def test_kind_overrides(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,4\n")
    data = load_csv(path, kinds={"a": CATEGORICAL})
    assert data.meta[0].kind == CATEGORICAL
    assert data.meta[0].levels == ("1", "3")
    assert data.meta[1].kind == CONTINUOUS
    with pytest.raises(DataFormatError, match="unknown column"):
        load_csv(path, kinds={"zz": CONTINUOUS})
    with pytest.raises(DataFormatError, match=r"^unknown kind 'ordinal' for column 'a'$"):
        load_csv(path, kinds={"a": "ordinal"})
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(write(tmp_path, "a\nx\n", name="c.csv"), kinds={"a": CONTINUOUS})
    with pytest.raises(DataFormatError, match=r"^column 'a' is declared continuous but line 3 holds 'x'$"):
        load_csv(write(tmp_path, "a\n1\nx\n2_0\n", name="c.csv"), kinds={"a": CONTINUOUS})


def test_override_on_target_rejected(tmp_path):
    path = write(tmp_path, "a,y\n1,2\n")
    with pytest.raises(DataFormatError, match="target"):
        load_csv(path, target="y", kinds={"y": CONTINUOUS})


def test_emit_json_round_trips_byte_identical():
    doc = {
        "schema_version": 1,
        "method": "pd",
        "feature": "x1",
        "params": {"grid": "observed_values"},
        "seed": None,
        "stage_trace": [],
        "points": [{"x": 0.1, "y": 1.0 / 3.0}],
    }
    text = emit_json(doc)
    assert emit_json(json.loads(text)) == text
    assert json.loads(text)["points"][0]["y"] == 1.0 / 3.0


def test_format_value_shortest_round_trip():
    assert format_value(3.0) == "3.0"
    assert format_value(1.0 / 3.0) == "0.3333333333333333"
    assert float(format_value(0.1)) == 0.1
    assert format_value("ab") == "ab"


def test_emit_points_csv():
    text = emit_points_csv([0.0, 1.5], [2.0, -3.25], ["x1"])
    assert text == "x1,y\n0.0,2.0\n1.5,-3.25\n"
    multi = emit_points_csv([(0.0, "a")], [1.0], ["x1", "c"])
    assert multi == "x1,c,y\n0.0,a,1.0\n"


def test_emit_score_csv():
    assert emit_score_csv("pfi", "x1", 2.0) == "method,feature,score\npfi,x1,2.0\n"


@pytest.mark.parametrize(
    "cell", ["2021_02", "\u0661\u0662", "\uff11\uff12"], ids=["underscore", "arabic-indic", "fullwidth"]
)
def test_numbers_follow_the_ascii_dialect(tmp_path, cell):
    """float() also reads PEP 515 underscores and non-ASCII digits; the dialect does not."""
    data = load_csv(write(tmp_path, f"a,b\n1,x\n{cell},y\n"))
    assert data.meta[0].kind == CATEGORICAL and data.column("a").tolist() == ["1", cell]
    with pytest.raises(DataFormatError, match=f"column 'a' is declared continuous but line 3 holds '{cell}'"):
        load_csv(write(tmp_path, f"a\n1\n{cell}\n"), kinds={"a": CONTINUOUS})


def _cells(text):
    return list(csv.reader(io.StringIO(text)))


def test_csv_output_quotes_the_cells_that_need_it(tmp_path):
    points = emit_points_csv([(0.5, "a,b"), (1.5, 'say "hi"')], [1.0, 2.0], ["x1", 'c"q'])
    assert _cells(points) == [["x1", 'c"q', "y"], ["0.5", "a,b", "1.0"], ["1.5", 'say "hi"', "2.0"]]
    assert _cells(emit_score_csv("pfi", 'c,"q', 2.0)) == [["method", "feature", "score"], ["pfi", 'c,"q', "2.0"]]
    data, model, out = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "pd.csv"
    data.write_text('x1,"c""q",y\n0,"a,b",1\n1,d,2\n2,"a,b",3.5\n3,d,4\n', encoding="utf-8")
    assert main(["fit", "--data", str(data), "--target", "y", "--out", str(model)]) == 0
    args = ["--feature", 'c"q', "--data", str(data), "--model", str(model), "--target", "y", "--format", "csv"]
    assert main(["pd", *args, "--out", str(out)]) == 0
    rows = _cells(out.read_text(encoding="utf-8"))
    assert rows[0] == ['c"q', "y"] and [row[0] for row in rows[1:]] == ["a,b", "d"]
    assert {len(row) for row in rows} == {2}


@pytest.fixture
def asked(monkeypatch):
    """Every value the dataset asks ``_is_number`` about."""
    from boxprobe import data as data_module

    asked = []
    is_number = data_module._is_number
    monkeypatch.setattr(data_module, "_is_number", lambda v: asked.append(v) or is_number(v))
    return asked


def test_continuous_columns_skip_the_per_value_check(tmp_path, asked):
    """A parsed column reaches the dataset as a float64 array, which needs no
    per-value kind check: only the text column's first cell is looked at.  A
    non-finite cell keeps the CSV's own message."""
    data = load_csv(write(tmp_path, "a,b,c\n1,2,x\n3,4.5,y\n"))
    assert asked == ["x"]
    assert data.column("b").tolist() == [2.0, 4.5]
    with pytest.raises(DataFormatError, match="column 'a' is declared continuous but line 3 holds 'inf'"):
        load_csv(write(tmp_path, "a\n1\ninf\n"), kinds={"a": CONTINUOUS})


def test_a_numeric_target_skips_the_per_value_check(tmp_path, asked):
    data = load_csv(write(tmp_path, "a,y\n1,2\n3,4.5\n"), target="y")
    assert asked == []
    assert data.target.tolist() == [2.0, 4.5]
