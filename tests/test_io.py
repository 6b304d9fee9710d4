import csv
import json
import tracemalloc
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracdim import (EstimateReport, FiniteTree, PointCloud, RegularFamily, ScaleWindow,
                     cantor_cloud, dyadic_interval_cloud, lower_dim_estimate,
                     search_regular)
from fracdim import io
from fracdim.config import Records
from oracles import canonical_json_oracle


class TestCanonicalJson:
    def test_float_formatting(self):
        assert io.dumps_canonical(0.5) == "0.5"
        assert io.dumps_canonical(2 / 3) == "0.66666666666666663"
        assert io.dumps_canonical(1.0) == "1.0"
        assert io.dumps_canonical(3) == "3"
        assert io.dumps_canonical(True) == "true"
        assert io.dumps_canonical(None) == "null"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            io.dumps_canonical(float("inf"))

    def test_valid_json_and_stable(self):
        obj = {"a": [1, 0.1, {"b": 2 / 3}], "c": "text"}
        text = io.dumps_canonical(obj, indent=2)
        assert json.loads(text) == obj
        assert text == io.dumps_canonical(obj, indent=2)

    def test_numpy_scalars(self):
        assert io.dumps_canonical(np.int64(4)) == "4"
        assert io.dumps_canonical(np.float64(0.25)) == "0.25"
        assert io.dumps_canonical(np.float32(0.1)) == "0.10000000149011612"
        with pytest.raises(TypeError, match="cannot serialize bool"):
            io.dumps_canonical(np.bool_(True))

    def test_negative_zero(self):
        assert io.dumps_canonical(-0.0) == "-0.0"
        assert io.dumps_canonical(
            [{"a": 0.0}, {"a": -0.0}, {"a": 0.0}, {"a": -0.0}]
        ) == '[{"a": 0.0}, {"a": -0.0}, {"a": 0.0}, {"a": -0.0}]'
        assert io.dumps_canonical([-0.0, 0.0, -0.0]) == "[-0.0, 0.0, -0.0]"

    def test_large_integer_valued_floats(self):
        assert io.dumps_canonical(1e16) == "10000000000000000"
        assert io.dumps_canonical(1e16 - 2) == "9999999999999998.0"
        assert io.dumps_canonical(2.0 ** 53 + 2) == "9007199254740994.0"

    @pytest.mark.parametrize("obj, flat, indented", [
        (np.array([[1.0, 2], [3, 4.5]]), "[[1.0, 2.0], [3.0, 4.5]]",
         "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    3.0,\n    4.5\n  ]\n]"),
        ((1, "a", None), '[1, "a", null]', '[\n  1,\n  "a",\n  null\n]'),
        ({1: 2}, '{"1": 2}', '{\n  "1": 2\n}'),
        ([], "[]", "[]"),
        ({}, "{}", "{}"),
        ([[], {}], "[[], {}]", "[\n  [],\n  {}\n]"),
    ])
    def test_containers(self, obj, flat, indented):
        assert io.dumps_canonical(obj) == flat
        assert io.dumps_canonical(obj, indent=2) == indented

    def test_string_escapes(self):
        text = 'tab\t"q"\\ \u00e9 \u65e5\U0001F600'
        expected = '"tab\\t\\"q\\"\\\\ \\u00e9 \\u65e5\\ud83d\\ude00"'
        assert io.dumps_canonical(text) == expected
        assert io.dumps_canonical([{text: text}, {text: 1}], indent=2) == (
            "[\n  {\n    " + expected + ": " + expected + "\n  },\n"
            "  {\n    " + expected + ": 1\n  }\n]")
        assert io.dumps_canonical([{"{a}": 1}, {"{a}": "}{"}]) == '[{"{a}": 1}, {"{a}": "}{"}]'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_in_records_rejected(self, bad):
        with pytest.raises(ValueError):
            io.dumps_canonical([{"a": 1.0, "b": 2}, {"a": bad, "b": 3}], indent=2)

    def test_records_that_differ(self):
        assert io.dumps_canonical([{"a": 1, "b": 2.5}, {"b": 1, "a": 2}], indent=2) == (
            '[\n  {\n    "a": 1,\n    "b": 2.5\n  },\n  {\n    "b": 1,\n    "a": 2\n  }\n]')
        assert io.dumps_canonical([{"a": 1, "b": 2.5}, {"a": 2}], indent=2) == (
            '[\n  {\n    "a": 1,\n    "b": 2.5\n  },\n  {\n    "a": 2\n  }\n]')

    def test_records_with_nested_values(self):
        rows = [{"a": [1, {"x": 0.5}], "b": {"c": []}}, {"a": {}, "b": (2,)}]
        assert io.dumps_canonical(rows, indent=2) == (
            '[\n  {\n    "a": [\n      1,\n      {\n        "x": 0.5\n      }\n    ],\n'
            '    "b": {\n      "c": []\n    }\n  },\n'
            '  {\n    "a": {},\n    "b": [\n      2\n    ]\n  }\n]')
        assert io.dumps_canonical(rows) == (
            '[{"a": [1, {"x": 0.5}], "b": {"c": []}}, {"a": {}, "b": [2]}]')


# Floats the formatter treats specially: signed zeros, subnormals, integer
# values on either side of 1e16 and of 2^53.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1, 2 / 3,
                1e16, -1e16, 1e16 - 2, 1e16 + 2, 2.0 ** 53, 2.0 ** 53 + 2, 1e300]
_KEYS = st.text(max_size=4) | st.sampled_from(["{", "}", "{}", 'a"b', "\u00e9"])


# Subclasses of the JSON types: the encoder must dispatch them as their base
# type and print their values, not their own str().
class _Int(int):
    __str__ = __repr__ = lambda self: "not the int's text"


class _Float(float):
    __str__ = __repr__ = lambda self: "not the float's text"


class _Str(str):
    pass


class _Dict(dict):
    pass


def _scalars(finite: bool):
    floats = (st.floats(allow_nan=not finite, allow_infinity=not finite)
              | st.sampled_from(_EDGE_FLOATS)
              | st.integers(-2 ** 60, 2 ** 60).map(float))
    float32 = st.floats(width=32, allow_nan=not finite, allow_infinity=not finite)
    float16 = st.floats(width=16, allow_nan=not finite, allow_infinity=not finite)
    scalars = (st.none() | st.booleans() | st.integers() | floats | st.text(max_size=6)
               | st.integers().map(_Int) | floats.map(_Float) | st.text(max_size=6).map(_Str)
               | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
               | st.integers(-2 ** 7, 2 ** 7 - 1).map(np.int8)
               | st.integers(0, 2 ** 64 - 1).map(np.uint64)
               | floats.map(np.float64) | float32.map(np.float32) | float16.map(np.float16))
    if not finite:
        scalars = scalars | st.booleans().map(np.bool_)
    arrays = (st.lists(floats, max_size=4)
              | st.lists(st.lists(floats, min_size=2, max_size=2), min_size=1, max_size=3)
              ).map(np.array)
    return scalars | arrays


@st.composite
def _record_list(draw, children):
    """Dicts that share one key order, sometimes with one row that breaks it."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))

    def row(keys):
        return dict(zip(keys, draw(st.lists(children, min_size=len(keys),
                                            max_size=len(keys)))))

    rows = [row(keys) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        odd = draw(st.sampled_from([keys[::-1], keys[:-1], keys + ["extra"]]))
        rows.insert(draw(st.integers(0, len(rows))), row(odd))
    return draw(st.sampled_from([rows, tuple(rows)]))


def _documents(finite: bool):
    return st.recursive(
        _scalars(finite),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(_KEYS | st.integers(-3, 3), children, max_size=4)
                          | st.dictionaries(_KEYS, children, max_size=4).map(_Dict)
                          | _record_list(children)),
        max_leaves=30)


def _outcome(encode, doc, indent):
    try:
        return encode(doc, indent=indent)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestCanonicalJsonOracle:
    """The encoder against the one it replaced, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(_documents(finite=True))
    def test_finite_documents(self, doc):
        for indent in (0, 2):
            assert io.dumps_canonical(doc, indent=indent) == canonical_json_oracle(doc, indent)

    @settings(max_examples=200, deadline=None)
    @given(_documents(finite=False))
    def test_error_paths(self, doc):
        for indent in (0, 2):
            assert (_outcome(io.dumps_canonical, doc, indent)
                    == _outcome(canonical_json_oracle, doc, indent))


_FLOATS = (st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-2 ** 60, 2 ** 60).map(float))


def _column(rows: int):
    """One Records column: a float, int or unsigned array, or a list of any
    finite scalars, Python and numpy, or a 2-D array of ``rows`` values."""
    def size(values):
        return st.lists(values, min_size=rows, max_size=rows)

    return st.one_of(
        size(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        size(st.floats(width=32, allow_nan=False, allow_infinity=False))
        .map(lambda v: np.array(v, dtype=np.float32)),
        size(st.integers(-2 ** 63, 2 ** 63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        size(st.integers(0, 2 ** 64 - 1)).map(lambda v: np.array(v, dtype=np.uint64)),
        size(_FLOATS | st.integers() | st.booleans()),
        size(_scalars(finite=True)),
        _table_column(rows))


@st.composite
def _table_column(draw, rows: int):
    """A 2-D column of ``rows`` values, read in row-major order: a C-ordered
    (n, P) array, or a broadcast view of one row or one column.  No rows is
    also (n, 0) or (0, P), as an estimate over an empty window or no centers."""
    shapes = ([(0, 0), (3, 0), (0, 4)] if not rows
              else [(n, rows // n) for n in range(1, rows + 1) if rows % n == 0])
    n, p = draw(st.sampled_from(shapes))
    base = draw(st.sampled_from([(n, p), (1, p), (n, 1)]).flatmap(lambda s: _arrays(*s)))
    return base if base.shape == (n, p) else np.broadcast_to(base, (n, p))


@st.composite
def _records(draw, rows=st.integers(0, 6)):
    """A Records and the list of dicts it stands for."""
    keys = tuple(draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True)))
    rows = draw(rows)
    columns = tuple(draw(_column(rows)) for _ in keys)
    values = [c.reshape(-1) if isinstance(c, np.ndarray) else c for c in columns]
    return Records(keys, columns), [dict(zip(keys, row)) for row in zip(*values)]


class TestRecords:
    """A Records written column by column against the oracle on its list of dicts."""

    @settings(max_examples=300, deadline=None)
    @given(_records())
    def test_matches_list_of_dicts(self, drawn):
        rec, rows = drawn
        nested = [(rec, rows), ({"a": rec, "b": [rec]}, {"a": rows, "b": [rows]}),
                  ([1, {"t": rec}, rec], [1, {"t": rows}, rows])]
        for indent in (0, 2):
            for doc, plain in nested:
                assert io.dumps_canonical(doc, indent=indent) == canonical_json_oracle(plain, indent)

    def test_signed_zeros_and_no_rows(self):
        rec = Records(("a", "b"), (np.array([0.0, -0.0, 0.0]), [-0.0, 0.0, -0.0]))
        assert io.dumps_canonical(rec) == (
            '[{"a": 0.0, "b": -0.0}, {"a": -0.0, "b": 0.0}, {"a": 0.0, "b": -0.0}]')
        empty = Records(("a", "b"), (np.array([]), []))
        assert io.dumps_canonical(empty) == io.dumps_canonical(empty, indent=2) == "[]"
        assert io.dumps_canonical({"t": empty}, indent=2) == '{\n  "t": []\n}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        for column in (np.array([1.0, bad]), [1.0, bad]):
            with pytest.raises(ValueError):
                io.dumps_canonical(Records(("a", "b"), (column, [2, 3])), indent=2)

    @pytest.mark.parametrize("keys, columns", [((), ()), (("a", "b"), ([1],)),
                                               (("a", "b"), ([1], [1, 2])),
                                               (("a", "b"), (np.zeros((2, 3)), [1, 2]))])
    def test_shape_checked(self, keys, columns):
        with pytest.raises(ValueError):
            Records(keys, columns)


# Records row counts around a block of 3 rows: none, under, at and over one
# block, and over two
_BOUNDARY_ROWS = [0, 1, 2, 3, 4, 7]


# 2-D array widths around a block of 3 values: none, under, at and over one
# block, and over two
_BOUNDARY_WIDTHS = [0, 1, 2, 3, 4, 7]


def _arrays(rows: int, width: int):
    """A rows x width float, int or unsigned array."""
    def size(values):
        return st.lists(values, min_size=rows * width, max_size=rows * width)

    return st.one_of(
        size(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        size(st.floats(width=32, allow_nan=False, allow_infinity=False))
        .map(lambda v: np.array(v, dtype=np.float32)),
        size(st.integers(-2 ** 63, 2 ** 63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        size(st.integers(0, 2 ** 64 - 1)).map(lambda v: np.array(v, dtype=np.uint64)),
        size(st.integers(-2 ** 15, 2 ** 15 - 1)).map(lambda v: np.array(v, dtype=np.int16)),
    ).map(lambda a: a.reshape(rows, width))


def _row_writer_csv(report: EstimateReport) -> bytes:
    """The report's CSV as the csv.writer row loop over its table writes it."""
    expected = StringIO()
    writer = csv.writer(expected)
    writer.writerow(["center", "R", "r", "count", "exponent"])
    writer.writerows([c, canonical_json_oracle(R), canonical_json_oracle(r), n,
                      canonical_json_oracle(e)] for c, R, r, n, e in report.table)
    return expected.getvalue().encode()


class _Recorder:
    """A file object that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestStreamedWriter:
    """Records rows joined and written in blocks, here of 3 rows."""

    @pytest.fixture(autouse=True)
    def _blocks_of_three(self, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK", 3)

    @pytest.mark.parametrize("rows", _BOUNDARY_ROWS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_oracle(self, rows, data):
        rec, plain = data.draw(_records(st.just(rows)))
        nested = [(rec, plain), ({"a": rec, "b": [rec]}, {"a": plain, "b": [plain]}),
                  ([1, {"t": rec}, rec], [1, {"t": plain}, plain]),
                  # a Records among a column's values is joined within its row
                  (Records(("k", "v"), ([0, 1], [rec, [rec]])),
                   [{"k": 0, "v": plain}, {"k": 1, "v": [plain]}])]
        for indent in (0, 2):
            for doc, expected in nested:
                text = canonical_json_oracle(expected, indent)
                sink = StringIO()
                io.dump_canonical(doc, sink, indent=indent)
                assert sink.getvalue() == text
                assert io.dumps_canonical(doc, indent=indent) == text

    @pytest.mark.parametrize("rows", _BOUNDARY_ROWS)
    def test_rows_are_written_in_blocks(self, rows):
        rec = Records(("a", "b"), (np.arange(rows), np.arange(rows) / 4))
        sink = _Recorder()
        io.dump_canonical({"head": 1, "table": rec, "tail": [rec]}, sink)
        blocks = [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0)
        # the text before, between and after the tables holds one "{", the document's own
        expected = [1, *blocks, 0, *blocks, 0] if rows else [1]
        assert [w.count("{") for w in sink.writes] == expected

    @pytest.mark.parametrize("rows", _BOUNDARY_ROWS)
    @pytest.mark.parametrize("width", _BOUNDARY_WIDTHS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_arrays_match_the_oracle(self, rows, width, data):
        array = data.draw(_arrays(rows, width))
        plain = array.tolist()
        nested = [(array, plain), ({"a": array, "b": [array, 1]}, {"a": plain, "b": [plain, 1]}),
                  ([{"t": array}, array], [{"t": plain}, plain]),
                  # an array among a Records column's values is joined within its row
                  (Records(("k", "v"), ([0, 1], [array, [array]])),
                   [{"k": 0, "v": plain}, {"k": 1, "v": [plain]}])]
        for indent in (0, 2):
            for doc, expected in nested:
                text = canonical_json_oracle(expected, indent)
                sink = StringIO()
                io.dump_canonical(doc, sink, indent=indent)
                assert sink.getvalue() == text
                assert io.dumps_canonical(doc, indent=indent) == text

    @pytest.mark.parametrize("rows", _BOUNDARY_ROWS)
    @pytest.mark.parametrize("width", _BOUNDARY_WIDTHS[1:])
    def test_array_rows_are_written_in_blocks(self, rows, width):
        sink = _Recorder()
        io.dump_canonical({"head": [0], "points": np.zeros((rows, width))}, sink)
        step = max(1, 3 // width)   # a block holds 3 values, or one wider row
        blocks = [step] * (rows // step) + [rows % step] * (rows % step > 0)
        # the text before and after the rows holds the head's "[" and the rows' own
        expected = [2, *blocks, 0] if rows else [2]
        assert [w.count("[") for w in sink.writes] == expected

    @pytest.mark.parametrize("rows", _BOUNDARY_ROWS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_csv_bytes_match_the_row_writer(self, tmp_path, rows, data):
        counts = np.array(data.draw(st.lists(st.integers(1, 2 ** 62), min_size=rows,
                                             max_size=rows)), dtype=np.int64).reshape(rows, 1)
        exponents = np.array(data.draw(st.lists(_FLOATS, min_size=rows, max_size=rows)),
                             dtype=np.float64).reshape(rows, 1)
        report = EstimateReport(0.0, None, [(0.5, 0.125)], counts, exponents,
                                ScaleWindow(0.125, 0.5), "exact")
        io.write_report_csv(report, tmp_path / "rep.csv")
        assert (tmp_path / "rep.csv").read_bytes() == _row_writer_csv(report)

    # no centers, an empty window, rows of 4 and 3 values around a block of 3, one value
    @pytest.mark.parametrize("centers, pairs", [(0, 4), (5, 0), (7, 4), (4, 3), (2, 1)])
    def test_csv_of_every_table_shape(self, tmp_path, centers, pairs):
        pairs = [(0.5, 0.5 / 2 ** (2 + p)) for p in range(pairs)]
        counts = np.arange(centers * len(pairs)).reshape(centers, len(pairs)) + 1
        exponents = counts / 3
        report = EstimateReport(0.0, None, pairs, counts, exponents,
                                ScaleWindow(0.125, 0.5), "exact")
        io.write_report_csv(report, tmp_path / "rep.csv")
        assert (tmp_path / "rep.csv").read_bytes() == _row_writer_csv(report)
        text = io.dumps_canonical(report.to_dict(), indent=2)
        plain = [dict(zip(("center", "R", "r", "count", "exponent"), row)) for row in report.table]
        assert json.loads(text)["table"] == plain


def test_streamed_table_peaks_below_a_quarter_of_its_text():
    # an estimate-style table of 100,000 rows: 10,000 centers at 10 scale pairs
    centers, pairs = 10_000, 10
    big = np.repeat(2.0 ** -np.arange(1, 6), 2)
    small = big / np.tile([4.0, 8.0], 5)
    counts = (np.arange(centers * pairs) % 37 + 1).reshape(centers, pairs)
    table = Records(("center", "R", "r", "count", "exponent"),
                    (np.repeat(np.arange(centers), pairs), np.tile(big, centers),
                     np.tile(small, centers), counts.ravel(),
                     (np.log(counts) / np.log(big / small)).ravel()))

    class Discard:
        length = 0

        def write(self, text):
            self.length += len(text)

    sink = Discard()
    tracemalloc.start()
    try:
        io.dump_canonical({"alpha_hat": 0.5, "table": table}, sink, indent=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 10_000_000
    assert peak < sink.length / 4


def test_report_table_columns_are_not_built():
    # the estimate-1d table: 4,098 centers at 10 scale pairs, 40,980 rows
    centers, pairs = 4098, [(2.0 ** -k, 2.0 ** -(k + j)) for k in (1, 2) for j in range(2, 7)]
    counts = np.arange(centers * len(pairs)).reshape(centers, len(pairs)) % 37 + 1
    report = EstimateReport(0.0, None, pairs, counts, np.log(counts),
                            ScaleWindow(2.0 ** -7, 0.5), "exact")
    tracemalloc.start()
    try:
        table = report.to_dict()["table"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one flat copy of an (n, P) column would take 328 KB
    assert peak < 100_000
    assert table.rows == centers * len(pairs)


def test_written_cloud_peaks_below_a_quarter_of_its_file(tmp_path):
    cloud = PointCloud(np.random.default_rng(32).random((3000, 64)))
    path = tmp_path / "cloud.json"
    tracemalloc.start()
    try:
        io.write_cloud(cloud, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4


class TestFailedEncodeWritesNothing:
    """Every step that can fail runs before the target is opened."""

    @pytest.mark.parametrize("doc", [
        {"a": float("nan")},
        {"ok": Records(("a",), (np.arange(5.0),)),
         "bad": Records(("a",), (np.array([1.0, np.inf]),))},
        [Records(("a",), ([1, object()],))],
        {"ok": np.arange(6.0).reshape(3, 2), "bad": np.array([[1.0, 2.0], [3.0, np.inf]])},
        [np.zeros((2, 2)), np.array([[np.nan]], dtype=np.float32)],
        Records(("a",), ([np.ones((2, 3)), np.array([[-np.inf, 0.0]])],)),
    ])
    def test_write_json_leaves_the_file(self, tmp_path, doc):
        path = tmp_path / "kept.json"
        path.write_text("kept")
        with pytest.raises((ValueError, TypeError)):
            io.write_json(doc, path)
        assert path.read_text() == "kept"
        sink = _Recorder()
        with pytest.raises((ValueError, TypeError)):
            io.dump_canonical(doc, sink, indent=2)
        assert sink.writes == []

    def test_write_report_csv_leaves_the_file(self, tmp_path):
        report = EstimateReport(0.0, None, [(0.5, 0.125)], np.array([[2], [3]]),
                                np.array([[0.5], [np.nan]]), ScaleWindow(0.125, 0.5), "exact")
        path = tmp_path / "kept.csv"
        path.write_text("kept")
        with pytest.raises(ValueError):
            io.write_report_csv(report, path)
        assert path.read_text() == "kept"


class TestCloudFiles:
    def test_json_roundtrip(self, tmp_path):
        cloud = cantor_cloud(4)
        path = tmp_path / "c.json"
        io.write_cloud(cloud, path)
        again = io.read_cloud(path)
        assert again.metric == "euclidean"
        assert np.array_equal(again.coords, cloud.coords)

    def test_matrix_roundtrip(self, tmp_path):
        cloud = PointCloud.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        path = tmp_path / "m.json"
        io.write_cloud(cloud, path)
        again = io.read_cloud(path)
        assert again.metric == "matrix"
        assert np.array_equal(again.matrix, cloud.matrix)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n\n")
        cloud = io.read_cloud_csv(path)
        assert cloud.n == 3 and cloud.dim == 2
        also = io.read_cloud(str(path), metric="l1")
        assert also.metric == "l1"

    def test_bad_cloud_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0]]}')
        with pytest.raises(ValueError):
            io.read_cloud(path)

    @pytest.mark.parametrize("cloud, text", [
        (PointCloud([[0.0, 1.5], [0.25, -2.0]], metric="l1"),
         '{\n  "metric": "l1",\n  "points": [\n    [\n      0.0,\n      1.5\n    ],\n'
         '    [\n      0.25,\n      -2.0\n    ]\n  ]\n}\n'),
        (PointCloud.from_matrix([[0, 0.5], [0.5, 0]]),
         '{\n  "metric": "matrix",\n  "matrix": [\n    [\n      0.0,\n      0.5\n    ],\n'
         '    [\n      0.5,\n      0.0\n    ]\n  ]\n}\n'),
    ])
    def test_written_text(self, tmp_path, cloud, text):
        path = tmp_path / "c.json"
        io.write_cloud(cloud, path)
        assert path.read_text() == text

    @pytest.mark.parametrize("cloud", [
        PointCloud([[-0.0, 1e16], [3.0, 1e16 - 2], [0.1, -2.5e-300]], metric="l1"),
        PointCloud([[-0.0], [2.0], [1e16]]),
        PointCloud.from_matrix([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]),
    ])
    def test_array_encodes_as_its_lists(self, tmp_path, cloud):
        # the encoder takes the cloud's own read-only array and writes it in blocks of values
        data = io.cloud_to_dict(cloud)
        key = "matrix" if cloud.metric == "matrix" else "points"
        array = cloud.matrix if cloud.metric == "matrix" else cloud.coords
        assert data[key] is array and not array.flags.writeable
        lists = {"metric": cloud.metric, key: array.tolist()}
        for indent in (0, 2):
            assert io.dumps_canonical(data, indent=indent) == \
                io.dumps_canonical(lists, indent=indent) == canonical_json_oracle(lists, indent)
        path = tmp_path / "c.json"
        io.write_cloud(cloud, path)
        assert path.read_text() == io.dumps_canonical(lists, indent=2) + "\n"


class TestCertificateFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        cloud = dyadic_interval_cloud(9)
        fam = search_regular(cloud, 4, 2, 2, strong=True).family
        path = tmp_path / "cert.json"
        io.write_certificate(fam, path)
        again = io.read_certificate(path)
        assert again.assign == fam.assign
        assert (again.k, again.l, again.depth, again.strong) == (4, 2, 2, True)
        path2 = tmp_path / "cert2.json"
        io.write_certificate(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_label_keys_dot_separated(self, tmp_path):
        fam = RegularFamily(2, 2, 2, False, {
            (): 0, (0,): 1, (1,): 2,
            (0, 0): 3, (0, 1): 4, (1, 0): 5, (1, 1): 6})
        data = fam.to_dict()
        assert set(data["assign"]) == {"", "0", "1", "0.0", "0.1", "1.0", "1.1"}
        assert RegularFamily.from_dict(data).assign == fam.assign


class TestTreeFiles:
    def test_roundtrip(self, tmp_path):
        tree = FiniteTree.full_tree(2, 2)
        path = tmp_path / "t.json"
        io.write_tree(tree, path)
        again = io.read_tree(path)
        assert again.nodes == tree.nodes

    def test_validation_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[0, 1]]")
        with pytest.raises(ValueError):
            io.read_tree(path)
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            io.read_tree(path)


class TestReportFiles:
    def test_json_and_csv(self, tmp_path):
        cloud = dyadic_interval_cloud(4)
        report = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -3, 2.0 ** -1))
        io.write_report(report, tmp_path / "rep.json")
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["alpha_hat"] == report.alpha_hat
        assert data["window"]["min_gap"] == 4.0
        assert "semantics" in data
        io.write_report_csv(report, tmp_path / "rep.csv")
        lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        assert lines[0] == "center,R,r,count,exponent"
        assert len(lines) == len(report.table) + 1
        for line, (c, R, r, n, e) in zip(lines[1:], report.table):
            assert line == ",".join([str(c), canonical_json_oracle(R),
                                     canonical_json_oracle(r), str(n),
                                     canonical_json_oracle(e)])

    @pytest.mark.parametrize("window", [ScaleWindow(3.0 ** -4, 3.0 ** -1, ratio=3, min_gap=3),
                                        ScaleWindow(4.0, 16.0)])   # the second: no rows
    def test_csv_bytes_match_the_row_writer(self, tmp_path, monkeypatch, window):
        # the csv.writer row loop over the table that the column join replaced
        report = lower_dim_estimate(cantor_cloud(5), window)
        expected = _row_writer_csv(report)
        monkeypatch.setattr(EstimateReport, "table", property(lambda rep: pytest.fail("read")))
        io.write_report_csv(report, tmp_path / "rep.csv")
        assert (tmp_path / "rep.csv").read_bytes() == expected
