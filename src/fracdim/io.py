"""File formats and canonical serialization.

All JSON written by this package goes through one encoder, which preserves
key order and renders every float in one canonical form: integer-valued
floats below 1e16 as ``x.0``, all others with 17 significant digits,
non-finite values rejected.  Identical runs therefore produce byte-identical
artifacts.  The ``estimate --csv`` table uses the same float text.

Each value takes one ``isinstance`` dispatch, and a scalar float is
formatted where it stands, with no cache.  A :class:`fracdim.config.Records`
(the estimate table) is written as the list of dicts it stands for, column
by column (an array column, such as the table's (centers x pairs) arrays
and broadcast views, in row-major order), and a 2-D int or float array (a
cloud's points or matrix) as its list of rows.  Every step that can fail
(type dispatch, the non-finite refusal) runs before the first character is
written.  What the encoder
defers cannot fail: the text of a Records' int and float array columns and
of a 2-D array's values, each distinct value of a block formatted once, and
the joining of their rows.  A Records block is ``_BLOCK`` rows; an array
block is ``_BLOCK`` values, or one row when a row is wider.  :func:`dump_canonical`
writes those blocks to a file object, so neither a report's nor a cloud's
text is ever held whole; :func:`dumps_canonical` joins the same pieces into
one string.  The encoder before the columnar one, which recursed once per
value, is kept in ``tests/oracles.py``; the tests require byte-identical
output and the same exception types on random nested documents.
"""
from __future__ import annotations

import csv
import json
import math
import re
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

import numpy as np

from .cloud import PointCloud
from .config import _JSON_CHECKS, DEFAULT_TOL, Records, _checked_object
from .lowerdim import EstimateReport
from .regular import RegularFamily
from .trees import FiniteTree

# rows of a Records joined into one string at a time, or values of a 2-D array or of a
# Records' array column formatted at a time (whole rows, at least one)
_BLOCK = 1024
# where a Records' or an array's rows go in the encoder's text; _quote escapes every NUL
_HOLE = "\0"
_NON_FINITE = "cannot serialize non-finite float"

# a plain decimal number: no digit separators, inf, nan or non-ASCII digits
_CSV_NUMBER = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _blocks(pieces: list):
    """The rows ``zip(*pieces)`` yields, ``_BLOCK`` rows joined to each string."""
    rows = zip(*pieces)
    while block := "".join(chain.from_iterable(islice(rows, _BLOCK))):
        yield block


class _Encoder:
    """One document: its indent and the deferred rows of its Records and 2-D arrays."""

    def __init__(self, indent: int):
        self.indent = indent
        self.bodies = []   # row blocks of each Records or array, in the order of their holes

    def layout(self, level: int) -> tuple:
        """(after the open bracket, between items, before the close bracket)."""
        if not self.indent:
            return "", ", ", ""
        pad = "\n" + " " * (self.indent * (level + 1))
        return pad, "," + pad, "\n" + " " * (self.indent * level)

    def encode(self, obj, level: int) -> str:
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt_float(float(obj))
        if isinstance(obj, str):
            return _quote(obj)
        if isinstance(obj, Records):
            return self.records(obj, level)
        if (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size
                and obj.dtype.kind in ("f", "i", "u")):
            return self.array(obj, level)
        if isinstance(obj, (list, tuple, np.ndarray)):
            return self.sequence(obj, level)
        if isinstance(obj, dict):
            return self.mapping(obj, level)
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    def sequence(self, obj, level: int) -> str:
        if isinstance(obj, np.ndarray) and obj.ndim == 1:
            obj = obj.tolist()      # its numbers as Python scalars, one encode call each
        items = [self.encode(x, level + 1) for x in obj]
        if not items:
            return "[]"
        first, sep, last = self.layout(level)
        return "[" + first + sep.join(items) + last + "]"

    def mapping(self, obj, level: int) -> str:
        items = [_quote(str(k)) + ": " + self.encode(v, level + 1) for k, v in obj.items()]
        if not items:
            return "{}"
        first, sep, last = self.layout(level)
        return "{" + first + sep.join(items) + last + "}"

    def records(self, rec: Records, level: int) -> str:
        """``rec`` as its list of dicts: its columns checked now, its rows as a
        hole whose row blocks go to ``bodies``."""
        if not rec.rows:
            return "[]"
        texts = [self.column(column, level + 2) for column in rec.columns]
        _, sep, _ = self.layout(level)
        row_first, row_sep, row_last = self.layout(level + 1)
        heads = [_quote(str(k)) + ": " for k in rec.keys]
        opening = "{" + row_first + heads[0]
        glue = [chain([opening], repeat(sep + opening))] + [repeat(row_sep + h) for h in heads[1:]]
        return self.deferred(_blocks([x for g, column in zip(glue, texts) for x in (g, column)]
                                     + [repeat(row_last + "}")]), level)

    def array(self, array: np.ndarray, level: int) -> str:
        """A finite int or float 2-D array as its list of rows: checked now,
        its rows as a hole whose blocks of about ``_BLOCK`` values go to ``bodies``."""
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise ValueError(_NON_FINITE)
        return self.deferred(self.array_rows(array, level), level)

    def array_rows(self, array: np.ndarray, level: int):
        """The text of ``array``'s rows, one block of rows at a time."""
        _, sep, _ = self.layout(level)
        first, value_sep, last = self.layout(level + 1)
        width = array.shape[1]
        # after each value: the next value's separator, or the end of its row and the next's start
        glue = [value_sep] * (width - 1) + [last + "]" + sep + "[" + first]
        step = max(1, _BLOCK // width)
        for start in range(0, len(array), step):
            texts = self.array_texts(array[start:start + step].ravel())
            pieces = [None] * (2 * len(texts))
            pieces[::2] = texts
            pieces[1::2] = glue * (len(texts) // width)
            pieces[-1] = last + "]"
            yield (sep if start else "") + "[" + first + "".join(pieces)

    def deferred(self, blocks, level: int) -> str:
        """The list whose items ``blocks`` joins, as a hole (``blocks`` go to
        ``bodies``) or, inside a Records' row, as its text."""
        first, _, last = self.layout(level)
        if self.bodies is None:   # inside another Records' row
            return "[" + first + "".join(blocks) + last + "]"
        self.bodies.append(blocks)
        return "[" + first + _HOLE + last + "]"

    def column(self, values, level: int):
        """Each value's text, in order (an array's in row-major order).  An int
        or float array is checked now and formatted later, a whole number of
        rows of about ``_BLOCK`` values (or one wider row) at a time, so only
        a block of a broadcast view is ever copied."""
        kind = values.dtype.kind if isinstance(values, np.ndarray) else ""
        if kind not in ("f", "i", "u"):   # a Records among the values is joined within its row
            bodies, self.bodies = self.bodies, None
            texts = [self.encode(x, level) for x in (values.ravel() if kind else values)]
            self.bodies = bodies
            return texts
        if kind == "f" and not np.isfinite(values).all():
            raise ValueError(_NON_FINITE)
        step = max(1, _BLOCK // max(1, math.prod(values.shape[1:])))
        return chain.from_iterable(self.array_texts(values[start:start + step].ravel())
                                   for start in range(0, len(values), step))

    @staticmethod
    def array_texts(values: np.ndarray) -> list:
        """The texts of a finite 1-D int or float array, each distinct value
        formatted once; nothing is cached beyond the call."""
        if values.dtype.kind == "f":   # by bit pattern, so that 0.0 and -0.0 stay apart
            distinct, at = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
            texts = list(map(_fmt_float, distinct.view(np.float64).tolist()))
        else:
            distinct, at = np.unique(values, return_inverse=True)
            texts = [str(x) for x in distinct.tolist()]
        return np.array(texts, dtype=object)[at].tolist()


def _chunks(obj, indent: int):
    """The canonical text of ``obj`` as an iterator of strings.  Everything
    that can fail has run when this returns; the iterator only joins rows."""
    encoder = _Encoder(indent)
    pieces = encoder.encode(obj, 0).split(_HOLE)
    return chain.from_iterable(chain((piece,), body)
                               for piece, body in zip(pieces, encoder.bodies + [()]))


def dump_canonical(obj, fh, indent: int = 0) -> None:
    """Write the canonical text of ``obj`` to ``fh``; nothing is written if it cannot be encoded."""
    for chunk in _chunks(obj, indent):
        fh.write(chunk)


def dumps_canonical(obj, indent: int = 0) -> str:
    return "".join(_chunks(obj, indent))


def write_json(obj, path: str) -> None:
    chunks = _chunks(obj, 2)   # before the file is opened: a failed encode leaves it as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


# ---------------------------------------------------------------- clouds

def cloud_to_dict(cloud: PointCloud) -> dict:
    """The cloud's JSON object for the canonical encoder, which takes its
    (read-only) point or matrix array as it is; ``json.dumps`` does not."""
    if cloud.metric == "matrix":
        return {"metric": "matrix", "matrix": cloud.matrix}
    return {"metric": cloud.metric, "points": cloud.coords}


def cloud_from_dict(data: dict, tol: float = DEFAULT_TOL) -> PointCloud:
    """The cloud a JSON object describes; malformed input raises ValueError.

    Coordinate clouds hold ``metric`` and ``points`` (rows of numbers, all
    of one length, or numbers for a 1-D cloud); matrix clouds hold
    ``metric`` and ``matrix`` (rows of numbers, all of one length, a metric within ``tol``).
    """
    key = "matrix" if isinstance(data, dict) and data.get("metric") == "matrix" else "points"
    data = _checked_object(data, "cloud", {"metric": "a string", key: "a list"},
                           required=("metric", key))
    number = _JSON_CHECKS["a number"]
    rows = data[key]
    if key == "matrix" or any(isinstance(row, list) for row in rows):
        if not all(isinstance(row, list) for row in rows) or len({len(r) for r in rows}) > 1:
            rule = ("rows of one length" if key == "matrix"
                    else "only numbers or only rows of one length")
            raise ValueError(f"cloud field {key!r} must hold {rule}")
    entries = (x for row in rows for x in (row if isinstance(row, list) else [row]))
    # the bound also refuses integers too large for a float
    if not all(number(x) and abs(x) <= sys.float_info.max for x in entries):
        raise ValueError(f"cloud field {key!r} must hold only finite numbers")
    if key == "matrix":
        return PointCloud(metric="matrix", matrix=rows, tol=tol)
    return PointCloud(rows, metric=data["metric"])


def write_cloud(cloud: PointCloud, path: str) -> None:
    write_json(cloud_to_dict(cloud), path)


def read_cloud(path: str, metric: Optional[str] = None, tol: float = DEFAULT_TOL) -> PointCloud:
    """Read a cloud from JSON (of ``metric`` if given; a matrix must be a metric within
    ``tol``) or from CSV (one coordinate point per row, under ``metric``, default euclidean)."""
    if str(path).lower().endswith(".csv"):
        return read_cloud_csv(path, metric=metric or "euclidean")
    with open(path, "r", encoding="utf-8") as fh:
        cloud = cloud_from_dict(json.load(fh), tol)
    if metric is not None and metric != cloud.metric:
        raise ValueError(f"the cloud file's metric is {cloud.metric!r}, not the given {metric!r}")
    return cloud


def read_cloud_csv(path: str, metric: str = "euclidean") -> PointCloud:
    if metric == "matrix":
        raise ValueError("CSV import supports coordinate metrics only")
    rows: List[List[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"CSV rows must all have the first row's {len(rows[0])}"
                                 f" values; line {reader.line_num} has {len(row)}")
            values = [float(cell) if _CSV_NUMBER.fullmatch(cell) else math.nan for cell in row]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"CSV cells must be finite numbers; line {reader.line_num}"
                                 f" has {','.join(row)!r}")
            rows.append(values)
    return PointCloud(rows, metric=metric)


# ------------------------------------------------------------ certificates

def write_certificate(family: RegularFamily, path: str) -> None:
    write_json(family.to_dict(), path)


def read_certificate(path: str) -> RegularFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return RegularFamily.from_dict(json.load(fh))


# ------------------------------------------------------------------ trees

def write_tree(tree: FiniteTree, path: str) -> None:
    write_json([list(u) for u in tree.nodes], path)


def read_tree(path: str) -> FiniteTree:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not (isinstance(data, list) and all(isinstance(node, list) for node in data)):
        raise ValueError("tree file must hold a JSON list of integer arrays")
    return FiniteTree(data)


# ---------------------------------------------------------------- reports

def write_report(report: EstimateReport, path: str) -> None:
    write_json(report.to_dict(), path)


def write_report_csv(report: EstimateReport, path: str) -> None:
    table, encoder = report.to_dict()["table"], _Encoder(0)
    # numbers need no quoting; rows end in \r\n, as csv.writer ends them
    cells = [x for column in table.columns for x in (encoder.column(column, 0), repeat(","))]
    cells[-1] = repeat("\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.keys) + "\r\n")
        fh.writelines(_blocks(cells))
