"""File formats and canonical serialization.

All JSON written by this package goes through :func:`dumps_canonical`,
which preserves key order and renders every float in one canonical form:
integer-valued floats below 1e16 as ``x.0``, all others with 17
significant digits, non-finite values rejected.  Identical runs therefore
produce byte-identical artifacts.  The ``estimate --csv`` table uses the
same float text.

Each call formats a distinct float once (``_float_format``) and writes a
list of dicts that share one key order, such as the estimate table, from
a row template built once, formatting each row's scalars inline.  The
encoder this replaced, which recursed through ``dumps_canonical`` once per
value, is kept in ``tests/oracles.py``; the tests require byte-identical
output and the same exception types on random nested documents.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

import numpy as np

from .cloud import PointCloud
from .config import _JSON_CHECKS, _checked_object
from .lowerdim import EstimateReport
from .regular import RegularFamily
from .trees import FiniteTree


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _float_format():
    """``_fmt_float`` that formats each distinct value once over its own lifetime."""
    cache = {}

    def fmt(x: float) -> str:
        text = cache.get(x)
        if text is None:
            text = _fmt_float(x)
            if x:   # 0.0 and -0.0 are equal keys but print differently
                cache[x] = text
        return text

    return fmt


class _Encoder:
    """One ``dumps_canonical`` call: its indent and its float cache."""

    def __init__(self, indent: int):
        self.indent = indent
        self.float = _float_format()

    def layout(self, level: int) -> tuple:
        """(after the open bracket, between items, before the close bracket)."""
        if not self.indent:
            return "", ", ", ""
        pad = "\n" + " " * (self.indent * (level + 1))
        return pad, "," + pad, "\n" + " " * (self.indent * level)

    def encode(self, obj, level: int) -> str:
        kind = type(obj)
        if kind is float:
            return self.float(obj)
        if kind is int:
            return str(obj)
        if kind is str:
            return _quote(obj)
        if obj is None:
            return "null"
        if kind is list or kind is tuple:
            return self.sequence(obj, level)
        if kind is dict:
            return self.mapping(obj, level)
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return self.float(float(obj))
        if isinstance(obj, str):
            return _quote(obj)
        if isinstance(obj, (list, tuple, np.ndarray)):
            return self.sequence(obj, level)
        if isinstance(obj, dict):
            return self.mapping(obj, level)
        raise TypeError(f"cannot serialize {kind.__name__}")

    def sequence(self, obj, level: int) -> str:
        keys = _record_keys(obj)
        if keys:
            items = self.records(obj, keys, level + 1)
        else:
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

    def records(self, rows: list, keys: tuple, level: int) -> List[str]:
        """Dicts with key order ``keys`` at ``level``: one template, scalars inline."""
        first, sep, last = self.layout(level)
        heads = [_quote(str(k)) + ": " for k in keys]
        pieces = ["{" + first + heads[0]] + [sep + h for h in heads[1:]] + [last + "}"]
        template = "{}".join(p.replace("{", "{{").replace("}", "}}") for p in pieces)
        fmt, encode, inner = self.float, self.encode, level + 1
        out = []
        for row in rows:
            values = []
            for v in row.values():
                kind = type(v)
                if kind is float:
                    values.append(fmt(v))
                elif kind is int:
                    values.append(str(v))
                else:
                    values.append(encode(v, inner))
            out.append(template.format(*values))
        return out


def _record_keys(obj) -> tuple:
    """The shared key tuple if ``obj`` is a list or tuple of plain dicts that
    all have the same non-empty keys in the same order, else ``()``."""
    if not (type(obj) is list or type(obj) is tuple) or not obj or type(obj[0]) is not dict:
        return ()
    keys = tuple(obj[0])
    for row in obj:
        if type(row) is not dict or tuple(row) != keys:
            return ()
    return keys


def dumps_canonical(obj, indent: int = 0) -> str:
    return _Encoder(indent).encode(obj, 0)


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj, indent=2))
        fh.write("\n")


# ---------------------------------------------------------------- clouds

def cloud_to_dict(cloud: PointCloud) -> dict:
    if cloud.metric == "matrix":
        return {"metric": "matrix", "matrix": cloud.matrix.tolist()}
    return {"metric": cloud.metric, "points": cloud.coords.tolist()}


def cloud_from_dict(data: dict) -> PointCloud:
    """The cloud a JSON object describes; malformed input raises ValueError.

    Coordinate clouds hold ``metric`` and ``points`` (rows of numbers, all
    of one length, or numbers for a 1-D cloud); matrix clouds hold
    ``metric`` and ``matrix`` (rows of numbers, all of one length).
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
        return PointCloud.from_matrix(rows)
    return PointCloud(rows, metric=data["metric"])


def write_cloud(cloud: PointCloud, path: str) -> None:
    write_json(cloud_to_dict(cloud), path)


def read_cloud(path: str, metric: Optional[str] = None) -> PointCloud:
    """Read a cloud from JSON, or from CSV (one coordinate point per row, under
    ``metric``, default euclidean); a JSON cloud must have ``metric`` if given."""
    if str(path).lower().endswith(".csv"):
        return read_cloud_csv(path, metric=metric or "euclidean")
    with open(path, "r", encoding="utf-8") as fh:
        cloud = cloud_from_dict(json.load(fh))
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
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                values = [math.nan]
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "R", "r", "count", "exponent"])
        fmt = _float_format()
        for (c, R, r, n, e) in report.table:
            writer.writerow([c, fmt(R), fmt(r), n, fmt(e)])
