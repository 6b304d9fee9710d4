"""File formats and canonical serialization.

All JSON written by this package goes through :func:`dumps_canonical`,
which renders floats with 17 significant digits and preserves key order,
so identical runs produce byte-identical artifacts.
"""
from __future__ import annotations

import csv
import json
from typing import List

import numpy as np

from .cloud import PointCloud
from .config import _JSON_CHECKS
from .lowerdim import EstimateReport
from .regular import RegularFamily
from .trees import FiniteTree


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0, _level: int = 0) -> str:
    pad = " " * (indent * (_level + 1)) if indent else ""
    closing = " " * (indent * _level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl + pad if indent else ", "
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(x, indent, _level + 1) for x in obj]
        if not items:
            return "[]"
        return "[" + nl + pad + sep.join(items) + nl + closing + "]"
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ": " + dumps_canonical(v, indent, _level + 1)
                 for k, v in obj.items()]
        if not items:
            return "{}"
        return "{" + nl + pad + sep.join(items) + nl + closing + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path: str, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj, indent=indent))
        fh.write("\n")


# ---------------------------------------------------------------- clouds

def cloud_to_dict(cloud: PointCloud) -> dict:
    if cloud.metric == "matrix":
        return {"metric": "matrix", "matrix": [list(row) for row in cloud.matrix]}
    return {"metric": cloud.metric, "points": [list(row) for row in cloud.coords]}


def cloud_from_dict(data: dict) -> PointCloud:
    if not isinstance(data, dict) or "metric" not in data:
        raise ValueError("cloud file must hold an object with a 'metric' field")
    metric = data["metric"]
    if metric == "matrix":
        if "matrix" not in data:
            raise ValueError("matrix clouds need a 'matrix' field")
        return PointCloud.from_matrix(data["matrix"])
    if "points" not in data:
        raise ValueError("coordinate clouds need a 'points' field")
    return PointCloud(data["points"], metric=metric)


def write_cloud(cloud: PointCloud, path: str) -> None:
    write_json(cloud_to_dict(cloud), path)


def read_cloud(path: str, metric: str = "euclidean") -> PointCloud:
    """Read a cloud from JSON, or from CSV (one coordinate point per row)."""
    if str(path).lower().endswith(".csv"):
        return read_cloud_csv(path, metric=metric)
    with open(path, "r", encoding="utf-8") as fh:
        return cloud_from_dict(json.load(fh))


def read_cloud_csv(path: str, metric: str = "euclidean") -> PointCloud:
    if metric == "matrix":
        raise ValueError("CSV import supports coordinate metrics only")
    rows: List[List[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or all(not cell.strip() for cell in row):
                continue
            rows.append([float(cell) for cell in row])
    return PointCloud(rows, metric=metric)


# ------------------------------------------------------------ certificates

def write_certificate(family: RegularFamily, path: str) -> None:
    write_json(family.to_dict(), path)


def read_certificate(path: str) -> RegularFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return RegularFamily.from_dict(json.load(fh))


# ------------------------------------------------------------------ trees

def tree_to_list(tree: FiniteTree) -> list:
    return [list(u) for u in tree.nodes]


def write_tree(tree: FiniteTree, path: str) -> None:
    write_json(tree_to_list(tree), path)


def read_tree(path: str) -> FiniteTree:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("tree file must hold a JSON list of integer arrays")
    is_int = _JSON_CHECKS["an integer"]
    for node in data:
        if not (isinstance(node, list) and all(is_int(x) for x in node)):
            raise ValueError(f"tree node {json.dumps(node)} must be a list of integers")
    return FiniteTree(data)


# ---------------------------------------------------------------- reports

def write_report(report: EstimateReport, path: str) -> None:
    write_json(report.to_dict(), path)


def write_report_csv(report: EstimateReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "R", "r", "count", "exponent"])
        for (c, R, r, n, e) in report.table:
            writer.writerow([c, _fmt_float(R), _fmt_float(r), n, _fmt_float(e)])
