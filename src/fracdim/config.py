"""Shared tolerances, reproducible run configuration, and JSON checks and value types."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

# Absolute tolerance applied on the permissive side of every inequality
# (ball membership, part diameters, separation bounds).  Generators emit
# dyadic values, so this never flips a structurally determined comparison
# at desk scale; triadic Cantor coordinates are the documented exception.
DEFAULT_TOL = 1e-12

# Instance-size cutoff for the generic branch-and-bound exact solvers.
DEFAULT_EXACT_CUTOFF = 20

# Node-expansion budget for certificate search.
DEFAULT_BUDGET = 100_000

CONFIG_ENV_VAR = "FRACDIM_CONFIG"

# Checks of values read from JSON files, keyed by what an error calls them.
_JSON_CHECKS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of two": lambda v: isinstance(v, list) and len(v) == 2,
}


def _height(column) -> int:
    """How many values a Records column holds: an array's size, else its length."""
    size = getattr(column, "size", None)
    return len(column) if size is None else size


@dataclass(frozen=True)
class Records:
    """Same-key records by column: record i's value under ``keys[j]`` is value i of
    ``columns[j]``.  A column is a list or tuple of values, or an array read in
    row-major order: a finite int or float array of any shape (a broadcast view
    too) is never copied whole, so an (n, P) table needs no flattened columns.
    Rows are counted by size, so an (n, 0) column holds no record."""

    keys: tuple
    columns: tuple

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.keys) or len(set(map(_height, self.columns))) != 1:
            raise ValueError("Records needs one column of one length per key")

    @property
    def rows(self) -> int:
        return _height(self.columns[0])


def _checked_object(data, what: str, fields: dict, required=()) -> dict:
    """A copy of ``data``, which must be a JSON object with every key of
    ``required`` and no key outside ``fields``, each value passing the check
    that ``fields`` names for its key; otherwise ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")
    for key, value in data.items():
        if not _JSON_CHECKS[fields[key]](value):
            raise ValueError(f"{what} field {key!r} must be {fields[key]}")
    return dict(data)


@dataclass(frozen=True)
class RunConfig:
    """Frozen knobs for one reproducible run.

    Precedence when resolving: explicit flags > config file > these defaults.
    There is no randomness anywhere; identical configs replay identically.
    """

    tol: float = DEFAULT_TOL
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if self.exact_cutoff < 4:
            raise ValueError("exact_cutoff must be at least 4")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        fields = {"tol": "a number", "exact_cutoff": "an integer", "budget": "an integer"}
        with open(path, "r", encoding="utf-8") as fh:
            return cls(**_checked_object(json.load(fh), "config", fields))

    @classmethod
    def resolve(cls, config_path: str | None = None, **overrides) -> "RunConfig":
        """Defaults, then the config file (explicit path or $FRACDIM_CONFIG), then flags."""
        path = config_path or os.environ.get(CONFIG_ENV_VAR)
        cfg = cls.from_file(path) if path else cls()
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return replace(cfg, **overrides) if overrides else cfg
