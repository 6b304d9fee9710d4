"""Spans around calls into each fracdim module, installed from outside the program.

A span records (name, start, end, parent).  Spans are kept in compact
in-memory arrays and written out once, when the run ends.  Self time is a
span's duration minus the time its child spans cover.

Which calls get a span:
  * every public function of each layer module, under ``<module>.<name>``;
  * every private function one module imports from another, under the
    defining module's name (``regular._greedy_cover_parts`` becomes
    ``covering.greedy_cover_parts``), in the importing module only;
  * the methods and helpers listed in ``EXTRA_SPANS``;
  * each CLI command handler, under ``cli.<command>``.
The package imports functions by name, so a wrapper is installed in every
fracdim module whose namespace holds the wrapped function.  A recursive call
opens no span of its own: only the outermost call is timed.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

LAYERS = ("cli", "io", "cloud", "covering", "lowerdim", "regular", "trees")

# (module, attribute path, span name): calls that are not public functions
# but that a layer metric needs.
EXTRA_SPANS = (
    ("cloud", "PointCloud.distances_from", "cloud.distances_from"),
    ("cloud", "Subset.__post_init__", "cloud.subset"),
    ("cloud", "_validated_coords", "cloud.validate"),
    ("cloud", "_validated_matrix", "cloud.validate"),
)


class Tracer:
    """Spans in parallel arrays (a span is an index) and named counters."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.wrapped: set = set()   # span names that found their function

    def name_of(self, span: int) -> Optional[str]:
        return None if span < 0 else self.names[self.name_id[span]]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    # ---------------------------------------------------------- summaries

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return nid, parent, dur

    def totals(self) -> Dict[str, dict]:
        """Per span name: calls, total duration, self time."""
        nid, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=self_time, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])} for i, name in enumerate(self.names)}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans opened directly inside a ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        nid, parent, _ = self.arrays()
        kids = parent[nid == self._ids[child_name]]
        kids = kids[kids >= 0]
        return int(np.count_nonzero(nid[kids] == self._ids[parent_name]))

    def save(self, path: Path) -> None:
        nid, parent, _ = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=nid, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _wrap(tracer: Tracer, fn: Callable, name: str,
          classify: Optional[Callable] = None, after: Optional[Callable] = None):
    active = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if active[0]:
            return fn(*args, **kwargs)
        span = tracer.open(classify(*args, **kwargs) if classify else name)
        active[0] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            active[0] -= 1
            tracer.close(span)
        if after is not None:
            after(tracer, span, args, kwargs, result)
        return result

    return wrapper


# --------------------------------------------- layer-specific hooks

def _cover_path(subset, r, mode="auto", tol=None, exact_cutoff=20, **_):
    """Which covering path a call takes, judged from its arguments."""
    if subset.cloud.sorted_1d:
        return "covering.cover_sweep"
    if mode == "exact" or (mode == "auto" and len(subset) <= exact_cutoff):
        return "covering.cover_bb"
    return "covering.cover_greedy"


def _after_cover(tracer, span, args, kwargs, result):
    tracer.counters["covering.points"] += len(args[0] if args else kwargs["subset"])
    tracer.counters["covering.calls"] += 1
    if tracer.name_of(tracer.parent[span]) == "lowerdim.lower_dim_estimate":
        tracer.counters["covering.witness_parts"] += len(getattr(result, "parts", None) or ())


def _after_estimate(tracer, span, args, kwargs, result):
    tracer.counters["lowerdim.rows"] += len(getattr(result, "table", None) or ())


def _after_search(tracer, span, args, kwargs, result):
    tracer.counters["regular.expansions"] += result.expansions
    tracer.counters["regular.found"] += result.family is not None


HOOKS = {
    "covering.covering_number": (_cover_path, _after_cover),
    "lowerdim.lower_dim_estimate": (None, _after_estimate),
    "regular.search_regular": (None, _after_search),
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the fracdim functions described in the module docstring while
    the block runs; the originals are put back when it ends."""
    patches = []   # (owner, key, original); the owner is a module, class or dict

    def patch(owner, key: str, wrapper: Callable) -> None:
        if isinstance(owner, dict):
            patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    try:
        _install(tracer, patch)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def _install(tracer: Tracer, patch: Callable) -> None:
    import fracdim  # noqa: F401  (loads every module of the package)

    modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
               if name.startswith("fracdim.") and mod is not None}
    modules["__init__"] = sys.modules["fracdim"]
    wrappers: Dict[int, Callable] = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("fracdim."):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS or (attr.startswith("_") and obj.__module__ == mod.__name__):
                continue
            wrapper = wrappers.get(id(obj))
            if wrapper is None:
                name = f"{layer}.{attr.lstrip('_')}"
                classify, after = HOOKS.get(name, (None, None))
                wrapper = wrappers[id(obj)] = _wrap(tracer, obj, name, classify, after)
                tracer.wrapped.add(name)
            patch(mod, attr, wrapper)
    if "covering.covering_number" in tracer.wrapped:
        tracer.wrapped.update(("covering.cover_sweep", "covering.cover_bb",
                                 "covering.cover_greedy"))
    for layer, path, name in EXTRA_SPANS:
        owner = modules.get(layer)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        obj = getattr(owner, attr, None)
        if inspect.isfunction(obj):
            patch(owner, attr, _wrap(tracer, obj, name))
            tracer.wrapped.add(name)

    commands = getattr(modules.get("cli"), "_COMMANDS", None)
    if isinstance(commands, dict):
        for command, handler in list(commands.items()):
            patch(commands, command, _wrap(tracer, handler, f"cli.{command}"))
            tracer.wrapped.add(f"cli.{command}")
