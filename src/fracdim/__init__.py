"""fracdim: covering/packing numbers, scale-window lower-dimension estimates,
and (k, l)-regular certificates on finite metric point clouds.

The package root imports no submodule: each public name is loaded from its
home module on first access (PEP 562), so ``import fracdim`` loads neither
the submodules nor numpy and changes no environment variable.  That lets
``python -m fracdim`` (``fracdim.__main__.run``) cap the BLAS thread pool
before numpy starts it; fracdim calls no BLAS routine, and a future path that
leans on BLAS must revisit that default.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {name: module for module, names in {
    "cloud": ("PointCloud", "Subset", "closed_ball", "diameter", "hausdorff_distance"),
    "config": ("RunConfig", "DEFAULT_TOL", "DEFAULT_EXACT_CUTOFF", "DEFAULT_BUDGET"),
    "covering": ("CoverResult", "PackResult", "covering_number", "packing_number",
                 "maximal_separated_family", "validate_cover", "validate_packing"),
    "generators": ("GeneratorSpec", "cantor_cloud", "dyadic_interval_cloud",
                   "interval_plus_point_cloud", "polarized_example_cloud",
                   "polarized_natural_family", "union_cloud", "neighborhood_cascade"),
    "lowerdim": ("ScaleWindow", "EstimateReport", "lower_dim_estimate"),
    "regular": ("RegularFamily", "RegularityReport", "SearchResult", "Violation",
                "verify_regular", "search_regular", "choose_parameters", "level_points",
                "certificate_scaling_check", "BoundResult", "dimension_bound",
                "mod_lower_dim_bound"),
    "trees": ("FiniteTree", "embed_tree", "branch_family", "max_regular_depth"),
}.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        home = importlib.import_module(f".{_HOME[name]}", __name__)
        globals()[name] = value = getattr(home, name)
        return value
    if name in _HOME.values():   # ``fracdim.config.Records``: importing binds the submodule
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
