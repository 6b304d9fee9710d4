"""fracdim: covering/packing numbers, scale-window lower-dimension estimates,
and (k, l)-regular certificates on finite metric point clouds."""

from .cloud import PointCloud, Subset, closed_ball, diameter, hausdorff_distance
from .config import (DEFAULT_BUDGET, DEFAULT_EXACT_CUTOFF, DEFAULT_TOL,
                     RunConfig)
from .covering import (CoverResult, PackResult, covering_number,
                       maximal_separated_family, packing_number,
                       validate_cover, validate_packing)
from .generators import (GeneratorSpec, cantor_cloud, dyadic_interval_cloud,
                         interval_plus_point_cloud, neighborhood_cascade,
                         polarized_example_cloud, polarized_natural_family,
                         union_cloud)
from .lowerdim import (BoundResult, EstimateReport, ScaleWindow,
                       dimension_bound, lower_dim_estimate,
                       mod_lower_dim_bound)
from .regular import (RegularFamily, RegularityReport, SearchResult,
                      Violation, certificate_scaling_check, choose_parameters,
                      level_points, search_regular, verify_regular)
from .trees import FiniteTree, branch_family, embed_tree, max_regular_depth

__version__ = "0.1.0"

__all__ = [
    "PointCloud", "Subset", "closed_ball", "diameter", "hausdorff_distance",
    "RunConfig", "DEFAULT_TOL", "DEFAULT_EXACT_CUTOFF", "DEFAULT_BUDGET",
    "CoverResult", "PackResult", "covering_number", "packing_number",
    "maximal_separated_family", "validate_cover", "validate_packing",
    "GeneratorSpec", "cantor_cloud", "dyadic_interval_cloud",
    "interval_plus_point_cloud", "polarized_example_cloud",
    "polarized_natural_family", "union_cloud", "neighborhood_cascade",
    "ScaleWindow", "EstimateReport", "BoundResult", "lower_dim_estimate",
    "dimension_bound", "mod_lower_dim_bound",
    "RegularFamily", "RegularityReport", "SearchResult", "Violation",
    "verify_regular", "search_regular", "choose_parameters", "level_points",
    "certificate_scaling_check",
    "FiniteTree", "embed_tree", "branch_family", "max_regular_depth",
    "__version__",
]
