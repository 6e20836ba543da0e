"""countmatch: density-adaptive point matching and counting evaluation.

The library covers the desk-scale algorithmic core of point-based cell
counting: adaptive-radius Hungarian matching between predicted and
annotated point sets, dynamic anisotropic Gaussian kernels with verified
gradients, density-map rendering and peak decoding, counting metrics,
and a deterministic synthetic scene generator, all tied together by the
``countmatch`` command-line tool.
"""

from .assignment import Assignment, hungarian_solve
from .densitymap import DensityMap, extract_peaks, render_density
from .dynconv import (
    AttentionState,
    FeatureMap,
    ParamField,
    dynamic_gaussian_conv,
    fusion_attention,
    multiscale_forward,
    predict_params,
)
from .geometry import (
    DEFAULT_K,
    DEFAULT_RADIUS_FLOOR,
    Point,
    PointLabel,
    PointSet,
    RadiusProfile,
    all_radii,
    pairwise_distances,
)
from .kernels import (
    Kernel,
    KernelGradients,
    KernelParams,
    kernel_gradients,
    synthesize_kernel,
)
from .matching import (
    MatchConfig,
    MatchPair,
    MatchResult,
    SigmaMode,
    WeightMatrix,
    brute_force_match,
    build_weight_matrix,
    fixed_radius_match,
    match_points,
    match_with_radii,
)
from .metrics import CountReport, ImageEval, aggregate_report, count_error, evaluate_case
from .synth import (
    DensityProfile,
    Prng,
    SceneConfig,
    TwoClusterLayout,
    perturb_points,
    sample_points,
    sample_separated,
    two_cluster_layout,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AttentionState",
    "CountReport",
    "DEFAULT_K",
    "DEFAULT_RADIUS_FLOOR",
    "DensityMap",
    "DensityProfile",
    "FeatureMap",
    "ImageEval",
    "Kernel",
    "KernelGradients",
    "KernelParams",
    "MatchConfig",
    "MatchPair",
    "MatchResult",
    "ParamField",
    "Point",
    "PointLabel",
    "PointSet",
    "Prng",
    "RadiusProfile",
    "SceneConfig",
    "SigmaMode",
    "TwoClusterLayout",
    "WeightMatrix",
    "aggregate_report",
    "all_radii",
    "brute_force_match",
    "build_weight_matrix",
    "count_error",
    "dynamic_gaussian_conv",
    "evaluate_case",
    "extract_peaks",
    "fixed_radius_match",
    "fusion_attention",
    "hungarian_solve",
    "kernel_gradients",
    "match_points",
    "match_with_radii",
    "multiscale_forward",
    "pairwise_distances",
    "perturb_points",
    "predict_params",
    "render_density",
    "sample_points",
    "sample_separated",
    "synthesize_kernel",
    "two_cluster_layout",
]
