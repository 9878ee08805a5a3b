"""needle-iso: separation distances of 1-D needles and candidate-comparison
isoperimetry on spheres, projective spaces and the Cayley plane.

The library works with probability densities on angular intervals
(trigonometric monomials, shifted-cosine powers, tabulated samples),
computes separation distances and their suprema over needle families, and
compares ball/tube candidates by the volume of their enlargements.  A
seeded property suite cross-checks every documented invariant against
independent oracles (closed forms, adaptive quadrature, brute-force grid
search, Monte Carlo sphere sampling).
"""

from .concavity import (
    MARGIN_TOL,
    BinomialDecomposition,
    ComparisonReport,
    SinConcavityMargin,
    binomial_decompose,
    check_comparison_lemma,
    is_sin_concave,
    sin_concavity_margin,
)
from .cross_spaces import (
    Candidate,
    CrossSpace,
    catalog,
    catalog_to_dict,
    enlarged_volume,
    polar_of,
    profile_cdf,
    profile_quantile,
    radial_density,
    space_by_name,
)
from .densities import (
    Interval,
    SinAffineDensity,
    TabulatedDensity,
    TrigDensity,
    density_from_dict,
    normalize,
    trig_mass,
)
from .errors import (
    HypothesisViolated,
    InvalidMass,
    InvalidOrder,
    NeedleIsoError,
    NonIntegerPower,
    NotApplicable,
    OutOfDomain,
    PreconditionFailed,
    QuadratureError,
    ZeroMass,
)
from .needle_bound import (
    NeedleBoundResult,
    batch_affine_sep,
    batch_trig_sep,
    bound_profile,
    bound_profile_csv,
    cross_needle_bound,
    cross_needle_bounds,
    optimize_affine_family,
    sphere_needle_bound,
)
from .oracles import SUITE_NAMES, report_to_json, run_property_suite
from .quadrature import integrate
from .sampling import RngSpec, mc_cap_mass
from .separation import MassPair, SeparationResult, batch_sep, sep_1d, sep_1d_bruteforce
from .solver import (
    SolveRequest,
    SolveResult,
    check_main_inequality,
    check_realization,
    isoperimetric_profile_curve,
    profile_curve_csv,
    solve_isoperimetric,
    solve_with_complement_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialDecomposition",
    "Candidate",
    "ComparisonReport",
    "CrossSpace",
    "HypothesisViolated",
    "Interval",
    "InvalidMass",
    "InvalidOrder",
    "MARGIN_TOL",
    "MassPair",
    "NeedleBoundResult",
    "NeedleIsoError",
    "NonIntegerPower",
    "NotApplicable",
    "OutOfDomain",
    "PreconditionFailed",
    "QuadratureError",
    "RngSpec",
    "SUITE_NAMES",
    "SeparationResult",
    "SinAffineDensity",
    "SinConcavityMargin",
    "SolveRequest",
    "SolveResult",
    "TabulatedDensity",
    "TrigDensity",
    "ZeroMass",
    "batch_affine_sep",
    "batch_sep",
    "batch_trig_sep",
    "binomial_decompose",
    "bound_profile",
    "bound_profile_csv",
    "catalog",
    "catalog_to_dict",
    "check_comparison_lemma",
    "check_main_inequality",
    "check_realization",
    "cross_needle_bound",
    "cross_needle_bounds",
    "density_from_dict",
    "enlarged_volume",
    "integrate",
    "is_sin_concave",
    "isoperimetric_profile_curve",
    "mc_cap_mass",
    "normalize",
    "optimize_affine_family",
    "polar_of",
    "profile_cdf",
    "profile_curve_csv",
    "profile_quantile",
    "radial_density",
    "report_to_json",
    "run_property_suite",
    "sep_1d",
    "sep_1d_bruteforce",
    "sin_concavity_margin",
    "solve_isoperimetric",
    "solve_with_complement_reduction",
    "space_by_name",
    "sphere_needle_bound",
    "trig_mass",
]
