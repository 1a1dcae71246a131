"""saddlepass: level-set solvers for saddle points of mountain-pass type.

Two solvers on scalar fields over R^n, plus a pseudospectral pipeline that
estimates the 2-norm distance from a matrix to the nearest matrix with a
repeated eigenvalue by locating the point where two pseudospectral components
coalesce.
"""

from .bisection import (
    BisectionOptions,
    BisectionState,
    ClosestPair,
    ComponentQuery,
    assemble_path,
    bisect,
    component_distance,
    same_component,
)
from .diagnostics import (
    CriticalPointReport,
    OptimalityReport,
    check_pair_optimality,
    classify_critical_point,
    convergence_rates,
)
from .errors import (
    BoundaryHitError,
    DegenerateSpectrumError,
    PreconditionError,
    ResolutionLimitError,
    UnsupportedDimensionError,
)
from .fields import (
    Ball,
    Box,
    Region,
    ScalarField,
    TestProblem,
    builtin_problems,
    get_problem,
    make_quadratic_field,
)
from .linalg import (
    SegmentFrame,
    SigmaMinField,
    byers_vertical_crossings,
    eigenvalues,
    rotate_to_vertical,
    smallest_singular_value,
)
from .local_solver import (
    LocalIterate,
    LocalOptions,
    LocalRun,
    advance_along_segment,
    assemble_local_path,
    bisector_minimize,
    equalize_endpoints,
    minimize_on_hyperplane,
    refine_closest_pair,
    run_local,
    segment_max,
)
from .wilkinson import (
    PseudospectrumGrid,
    VoronoiEdge,
    WilkinsonOptions,
    WilkinsonResult,
    nearest_defective_perturbation,
    pseudospectrum_grid,
    segment_minimize_sigma,
    voronoi_edges,
    voronoi_heuristic,
    wilkinson_distance,
    wilkinson_local,
)

__version__ = "0.1.0"
